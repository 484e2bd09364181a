"""Executable models built from graph specs, plus a tiny training demo.

build_model turns a validated GraphSpec into layer objects with seeded
initialization; the same (graph, seed) pair always yields bit-identical
parameters because draws happen in layer order from one generator. It marks
`in_place` each ReLU and NAM gate that owns its input, a fresh map nothing
else holds: every item does, except the first (the caller's input) and one
right after `residual_begin` (the skip's) or a ReLU (which caches its output).
These are the only marks: a FasterNet block overwrites maps of its own
chain without one (see `blocks`).

run_demo_train fits a graph ending in `gap_head classes=2` to a synthetic
two-class dataset (bright centered square on dark noise vs plain dark noise)
with full-batch gradient descent on softmax cross-entropy. It is a mechanism
check — the loop must actually descend — not a benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers as L
from .config import GraphSpec, walk_graph
from .errors import TrainingDiverged, ValidationError
from .kinds import KINDS, ResidualBegin, ResidualEnd
from .tensor_ops import Tensor4, residual_add


@dataclass(frozen=True)
class TrainRecord:
    """Loss measured on the full batch right before the step's update."""

    step: int
    loss: float


TrainLog = list[TrainRecord]


class Model:
    """A layer sequence with residual markers; checkable as a gradient unit."""

    def __init__(self, graph: GraphSpec, items: list):
        self.graph = graph
        self.items = items
        self.name = graph.name
        c, h, w = graph.input_shape
        self.input_shape = (2, c, h, w)  # default batch for gradient checking

    def forward(self, x: Tensor4, training: bool = True) -> Tensor4:
        stack = []
        for item in self.items:
            if isinstance(item, ResidualBegin):
                stack.append(x)
            elif isinstance(item, ResidualEnd):
                x = residual_add(stack.pop(), x)
            else:
                x = item.forward(x, training)
        return x

    def backward(self, grad_out: Tensor4) -> Tensor4:
        g = grad_out
        stack = []
        for item in reversed(self.items):
            if isinstance(item, ResidualEnd):
                stack.append(g)
            elif isinstance(item, ResidualBegin):
                g = g + stack.pop()
            else:
                g = item.backward(g)
        return g

    def layer_objects(self) -> list:
        return [item for item in self.items if isinstance(item, L.Layer)]

    def _keyed(self, method: str) -> dict[str, np.ndarray]:
        """Each layer's `params()` or `param_grads()` under `{index}.{kind}.{key}`, in layer order."""
        return {
            f"{i}.{layer.kind}.{key}": value
            for i, layer in enumerate(self.layer_objects())
            for key, value in getattr(layer, method)().items()
        }

    def params(self) -> dict[str, np.ndarray]:
        return self._keyed("params")

    def param_grads(self) -> dict[str, np.ndarray]:
        return self._keyed("param_grads")

    def apply_gradients(self, lr: float) -> None:
        for layer in self.layer_objects():
            layer.apply_gradients(lr)


def build_model(graph: GraphSpec, seed: int = 0) -> Model:
    """Instantiate a graph with deterministic seeded initialization."""
    rng = np.random.default_rng(seed)
    items = []
    for layer_id, node, spec, in_shape, _ in walk_graph(graph):  # re-validates pre-parsed graphs
        item = KINDS[node.kind].build(spec, in_shape, rng)
        item.name = layer_id  # as analyze_graph ids the rows
        # The ownership rule of the module docstring.
        owns_input = bool(items) and not isinstance(items[-1], (ResidualBegin, L.ReLU))
        if owns_input and isinstance(item, (L.ReLU, L.NAMChannel, L.NAMSpatial)):
            item.in_place = True
        items.append(item)
    return Model(graph, items)


def synthetic_dataset(
    input_shape: tuple[int, int, int], n_samples: int = 256, seed: int = 0
) -> tuple[Tensor4, np.ndarray]:
    """Two balanced classes of (c, h, w) images, deterministic in the seed.

    Label 1: a bright centered square (side h//2) added onto dark noise.
    Label 0: dark noise only. Samples are shuffled with the same generator.
    """
    c, h, w = input_shape
    if h < 4 or w < 4:
        raise ValidationError(f"synthetic images need h, w >= 4, got {(h, w)}")
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 0.2, size=(n_samples, c, h, w))
    labels = np.zeros(n_samples, dtype=np.int64)
    labels[: n_samples // 2] = 1
    top, left = h // 4, w // 4
    x[: n_samples // 2, :, top : top + h // 2, left : left + w // 2] += 1.0
    order = rng.permutation(n_samples)
    return x[order], labels[order]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    p = expz / expz.sum(axis=1, keepdims=True)
    # p can underflow to 0 for hugely wrong logits; the resulting inf loss is
    # a meaningful signal (run_demo_train turns it into TrainingDiverged)
    with np.errstate(divide="ignore"):
        loss = float(-np.mean(np.log(p[np.arange(n), labels])))
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def run_demo_train(graph: GraphSpec, seed: int = 0, steps: int = 200, lr: float = 0.05) -> TrainLog:
    """Full-batch gradient descent on the synthetic task; returns the loss log.

    Requires the graph to end with `gap_head classes=2`. One TrainRecord per
    step, loss measured before that step's update; lr=0 therefore yields a
    constant log. A non-finite loss aborts with TrainingDiverged.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if not graph.layers or graph.layers[-1].kind != "gap_head":
        raise ValidationError("demo training requires the graph to end with a gap_head layer")
    if graph.layers[-1].attrs["classes"] != 2:
        raise ValidationError("demo training is a 2-class task: gap_head classes=2")

    model = build_model(graph, seed=seed)
    x, labels = synthetic_dataset(graph.input_shape, n_samples=256, seed=seed)
    log: TrainLog = []
    for step in range(1, steps + 1):
        logits = model.forward(x, training=True)[:, :, 0, 0]
        loss, dlogits = softmax_cross_entropy(logits, labels)
        if not np.isfinite(loss):
            raise TrainingDiverged(f"loss became non-finite at step {step}")
        log.append(TrainRecord(step=step, loss=loss))
        model.backward(dlogits[:, :, None, None])
        model.apply_gradients(lr)
    return log
