"""Spans around calls into fastblocks, recorded from outside the package.

`Tracer.install()` replaces each measured function with a wrapper wherever a
fastblocks module holds a reference to it (for example `layers.py` imports
`conv2d` from `tensor_ops` into its own namespace, so both names are
patched), and wraps the `forward`/`backward` methods of every layer class and
of `Model`. The returned function puts every original back.

A span is (name, start, end, parent). Spans are kept in memory and written as
JSON once the run ends. Each wrapper also opens a `count_macs()` scope, so a
span carries the multiply-accumulates the package itself reported inside it.
The benchmark opens one root span per timed operation ("op") and per traced
set-up ("setup"); spans of one operation share its root.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from stats import self_times

# module -> functions measured as spans.
SPAN_FUNCTIONS = {
    "tensor_ops": (
        "conv2d", "conv2d_grad", "batchnorm", "batchnorm_grad", "batchnorm_grad_eval",
        "relu", "relu_grad", "sigmoid", "elementwise_mul", "residual_add",
    ),
    "blocks": ("pconv", "pconv_grad", "pwconv", "pwconv_grad", "fasternet_block_forward", "fasternet_block_grad"),
    "attention": ("nam_channel_forward", "nam_channel_grad", "nam_spatial_forward", "nam_spatial_grad"),
    "model": ("build_model", "synthetic_dataset", "softmax_cross_entropy"),
    "config": ("load_model_config",),
    "complexity": ("analyze_graph",),
    "metrics": ("load_ground_truths", "load_detections", "evaluate", "match_detections", "pr_curve", "average_precision"),
}

# Backward kernels report no MACs to count_macs; their work is computed from
# the operand shapes: one MAC per multiply in the implemented formula.
COMPUTED_MACS = {
    # input and kernel gradients each repeat the forward's MACs
    "tensor_ops.conv2d_grad": lambda x, kernel, spec, g: 2 * g.shape[0] * g.shape[2] * g.shape[3] * kernel.size,
    # xhat, gamma grad, dxhat, m*dxhat, dxhat*xhat, xhat*sum, final scale
    "tensor_ops.batchnorm_grad": lambda x, *rest: 7 * x.size,
    "tensor_ops.relu_grad": lambda x, g: x.size,
    "blocks.pwconv_grad": lambda x, w, g: 2 * x.shape[0] * x.shape[2] * x.shape[3] * w.size,
    "blocks.pconv_grad": lambda x, w, spec, g: 2 * x.shape[0] * x.shape[2] * x.shape[3] * w.size,
}


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


class Span:
    __slots__ = ("name", "start", "end", "parent", "macs", "bytes", "layer_id")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.macs = self.bytes = 0
        self.layer_id = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # id(layer object) -> analyze_graph layer_id, filled by the workload.
        self.layer_ids: dict[int, str] = {}
        # analyze_graph layer_ids of the residual_end rows, in graph order.
        self.residual_ids: list[str] = []
        # iou calls and distinct (detection, ground truth) pairs, summed over ops.
        self.iou_calls = 0
        self.iou_unique_pairs = 0
        self._root_iou_calls = 0
        self._pairs: set[tuple[int, int]] = set()

    @contextmanager
    def root(self, name: str):
        """A root span around one timed operation ("op") or one set-up ("setup")."""
        rec = Span(name, None)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        self._pairs.clear()
        self._root_iou_calls = 0
        rec.start = perf_counter()
        try:
            yield
        finally:
            rec.end = perf_counter()
            self._stack.pop()
            if name == "op":
                self.iou_calls += self._root_iou_calls
                self.iou_unique_pairs += len(self._pairs)

    def wrap(self, name: str, fn, *, count_bytes: bool = False, layer: bool = False):
        from fastblocks.tensor_ops import count_macs

        spans, stack = self.spans, self._stack
        computed = COMPUTED_MACS.get(name)

        def traced(*args, **kwargs):
            rec = Span(name, stack[-1] if stack else None)
            spans.append(rec)
            stack.append(len(spans) - 1)
            with count_macs() as counter:
                rec.start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end = perf_counter()
                    stack.pop()
            rec.macs = computed(*args) if computed else counter.macs
            if count_bytes:
                rec.bytes = _nbytes(args) + _nbytes(result)
            if layer:
                rec.layer_id = self.layer_ids.get(id(args[0]))
            return result

        return traced

    def _count_iou(self, fn):
        pairs = self._pairs

        def counted(a, b):
            self._root_iou_calls += 1
            pairs.add((id(a), id(b)))
            return fn(a, b)

        return counted

    def install(self):
        """Patch the package; returns a function that restores it."""
        from fastblocks import layers, model

        modules = [m for name, m in list(sys.modules.items()) if name == "fastblocks" or name.startswith("fastblocks.")]
        replaced: list[tuple[object, str, object]] = []

        def patch_everywhere(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, value))
                        setattr(module, attr, wrapper)

        for short, names in SPAN_FUNCTIONS.items():
            module = sys.modules[f"fastblocks.{short}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self.wrap(f"{short}.{fname}", original, count_bytes=short == "tensor_ops")
                patch_everywhere(original, wrapper)
        metrics = sys.modules["fastblocks.metrics"]
        patch_everywhere(metrics.iou, self._count_iou(metrics.iou))

        layer_classes = [c for c in vars(layers).values() if isinstance(c, type) and issubclass(c, layers.Layer) and c is not layers.Layer]
        for cls in layer_classes:
            for meth in ("forward", "backward"):
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    replaced.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(f"layers.{cls.kind}.{meth}", original, layer=True))
        for meth in ("forward", "backward", "apply_gradients"):
            original = vars(model.Model)[meth]
            replaced.append((model.Model, meth, original))
            setattr(model.Model, meth, self.wrap(f"model.{meth}", original))

        def restore():
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)

        return restore

    # ------------------------------------------------------------ analysis

    def summary(self) -> dict:
        """Per-name totals under "op" roots and under "setup" roots, per-row
        layer totals joined on analyze_graph layer_id, and the op count."""
        spans = self.spans
        durations = [s.end - s.start for s in spans]
        own = self_times(durations, [s.parent for s in spans])
        root = []
        for i, s in enumerate(spans):
            root.append(i if s.parent is None else root[s.parent])
        ops = [i for i, s in enumerate(spans) if s.parent is None and s.name == "op"]
        n_ops = max(len(ops), 1)
        by_phase: dict[str, dict[str, dict]] = {"op": {}, "setup": {}}
        rows: dict[str, dict] = {}
        residual_rank: dict[int, int] = {}
        for i, s in enumerate(spans):
            if s.parent is None:
                continue
            phase = spans[root[i]].name
            entry = by_phase[phase].setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "macs": 0, "bytes_computed": 0})
            entry["calls"] += 1
            entry["self_s"] += own[i]
            entry["total_s"] += durations[i]
            entry["macs"] += s.macs
            entry["bytes_computed"] += s.bytes
            if phase != "op":
                continue
            layer_id, kind, direction = s.layer_id, None, None
            if s.name.startswith("layers."):
                _, kind, direction = s.name.split(".")
            elif s.name == "tensor_ops.residual_add" and spans[s.parent].name == "model.forward":
                # The k-th join inside a model forward is the k-th residual_end row.
                k = residual_rank.get(s.parent, 0)
                residual_rank[s.parent] = k + 1
                layer_id, kind, direction = self.residual_ids[k], "residual_add", "forward"
            if layer_id is None:
                continue
            row = rows.setdefault(layer_id, {"kind": kind, "forward_s": 0.0, "backward_s": 0.0, "macs": 0})
            row[f"{direction}_s"] += durations[i]
            if direction == "forward":
                row["macs"] += s.macs
        for row in rows.values():
            row["macs"] /= n_ops  # exact while ops repeat the same work; a fraction shows they did not
            row["forward_s"] /= n_ops
            row["backward_s"] /= n_ops
        return {
            "ops": len(ops),
            "op_total_s": sum(durations[i] for i in ops),
            "functions": by_phase["op"],
            "setup_functions": by_phase["setup"],
            "rows": rows,
        }

    def write(self, path: Path, extra: dict) -> None:
        spans = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "macs": s.macs, "bytes": s.bytes, **({"layer_id": s.layer_id} if s.layer_id else {})}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": spans}), encoding="utf-8")


TENSOR_OPS = ("conv2d", "conv2d_grad", "batchnorm", "batchnorm_grad", "relu", "sigmoid", "residual_add")
BLOCKS = ("pconv", "pconv_grad", "pwconv", "pwconv_grad")
ATTENTION = ("nam_channel_forward", "nam_channel_grad", "nam_spatial_forward", "nam_spatial_grad")
LAYER_KINDS = ("conv", "bn", "relu", "fasternet", "nam_channel", "nam_spatial", "gap_head", "residual_add")
METRICS = ("load_ground_truths", "load_detections", "match_detections", "pr_curve", "average_precision")
SETUP = ("model.build_model", "model.synthetic_dataset", "config.load_model_config", "complexity.analyze_graph")


def layer_metrics(summary: dict, iou_calls: int, iou_unique_pairs: int) -> dict[str, float]:
    """Per-layer values from a trace summary, each per timed operation.

    Times are seconds per operation; set-up functions (`<name>.s`) are
    seconds in the one traced set-up. `gmac_per_s` divides a span's MACs by
    its whole duration, children included, so a wrapper such as `pconv` is
    rated by the convolution it delegates to.
    """
    n = max(summary["ops"], 1)
    funcs, setup = summary["functions"], summary["setup_functions"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "macs": 0, "bytes_computed": 0}
    out: dict[str, float] = {}

    def function(prefix: str, name: str, quantities: tuple[str, ...]):
        e = funcs.get(f"{prefix}.{name}", empty)
        values = {
            "calls": e["calls"] / n,
            "self_s": e["self_s"] / n,
            "macs": e["macs"] / n,
            "gmac_per_s": e["macs"] / e["total_s"] / 1e9 if e["total_s"] else 0.0,
            "bytes_computed": e["bytes_computed"] / n,
        }
        for q in quantities:
            out[f"{prefix}.{name}.{q}"] = values[q]

    for name in TENSOR_OPS:
        function("tensor_ops", name, ("calls", "self_s", "macs", "gmac_per_s", "bytes_computed"))
    for name in BLOCKS:
        function("blocks", name, ("calls", "self_s", "macs", "gmac_per_s"))
    for name in ATTENTION:
        function("attention", name, ("calls", "self_s"))
    for name in METRICS:
        function("metrics", name, ("calls", "self_s"))
    for name in ("softmax_cross_entropy", "apply_gradients"):
        function("model", name, ("self_s",))
    for direction in ("forward", "backward"):
        out[f"model.{direction}_s"] = funcs.get(f"model.{direction}", empty)["total_s"] / n

    for kind in LAYER_KINDS:
        rows = [r for r in summary["rows"].values() if r["kind"] == kind]
        fwd = sum(r["forward_s"] for r in rows)
        macs = sum(r["macs"] for r in rows)
        out[f"layers.{kind}.forward_s"] = fwd
        out[f"layers.{kind}.backward_s"] = sum(r["backward_s"] for r in rows)
        out[f"layers.{kind}.macs"] = macs
        out[f"layers.{kind}.gmac_per_s"] = macs / fwd / 1e9 if fwd else 0.0

    for name in SETUP:
        out[f"{name}.s"] = setup.get(name, empty)["total_s"]

    out["metrics.iou.calls"] = iou_calls / n
    out["metrics.iou.unique_pair_ratio"] = iou_unique_pairs / iou_calls if iou_calls else 0.0
    return out
