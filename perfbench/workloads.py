"""The benchmark's workloads: set-up, one timed operation, and output checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. Inputs come from the seed alone; fastblocks
receives only the generated inputs.

- train_demo: full-batch training steps of demo-fasternet-nam.cfg on the
  256 x 1 x 16 x 16 synthetic set. Small maps, large batch, forward and
  backward through tensor_ops, blocks and attention.
- infer_640_yolov5s / infer_640_improved: eval-mode forward at batch 1,
  3 x 640 x 640. Big maps, no backward, a 1-1.7 GB working set. yolov5s-like
  has no fasternet or NAM layers, so it bypasses blocks and attention: a
  gain there should leave infer_640_yolov5s flat.
- map_eval: load a seeded annotation set from files and evaluate it over the
  ten IoU thresholds, the path of `fastblocks evaluate --range`. Pure-Python
  metrics work; the tensor stack is idle.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np

import annotations
import oracle

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "src" / "fastblocks" / "configs"
OUT = ROOT / ".perfbench-out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Reference values hold for the seeds recorded in reference.json. Float64
# results may differ in the last bits between BLAS kernels, never by more.
REL_TOL = 1e-9
# Training steps whose losses are recorded per seed.
REFERENCE_STEPS = 10


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(1.0, abs(expected))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}


class Workload:
    name = ""
    # Name of the end-to-end timing this workload's operation reports.
    metric = ""
    unit_of_work = "operation"

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.reference = reference.get(self.name, {}).get(str(seed))

    def setup(self, tracer=None) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, result) -> str | None:
        """An error message when the operation's output is wrong."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks once the timed loop is over."""
        return []

    def observed(self):
        """The value reference.json records for this seed."""
        raise NotImplementedError

    def input_record(self) -> dict:
        return {}


class _ModelWorkload(Workload):
    """Shared by the workloads that run a model built from a bundled config."""

    config_name = ""
    batch = 1

    def _build(self, tracer) -> None:
        from fastblocks import complexity, config, model

        self.graph = config.load_model_config(CONFIGS / self.config_name)
        self.report = complexity.analyze_graph(self.graph)
        self.model = model.build_model(self.graph, seed=self.seed)
        if tracer is not None:
            self._label(tracer)

    def _label(self, tracer) -> None:
        """Tell the tracer which analyze_graph row each layer object is."""
        row_ids = {row.layer_id for row in self.report.rows}
        for idx, (node, item) in enumerate(zip(self.graph.layers, self.model.items)):
            layer_id = f"{idx:03d}:{node.kind}"
            if node.kind != "residual_end" and layer_id in row_ids:
                tracer.layer_ids[id(item)] = layer_id
        tracer.residual_ids = [row.layer_id for row in self.report.rows if row.layer_kind == "residual_add"]

    def static_macs(self) -> int:
        """analyze_graph counts one sample; every op here is linear in the batch."""
        return self.batch * self.report.total_flops

    def row_check(self, rows: dict) -> list[str]:
        """Traced per-row MACs of one operation against analyze_graph."""
        errors = []
        for row in self.report.rows:
            measured = rows.get(row.layer_id, {}).get("macs")
            if measured != self.batch * row.flops:
                errors.append(f"row {row.layer_id}: traced MACs {measured} != static {self.batch * row.flops}")
        total = sum(r["macs"] for r in rows.values())
        if total != self.static_macs():
            errors.append(f"traced MACs per op {total} != analyze_graph total {self.static_macs()}")
        return errors

    def retained_mb(self) -> float:
        """Memory still held once a forward returns, output excluded."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = self.model.forward(self.x, training=self.training)
            held = tracemalloc.get_traced_memory()[0] - before - out.nbytes
        finally:
            tracemalloc.stop()
        return held / 2**20


class TrainDemo(_ModelWorkload):
    name = "train_demo"
    metric = "train_step_s"
    unit_of_work = "training step"
    config_name = "demo-fasternet-nam.cfg"
    batch = 256
    training = True
    LR = 0.05

    def setup(self, tracer=None) -> None:
        from fastblocks import model

        self._build(tracer)
        self.x, self.labels = model.synthetic_dataset(self.graph.input_shape, n_samples=self.batch, seed=self.seed)
        # Warm-up without the update: only BN running statistics move, and
        # training-mode outputs do not read them, so the loss log is unchanged.
        self._step(update=False)
        self.losses: list[float] = []

    def _step(self, update: bool) -> float:
        from fastblocks import model

        logits = self.model.forward(self.x, training=True)[:, :, 0, 0]
        loss, dlogits = model.softmax_cross_entropy(logits, self.labels)
        self.model.backward(dlogits[:, :, None, None])
        if update:
            self.model.apply_gradients(self.LR)
        return loss

    def op(self):
        return self._step(update=True)

    def check(self, loss) -> str | None:
        step = len(self.losses)
        self.losses.append(loss)
        if not math.isfinite(loss):
            return f"step {step + 1}: loss is not finite ({loss})"
        if self.reference is not None and step < len(self.reference) and not _close(loss, self.reference[step]):
            return f"step {step + 1}: loss {loss!r} != reference {self.reference[step]!r}"
        return None

    def finish(self) -> list[str]:
        if len(self.losses) >= 2 and not self.losses[-1] < self.losses[0]:
            return [f"final loss {self.losses[-1]} is not below the first {self.losses[0]}"]
        return []

    def observed(self):
        return [self.op() for _ in range(REFERENCE_STEPS)]

    def input_record(self) -> dict:
        return {"config": self.config_name, "samples": list(self.x.shape), "lr": self.LR}


class Infer640(_ModelWorkload):
    unit_of_work = "forward pass"
    training = False

    def setup(self, tracer=None) -> None:
        self._build(tracer)
        self.x = np.random.default_rng(self.seed).standard_normal((1, *self.graph.input_shape))
        self.model.forward(self.x, training=False)

    def op(self):
        from fastblocks.tensor_ops import count_macs

        with count_macs() as counter:
            out = self.model.forward(self.x, training=False)
        return out, counter.macs

    @staticmethod
    def checksum(out: np.ndarray) -> list[float]:
        return [float(out.sum()), float(np.square(out).sum())]

    def check(self, result) -> str | None:
        out, macs = result
        if macs != self.static_macs():
            return f"count_macs {macs} != analyze_graph total {self.static_macs()}"
        if not np.isfinite(out).all():
            return "output holds non-finite values"
        if self.reference is not None:
            got = self.checksum(out)
            if not all(_close(g, r) for g, r in zip(got, self.reference)):
                return f"output checksum {got} != reference {self.reference}"
        return None

    def observed(self):
        return self.checksum(self.op()[0])

    def input_record(self) -> dict:
        return {"config": self.config_name, "input": list(self.x.shape), "static_macs": self.static_macs()}


class InferYolov5s(Infer640):
    name = "infer_640_yolov5s"
    metric = "infer_yolov5s_s"
    config_name = "yolov5s-like.cfg"


class InferImproved(Infer640):
    name = "infer_640_improved"
    metric = "infer_improved_s"
    config_name = "improved-like.cfg"


class MapEval(Workload):
    name = "map_eval"
    metric = "map_eval_s"
    unit_of_work = "load + evaluate"
    # Images in the brute-force cross-check, drawn from the seed.
    ORACLE_IMAGES = 120

    def setup(self, tracer=None) -> None:
        self.annotations = annotations.generate(self.seed)
        self.gt_path, self.det_path = annotations.write(self.annotations, OUT / f"map_eval-seed{self.seed}")
        # No warm-up call: there is no model, and evaluate has no lazy state.
        self.first = None

    def op(self):
        from fastblocks import metrics

        gts = metrics.load_ground_truths(self.gt_path)
        dets = metrics.load_detections(self.det_path)
        return metrics.evaluate(dets, gts, metrics.RANGE_THRESHOLDS)

    @staticmethod
    def summary(result) -> list[float]:
        return [result.map50, result.map5095, result.dataset_precision, result.dataset_recall]

    def check(self, result) -> str | None:
        aps = [ap for per_t in result.per_category_ap.values() for ap in per_t.values()]
        if not all(0.0 <= ap <= 1.0 for ap in aps):
            return f"an AP lies outside [0, 1]: {aps}"
        got = self.summary(result)
        if self.first is None:
            self.first = got
        elif got != self.first:
            return f"evaluate is not repeatable: {got} != {self.first}"
        if self.reference is not None and not all(_close(g, r) for g, r in zip(got, self.reference)):
            return f"map50/map5095/precision/recall {got} != reference {self.reference}"
        return None

    def finish(self) -> list[str]:
        """evaluate on a seeded image subset against the brute-force oracle."""
        from fastblocks import metrics

        subset = self.annotations.sample(self.seed, self.ORACLE_IMAGES)
        gts, dets = subset.ground_truths, subset.detections
        result = metrics.evaluate(
            [metrics.Detection(r[0], r[1], metrics.BBox(*r[2:6]), r[6]) for r in dets],
            [metrics.GroundTruth(r[0], r[1], metrics.BBox(*r[2:6])) for r in gts],
            metrics.RANGE_THRESHOLDS,
        )
        expected = oracle.per_category_ap(dets, gts, metrics.RANGE_THRESHOLDS)
        errors = []
        for cat, per_t in expected.items():
            for t, ap in per_t.items():
                got = result.per_category_ap[cat][t]
                if abs(got - ap) > 1e-12:
                    errors.append(f"category {cat} IoU {t:.2f}: evaluate AP {got!r} != brute-force {ap!r}")
        return errors

    def observed(self):
        return self.summary(self.op())

    def input_record(self) -> dict:
        return self.annotations.stats()


WORKLOADS = {w.name: w for w in (TrainDemo, InferYolov5s, InferImproved, MapEval)}
