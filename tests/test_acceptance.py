"""Acceptance checks for the package: nine criteria, each with its stated
tolerance and runtime budget.

Each test prints exactly one `criterion N: PASS/FAIL` line (run with `-s` to
see them as they happen). A criterion fails if its assertions fail or if it
exceeds its runtime budget.
"""

import json
import math
import re
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from fastblocks.attention import nam_weights
from fastblocks.blocks import PConvSpec, pconv
from fastblocks.cli import cli_dispatch
from fastblocks.complexity import analyze_graph
from fastblocks.config import parse_model_config
from fastblocks.gradcheck import gradcheck, standard_suite
from fastblocks.layers import NAMChannel, NAMSpatial
from fastblocks.metrics import (
    BBox,
    Detection,
    GroundTruth,
    average_precision,
    evaluate,
    match_detections,
    pr_curve,
)
from fastblocks.model import build_model
from fastblocks.tensor_ops import BNParams, ConvSpec, conv2d, count_macs

from test_metrics import ap_oracle


@contextmanager
def criterion(num: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"criterion {num}: FAIL  {label} (runtime {elapsed:.2f}s, budget {budget_s:.0f}s)")
        raise AssertionError(f"criterion {num} exceeded its runtime budget: {elapsed:.2f}s >= {budget_s}s")
    timing = f" ({elapsed:.2f}s < {budget_s:.0f}s)" if budget_s is not None else ""
    print(f"criterion {num}: PASS  {label}{timing}")


# ------------------------------------------------------------ criterion 1


def _random_layer_source(kind: str, rng) -> str | None:
    """One-layer config text with randomized shapes, or None when the draw
    violates a shape constraint (caller redraws)."""
    c = int(rng.integers(1, 9))
    h = int(rng.integers(1, 8))
    w = int(rng.integers(1, 8))
    k = int(rng.choice([1, 3, 5]))
    if kind == "conv":
        s = int(rng.choice([1, 2]))
        p = int(rng.integers(0, 3))
        h = (int(rng.integers(1, 6)) - 1) * s + k - 2 * p
        w = (int(rng.integers(1, 6)) - 1) * s + k - 2 * p
        if h < 1 or w < 1:
            return None
        line = f"conv cin={c} cout={int(rng.integers(1, 9))} k={k} s={s} p={p}"
    elif kind == "pconv":
        line = f"pconv c={c} cp={int(rng.integers(1, c + 1))} k={k}"
    elif kind == "pwconv":
        line = f"pwconv cin={c} cout={int(rng.integers(1, 13))}"
    elif kind == "bn":
        line = f"bn c={c}"
    elif kind == "relu":
        line = "relu"
    elif kind == "fasternet":
        line = f"fasternet c={c} cp={int(rng.integers(1, c + 1))} k={k} e={int(rng.integers(1, 4))}"
    elif kind == "nam_channel":
        line = f"nam_channel c={c}"
    elif kind == "nam_spatial":
        line = f"nam_spatial c={c} h={h} w={w}"
    elif kind == "residual":
        line = "residual_begin\nrelu\nresidual_end"
    elif kind == "gap_head":
        line = f"gap_head classes={int(rng.integers(1, 6))}"
    else:
        raise ValueError(kind)
    return f"input {c} {h} {w}\n{line}\n"


def test_criterion_1_static_flops_equal_instrumented_macs():
    kinds = ("conv", "pconv", "pwconv", "bn", "relu", "fasternet",
             "nam_channel", "nam_spatial", "residual", "gap_head")
    rng = np.random.default_rng(41)
    with criterion(1, "static FLOPs == instrumented MACs on 20 random shapes per layer kind", 30.0):
        for kind in kinds:
            done = 0
            while done < 20:
                source = _random_layer_source(kind, rng)
                if source is None:
                    continue
                graph = parse_model_config(source)
                static = analyze_graph(graph).total_flops
                model = build_model(graph, seed=done)
                c, h, w = graph.input_shape
                x = rng.standard_normal((1, c, h, w))
                with count_macs() as counter:
                    model.forward(x, training=True)
                assert counter.macs == static, (
                    f"{kind}: instrumented {counter.macs} != static {static}\n{source}"
                )
                done += 1


# ------------------------------------------------------------ criterion 2


def test_criterion_2_pconv_cost_is_square_of_partial_ratio():
    with criterion(2, "measured pconv/full-conv MAC ratio == (c_p/c)^2 for all c<=64, k in {1,3,5}", 10.0):
        x = np.ones((1, 64, 1, 1))
        full_w = np.ones((64, 64, 5, 5))
        for c in range(1, 65):
            for k in (1, 3, 5):
                with count_macs() as full_counter:
                    conv2d(x[:, :c], full_w[:c, :c, :k, :k],
                           None, ConvSpec(c, c, k, 1, (k - 1) // 2))
                for cp in range(1, c + 1):
                    with count_macs() as counter:
                        pconv(x[:, :c], full_w[:cp, :cp, :k, :k], PConvSpec(c, cp, k))
                    assert Fraction(counter.macs, full_counter.macs) == Fraction(cp, c) ** 2, (
                        f"c={c} cp={cp} k={k}: {counter.macs}/{full_counter.macs}"
                    )


# ------------------------------------------------------------ criterion 3


def test_criterion_3_pconv_passthrough_and_full_width():
    rng = np.random.default_rng(43)
    with criterion(3, "pass-through channels bit-identical; c_p=c matches conv2d within 1e-6 (50 inputs)", 10.0):
        for _ in range(50):
            c = int(rng.integers(2, 9))
            h = int(rng.integers(1, 9))
            w = int(rng.integers(1, 9))
            k = int(rng.choice([1, 3, 5]))
            x = rng.standard_normal((2, c, h, w))

            cp = int(rng.integers(1, c))
            out = pconv(x, rng.standard_normal((cp, cp, k, k)), PConvSpec(c, cp, k))
            assert np.array_equal(out[:, cp:], x[:, cp:])

            spec = PConvSpec(c, c, k)
            weights = rng.standard_normal((c, c, k, k))
            reference = conv2d(x, weights, None, spec.conv_spec())
            assert np.max(np.abs(pconv(x, weights, spec) - reference)) < 1e-6


# ------------------------------------------------------------ criterion 4


def test_criterion_4_gradient_suite():
    required = ("conv2d", "batchnorm", "pwconv", "pconv", "fasternet",
                "nam_channel", "nam_spatial", "composite")
    with criterion(4, "all 8 backward passes pass central finite differences at < 1e-4", 60.0):
        reports = [gradcheck(unit, input_seed=0, tolerance=1e-4) for unit in standard_suite(0)]
        assert len(reports) == 8
        names = [r.unit_name for r in reports]
        for fragment in required:
            assert any(fragment in name for name in names), f"no unit named after {fragment}"
        for report in reports:
            assert report.passed and report.max_rel_error < 1e-4, str(report)


# ------------------------------------------------------------ criterion 5


def _json_command(capsys, *argv):
    assert cli_dispatch(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_5_cost_ratio_reproduction(capsys):
    with criterion(5, "compare deltas within 10 points of 26.61/17.82 and 25.12/10.63; baseline within 15%", 5.0):
        fast = _json_command(capsys, "compare", "yolov5s-like.cfg", "fasternet-head-like.cfg", "--json")
        assert abs(fast["param_delta_pct"] - 26.61) <= 10.0, fast["param_delta_pct"]
        assert abs(fast["flops_delta_pct"] - 17.82) <= 10.0, fast["flops_delta_pct"]

        improved = _json_command(capsys, "compare", "yolov5s-like.cfg", "improved-like.cfg", "--json")
        assert abs(improved["param_delta_pct"] - 25.12) <= 10.0, improved["param_delta_pct"]
        assert abs(improved["flops_delta_pct"] - 10.63) <= 10.0, improved["flops_delta_pct"]

        base = _json_command(capsys, "analyze", "yolov5s-like.cfg", "--json")
        assert abs(base["total_params"] - 7_102_000) / 7_102_000 <= 0.15, base["total_params"]
        assert abs(base["total_flops"] - 14_822_000_000) / 14_822_000_000 <= 0.15, base["total_flops"]


# ------------------------------------------------------------ criterion 6


def _random_bn(rng, units: int) -> BNParams:
    return BNParams(
        gamma=rng.uniform(0.2, 2.0, units) * rng.choice([-1.0, 1.0], units),
        beta=rng.uniform(-0.5, 0.5, units),
        running_mean=rng.uniform(-0.5, 0.5, units),
        running_var=rng.uniform(0.5, 2.0, units),
    )


def test_criterion_6_nam_weight_and_gate_properties():
    rng = np.random.default_rng(46)
    with criterion(6, "weight normalization and gate bounds over 1,000 vectors / 100 tensors", 10.0):
        for _ in range(1000):
            gamma = rng.uniform(0.2, 3.0, int(rng.integers(1, 33))) * rng.choice([-1.0, 1.0])
            weights = nam_weights(gamma)
            assert abs(weights.sum() - 1.0) <= 1e-9
            scale = float(rng.uniform(0.1, 100.0)) * float(rng.choice([-1.0, 1.0]))
            assert np.max(np.abs(nam_weights(scale * gamma) - weights)) <= 1e-9

        for i in range(100):
            n = int(rng.integers(1, 4))
            c = int(rng.integers(1, 9))
            h = int(rng.integers(1, 7))
            w = int(rng.integers(1, 7))
            x = rng.standard_normal((n, c, h, w)) * float(rng.uniform(0.5, 3.0))
            training = i % 4 < 2
            gate = NAMChannel(c) if i % 2 == 0 else NAMSpatial(h, w)
            gate.bn = _random_bn(rng, gate.bn.channels)
            out = gate.forward(x, training)
            assert out.shape == x.shape
            assert np.all(np.abs(out) <= np.abs(x))


# ------------------------------------------------------------ criterion 7


def _random_box(rng) -> BBox:
    x1 = float(rng.uniform(0, 10))
    y1 = float(rng.uniform(0, 10))
    return BBox(x1, y1, x1 + float(rng.uniform(1, 5)), y1 + float(rng.uniform(1, 5)))


def test_criterion_7_average_precision_matches_oracle():
    rng = np.random.default_rng(47)
    with criterion(7, "AP equals the brute-force 101-point oracle on 200 instances + fixed cases", 20.0):
        for _ in range(200):
            gts = [GroundTruth(str(rng.integers(0, 2)), 0, _random_box(rng))
                   for _ in range(int(rng.integers(0, 6)))]
            dets = [Detection(str(rng.integers(0, 2)), 0, _random_box(rng), float(rng.uniform(0.05, 1.0)))
                    for _ in range(int(rng.integers(0, 9)))]
            (labels,), _ = match_detections(dets, gts, (0.5,))
            got = average_precision(pr_curve(labels, len(gts)))
            assert got == ap_oracle(labels, len(gts))

        gts = [GroundTruth("a", 0, BBox(0, 0, 5, 5)), GroundTruth("a", 0, BBox(6, 0, 9, 4)),
               GroundTruth("b", 1, BBox(1, 1, 3, 3))]
        perfect = [Detection(g.image_id, g.category, g.box, 1.0) for g in gts]
        assert evaluate(perfect, gts, (0.5,)).map50 == 1.0

        assert average_precision(pr_curve([], 5)) == 0.0

        precision, recall = pr_curve([True] * 9 + [False], total_gt=10)[-1]
        assert precision == 0.9 and recall == 0.9


# ------------------------------------------------------------ criterion 8


def test_criterion_8_demo_training_halves_the_loss(capsys):
    with criterion(8, "train-demo 200 steps reaches <= 50% of the initial loss, all finite", 120.0):
        code = cli_dispatch(["train-demo", "demo-fasternet-nam.cfg",
                             "--steps", "200", "--lr", "0.05", "--seed", "7"])
        out = capsys.readouterr().out
        # a non-finite loss at any step raises TrainingDiverged -> exit 1,
        # so exit 0 already certifies every step
        assert code == 0
        summary = re.search(r"initial loss ([0-9.eE+-]+) -> final loss ([0-9.eE+-]+)", out)
        assert summary is not None, out
        initial, final = float(summary.group(1)), float(summary.group(2))
        assert math.isfinite(initial) and math.isfinite(final)
        assert final <= 0.5 * initial, f"final {final} vs initial {initial}"


# ------------------------------------------------------------ criterion 9


def test_criterion_9_accuracy_claims_marked_not_reproduced():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    with criterion(9, "README states the published accuracy figures are not reproduced here"):
        text = readme.read_text()
        for token in ("0.979", "0.981", "0.988", "0.874", "48,409", "AARFOD"):
            assert token in text, f"README.md lacks {token!r}"
        plain = re.sub(r"[*_]", "", text).lower()  # markdown emphasis markers
        assert "not reproduce" in plain
