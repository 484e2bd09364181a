"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import annotations  # noqa: E402
import oracle  # noqa: E402
from stats import self_times, tail  # noqa: E402


def test_tail_needs_eleven_samples():
    assert tail([1.0] * 10) is None
    assert tail([float(v) for v in range(11)]) == (9, 0.0)


@pytest.mark.parametrize("n", [11, 12, 19, 20, 37, 55, 100, 1000, 1234])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    values = [float(v) for v in range(n)]  # value v has n - 1 - v samples beyond it
    q, value = tail(list(reversed(values)))
    assert n - 1 - value >= 10
    # one percentile higher would leave fewer than ten beyond
    rank_above = -(-(q + 1) * n // 100)
    assert n - rank_above < 10


def test_tail_examples():
    values = [float(v) for v in range(1, 101)]
    assert tail(values) == (90, 90.0)
    assert tail([float(v) for v in range(1, 21)]) == (50, 10.0)


def test_self_time_subtracts_direct_children_only():
    # root(10) -> a(4) -> a1(1); root -> b(3)
    durations = [10.0, 4.0, 1.0, 3.0]
    parents = [None, 0, 1, 0]
    assert self_times(durations, parents) == [3.0, 3.0, 1.0, 3.0]
    assert sum(self_times(durations, parents)) == durations[0]


def test_generator_is_deterministic_per_seed(tmp_path):
    a = annotations.generate(7)
    b = annotations.generate(7)
    c = annotations.generate(8)
    assert a == b
    assert a != c
    paths_a = annotations.write(a, tmp_path / "a")
    paths_b = annotations.write(b, tmp_path / "b")
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_generator_files_hold_the_returned_values(tmp_path):
    ann = annotations.generate(3)
    gt_path, det_path = annotations.write(ann, tmp_path)
    gts = [(f[0], int(f[1]), *map(float, f[2:])) for f in (line.split() for line in gt_path.read_text().splitlines())]
    dets = [(f[0], int(f[1]), *map(float, f[2:])) for f in (line.split() for line in det_path.read_text().splitlines())]
    assert gts == ann.ground_truths
    assert dets == ann.detections


def test_full_set_matches_the_stated_shape():
    stats = annotations.generate(0).stats()
    assert stats["images"] == 2000
    assert stats["categories"] == 5
    assert 7500 <= stats["ground_truths"] <= 8500
    assert 31000 <= stats["detections"] <= 37000
    assert 120 <= stats["images_with_30_gt"] <= 220


def test_oracle_agrees_with_evaluate_on_a_small_set():
    from fastblocks import metrics

    ann = annotations.generate(5).sample(5, 60)
    result = metrics.evaluate(
        [metrics.Detection(r[0], r[1], metrics.BBox(*r[2:6]), r[6]) for r in ann.detections],
        [metrics.GroundTruth(r[0], r[1], metrics.BBox(*r[2:6])) for r in ann.ground_truths],
        metrics.RANGE_THRESHOLDS,
    )
    expected = oracle.per_category_ap(ann.detections, ann.ground_truths, metrics.RANGE_THRESHOLDS)
    assert expected == result.per_category_ap


def test_traced_rows_join_analyze_graph():
    import numpy as np
    from fastblocks import complexity, config, model

    from spans import Tracer

    graph = config.parse_model_config(
        "input 4 8 8\nconv cin=4 cout=8 k=3 p=1\nbn c=8\nresidual_begin\nrelu\nresidual_end\n"
        "fasternet c=8 cp=2\nnam_channel c=8\n"
    )
    report = complexity.analyze_graph(graph)
    net = model.build_model(graph, seed=0)
    tracer = Tracer()
    for idx, (node, item) in enumerate(zip(graph.layers, net.items)):
        if node.kind not in ("residual_begin", "residual_end"):
            tracer.layer_ids[id(item)] = f"{idx:03d}:{node.kind}"
    tracer.residual_ids = [r.layer_id for r in report.rows if r.layer_kind == "residual_add"]
    restore = tracer.install()
    try:
        with tracer.root("op"):
            net.forward(np.ones((2, 4, 8, 8)), training=True)
    finally:
        restore()
    assert model.Model.forward.__name__ == "forward"  # originals are back
    rows = tracer.summary()["rows"]
    assert {r.layer_id: 2 * r.flops for r in report.rows} == {k: v["macs"] for k, v in rows.items()}
