"""Tests for detection metrics: IoU, matching, PR curves, AP, mAP, file I/O.

`ap_oracle` below is a deliberately naive 101-point interpolation written
straight from the definition (for each recall level t in {0, 0.01, ..., 1},
take the best precision among curve points whose recall reaches t, average
the 101 samples). It shares no code with the library and is the reference
the fast implementation must match exactly.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastblocks import metrics
from fastblocks.config import parse_model_config
from fastblocks.errors import DegenerateInputError, ParseError, ValidationError
from fastblocks.metrics import (
    RANGE_THRESHOLDS,
    Annotations,
    BBox,
    Detection,
    GroundTruth,
    _match,
    _parse_lines,
    average_precision,
    evaluate,
    iou,
    load_detections,
    load_ground_truths,
    match_detections,
    parse_detection_lines,
    parse_ground_truth_lines,
    pr_curve,
)


def ap_oracle(labels, total_gt):
    """Brute-force 101-point interpolated AP from TP/FP labels."""
    points = []
    tp = 0
    for k, is_tp in enumerate(labels, start=1):
        tp += bool(is_tp)
        points.append((tp / k, tp / total_gt if total_gt > 0 else 0.0))
    total = 0.0
    for i in range(101):
        t = i / 100
        best = 0.0
        for p, r in points:
            if r >= t and p > best:
                best = p
        total += best
    return total / 101


def det(image, conf, box, category=0):
    return Detection(image, category, BBox(*box), conf)


def gt(image, box, category=0):
    return GroundTruth(image, category, BBox(*box))


UNIT = (0.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------- iou


class TestIoU:
    def test_identical_boxes(self):
        assert iou(BBox(0, 0, 2, 2), BBox(0, 0, 2, 2)) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)) == 0.0

    def test_touching_edges_count_as_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(1, 0, 2, 1)) == 0.0

    def test_hand_geometry(self):
        # intersection 1, union 4 + 4 - 1
        assert abs(iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) - 1.0 / 7.0) < 1e-12

    def test_symmetric_bounded_translation_invariant(self):
        def rand_box(rng):
            x1, x2 = np.sort(rng.uniform(0.0, 10.0, 2))
            y1, y2 = np.sort(rng.uniform(0.0, 10.0, 2))
            return BBox(float(x1), float(y1), float(x2) + 1e-3, float(y2) + 1e-3)

        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rand_box(rng), rand_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)
            dx, dy = rng.uniform(-5, 5, 2)
            a2 = BBox(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
            b2 = BBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
            assert abs(iou(a2, b2) - v) < 1e-9

    @pytest.mark.parametrize("position", ["x1", "y1", "x2", "y2"])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_box_validation(self, position, bad):
        with pytest.raises(ValidationError, match="positive area"):
            BBox(0, 0, 0, 1)  # zero width
        with pytest.raises(ValidationError, match="positive area"):
            BBox(0, 0, 1, -1)
        corners = {"x1": "0", "y1": "0", "x2": "10", "y2": "10", position: bad}
        with pytest.raises(ValidationError, match="finite"):
            BBox(**{name: float(value) for name, value in corners.items()})
        with pytest.raises(ParseError, match="finite") as err:
            parse_detection_lines(f"a 0 0 0 10 10 0.5\nb 0 {' '.join(corners.values())} 0.5\n")
        assert err.value.line == 2

    def test_confidence_validation(self):
        with pytest.raises(ValidationError):
            Detection("i", 0, BBox(*UNIT), 1.5)


# ---------------------------------------------------------------- matching


class TestMatching:
    def test_exact_detections_all_tp(self):
        gts = [gt("a", UNIT), gt("a", (5, 5, 6, 6))]
        dets = [det("a", 0.9, UNIT), det("a", 0.8, (5, 5, 6, 6))]
        (labels,), (fn,) = match_detections(dets, gts, (0.5,))
        assert labels == [True, True]
        assert fn == 0

    def test_no_detections_all_fn(self):
        (labels,), (fn,) = match_detections([], [gt("a", UNIT), gt("b", UNIT)], (0.5,))
        assert labels == []
        assert fn == 2

    def test_one_gt_two_overlapping_detections(self):
        gts = [gt("a", UNIT)]
        dets = [det("a", 0.9, UNIT), det("a", 0.8, UNIT)]
        (labels,), (fn,) = match_detections(dets, gts, (0.5,))
        assert labels == [True, False]
        assert fn == 0

    def test_labels_in_descending_confidence_order(self):
        gts = [gt("a", UNIT)]
        dets = [det("a", 0.3, UNIT), det("a", 0.9, (3, 3, 4, 4))]
        # highest confidence first: the off-target 0.9 det is FP, the 0.3 is TP
        (labels,), _ = match_detections(dets, gts, (0.5,))
        assert labels == [False, True]

    def test_confidence_ties_keep_input_order(self):
        gts = [gt("a", UNIT)]
        dets = [det("a", 0.5, UNIT), det("a", 0.5, UNIT)]
        (labels,), _ = match_detections(dets, gts, (0.5,))
        assert labels == [True, False]

    def test_iou_tie_takes_lowest_gt_index(self):
        # det0 overlaps gt0 and gt1 with identical IoU 0.6; the tie must go
        # to gt0, leaving gt0 taken when det1 (exactly gt0's box) arrives
        gts = [gt("a", (0, 0, 2, 2)), gt("a", (1, 0, 3, 2))]
        dets = [det("a", 0.9, (0.5, 0, 2.5, 2)), det("a", 0.8, (0, 0, 2, 2))]
        (labels,), (fn,) = match_detections(dets, gts, (0.5,))
        assert labels == [True, False]
        assert fn == 1

    def test_matching_is_per_image(self):
        gts = [gt("a", UNIT)]
        dets = [det("b", 0.9, UNIT)]  # same box, wrong image
        (labels,), (fn,) = match_detections(dets, gts, (0.5,))
        assert labels == [False]
        assert fn == 1

    def test_matching_is_per_category(self):
        (labels,), (fn,) = match_detections([det("a", 0.9, UNIT, category=1)], [gt("a", UNIT)], (0.5,))
        assert labels == [False]
        assert fn == 1

    def test_each_gt_claimed_once(self):
        gts = [gt("a", UNIT)]
        dets = [det("a", 0.9, UNIT), det("a", 0.8, UNIT), det("a", 0.7, UNIT)]
        (labels,), _ = match_detections(dets, gts, (0.5,))
        assert labels == [True, False, False]

    def test_threshold_validated(self):
        with pytest.raises(ValidationError):
            match_detections([], [], (0.0,))
        with pytest.raises(ValidationError):
            match_detections([], [], (1.1,))

    def test_lower_threshold_never_loses_tps(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gts = [
                gt("a", (x, y, x + rng.uniform(0.5, 2), y + rng.uniform(0.5, 2)))
                for x, y in rng.uniform(0, 6, (int(rng.integers(1, 5)), 2))
            ]
            dets = [
                det("a", float(rng.uniform(0.1, 1.0)), (x, y, x + rng.uniform(0.5, 2), y + rng.uniform(0.5, 2)))
                for x, y in rng.uniform(0, 6, (int(rng.integers(0, 7)), 2))
            ]
            tp_strict = sum(match_detections(dets, gts, (0.75,))[0][0])
            tp_loose = sum(match_detections(dets, gts, (0.5,))[0][0])
            assert tp_loose >= tp_strict


# ---------------------------------------------------------------- pr curve


class TestPrCurve:
    def test_nine_hits_one_miss(self):
        labels = [True] * 9 + [False]
        curve = pr_curve(labels, total_gt=10)
        p, r = curve[-1]
        assert p == 0.9 and r == 0.9

    def test_two_perfect_hits(self):
        assert pr_curve([True, True], 2) == [(1.0, 0.5), (1.0, 1.0)]

    def test_miss_then_hit(self):
        assert pr_curve([False, True], 1) == [(0.0, 0.0), (0.5, 1.0)]

    def test_no_gt_pins_recall_to_zero(self):
        curve = pr_curve([False, False], 0)
        assert all(r == 0.0 for _, r in curve)

    def test_negative_gt_rejected(self):
        with pytest.raises(ValidationError):
            pr_curve([], -1)


# ---------------------------------------------------------------- average precision


class TestAveragePrecision:
    def test_empty_curve_is_zero(self):
        assert average_precision([]) == 0.0

    def test_perfect_detector(self):
        assert average_precision(pr_curve([True, True, True], 3)) == 1.0

    def test_all_false_positives(self):
        assert average_precision(pr_curve([False, False], 2)) == 0.0

    def test_hit_miss_hit_matches_closed_form(self):
        curve = pr_curve([True, False, True], 2)
        expect = (51 * 1.0 + 50 * (2.0 / 3.0)) / 101
        got = average_precision(curve)
        assert abs(got - expect) < 1e-12
        assert got == ap_oracle([True, False, True], 2)

    def test_decreasing_recall_rejected(self):
        with pytest.raises(ValidationError):
            average_precision([(1.0, 0.5), (1.0, 0.4)])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(0, 9))
            labels = [bool(b) for b in rng.random(n) < 0.5]
            total_gt = sum(labels) + int(rng.integers(0, 4))
            got = average_precision(pr_curve(labels, total_gt))
            assert got == ap_oracle(labels, total_gt)

    def test_result_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            labels = [bool(b) for b in rng.random(n) < 0.6]
            total_gt = max(1, sum(labels) + int(rng.integers(0, 4)))
            ap = average_precision(pr_curve(labels, total_gt))
            assert 0.0 <= ap <= 1.0


# ---------------------------------------------------------------- evaluate


class TestEvaluate:
    def test_perfect_detections(self):
        gts = [gt("a", UNIT), gt("b", (2, 2, 4, 4), category=1)]
        dets = [det("a", 1.0, UNIT), det("b", 1.0, (2, 2, 4, 4), category=1)]
        result = evaluate(dets, gts, RANGE_THRESHOLDS)
        assert result.map50 == 1.0
        assert result.map5095 == 1.0
        assert result.dataset_precision == 1.0
        assert result.dataset_recall == 1.0
        assert not result.no_detections

    def test_single_category_map_is_its_ap(self):
        gts = [gt("a", UNIT), gt("a", (5, 5, 6, 6))]
        dets = [det("a", 0.9, UNIT), det("a", 0.8, (8, 8, 9, 9))]
        result = evaluate(dets, gts, (0.5,))
        assert result.map50 == result.per_category_ap[0][0.5]

    def test_two_categories_average(self):
        # category 0 perfect (AP 1.0); category 1 one hit one miss of 2 gts
        gts = [gt("a", UNIT), gt("a", (3, 3, 4, 4), category=1), gt("a", (6, 6, 7, 7), category=1)]
        dets = [
            det("a", 1.0, UNIT),
            det("a", 0.9, (3, 3, 4, 4), category=1),
        ]
        result = evaluate(dets, gts, (0.5,))
        assert result.per_category_ap[0][0.5] == 1.0
        ap1 = result.per_category_ap[1][0.5]
        assert abs(ap1 - 0.5) < 0.01  # 1 of 2 found at full precision
        assert abs(result.map50 - (1.0 + ap1) / 2.0) < 1e-12

    def test_dataset_precision_recall_pooled(self):
        gts = [gt("a", (float(i), 0.0, float(i) + 0.9, 1.0)) for i in range(10)]
        dets = [det("a", 1.0 - 0.01 * i, (float(i), 0.0, float(i) + 0.9, 1.0)) for i in range(9)]
        dets.append(det("a", 0.5, (50.0, 50.0, 51.0, 51.0)))
        result = evaluate(dets, gts, (0.5,))
        # TP=9, FP=1, FN=1
        assert result.dataset_precision == 0.9
        assert result.dataset_recall == 0.9

    def test_no_ground_truth_rejected(self):
        with pytest.raises(DegenerateInputError):
            evaluate([det("a", 0.9, UNIT)], [], (0.5,))

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([], [gt("a", UNIT)], ())
        with pytest.raises(ValidationError):
            evaluate([], [gt("a", UNIT)], (0.0,))

    def test_no_detections_flagged_not_fatal(self):
        result = evaluate([], [gt("a", UNIT)], (0.5,))
        assert result.no_detections
        assert result.map50 == 0.0
        assert result.dataset_precision == 0.0
        assert result.dataset_recall == 0.0

    def test_detection_order_irrelevant_with_distinct_confidences(self):
        rng = np.random.default_rng(4)
        gts = [gt("a", (float(i), 0.0, i + 1.0, 1.0)) for i in range(4)]
        dets = [
            det("a", 0.9, (0.1, 0.0, 1.0, 1.0)),
            det("a", 0.7, (1.2, 0.0, 2.0, 1.0)),
            det("a", 0.5, (7.0, 7.0, 8.0, 8.0)),
            det("a", 0.3, (2.1, 0.0, 3.0, 1.0)),
        ]
        baseline = evaluate(dets, gts, RANGE_THRESHOLDS)
        for _ in range(5):
            shuffled = [dets[i] for i in rng.permutation(len(dets))]
            result = evaluate(shuffled, gts, RANGE_THRESHOLDS)
            assert result.map50 == baseline.map50
            assert result.map5095 == baseline.map5095

    def test_duplicate_detection_never_raises_ap(self):
        gts = [gt("a", UNIT), gt("a", (3, 3, 4, 4))]
        dets = [det("a", 0.9, UNIT), det("a", 0.8, (3, 3, 4, 4))]
        before = evaluate(dets, gts, (0.5,)).map50
        after = evaluate(dets + [det("a", 0.7, UNIT)], gts, (0.5,)).map50
        assert after <= before

    def test_range_thresholds_constant(self):
        assert len(RANGE_THRESHOLDS) == 10
        assert RANGE_THRESHOLDS[0] == 0.50
        assert abs(RANGE_THRESHOLDS[-1] - 0.95) < 1e-12
        assert np.allclose(np.diff(RANGE_THRESHOLDS), 0.05)

    def test_map5095_is_mean_over_thresholds(self):
        gts = [gt("a", UNIT)]
        dets = [det("a", 0.9, (0.0, 0.0, 1.0, 0.8))]  # IoU 0.8
        result = evaluate(dets, gts, RANGE_THRESHOLDS)
        aps = [result.per_category_ap[0][t] for t in RANGE_THRESHOLDS]
        assert abs(result.map5095 - sum(aps) / 10) < 1e-12
        # IoU 0.8 passes thresholds up to 0.80 only
        assert result.per_category_ap[0][0.5] == 1.0
        assert result.per_category_ap[0][RANGE_THRESHOLDS[-1]] == 0.0


class TestSingleMatchingPass:
    """evaluate matches once, for every category and its distinct thresholds,
    and the pooled precision/recall come from the matches at the map50 threshold."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []

        def counting(dets, gts, thresholds):
            seen.append(thresholds)
            return _match(dets, gts, thresholds)

        monkeypatch.setattr("fastblocks.metrics._match", counting)
        return seen

    def test_one_matching_call_with_the_distinct_thresholds(self, calls):
        two_categories = [gt("a", UNIT), gt("a", UNIT, category=1)]
        evaluate([det("a", 0.9, UNIT)], two_categories, RANGE_THRESHOLDS)
        assert calls == [RANGE_THRESHOLDS]
        calls.clear()
        evaluate([det("a", 0.9, UNIT)], two_categories, (0.7, 0.5, 0.7))
        assert calls == [(0.7, 0.5)]

    def test_pooled_counts_use_the_requested_threshold(self):
        gts = [gt("a", UNIT)]
        dets = [det("a", 0.9, (0.0, 0.0, 1.0, 0.769))]  # IoU 0.769
        strict = evaluate(dets, gts, (0.8,))
        assert strict.map50 == 0.0
        assert strict.dataset_precision == 0.0
        assert strict.dataset_recall == 0.0
        loose = evaluate(dets, gts, (0.7,))
        assert loose.dataset_precision == 1.0
        assert loose.dataset_recall == 1.0

    def test_pooled_counts_use_the_first_threshold_without_half(self):
        gts = [gt("a", UNIT), gt("a", (3, 3, 4, 4))]
        dets = [det("a", 0.9, (0.0, 0.0, 1.0, 0.769)), det("a", 0.8, (3, 3, 4, 4))]
        result = evaluate(dets, gts, (0.8, 0.6))
        assert result.dataset_precision == 0.5
        assert result.dataset_recall == 0.5
        assert evaluate(dets, gts, (0.6, 0.8)).dataset_precision == 1.0

    def test_duplicate_thresholds_change_nothing(self):
        gts = [gt("a", UNIT), gt("a", (3, 3, 4, 4)), gt("b", UNIT, category=1)]
        dets = [
            det("a", 0.9, UNIT),
            det("a", 0.8, UNIT),
            det("a", 0.7, (3, 3, 4, 3.8)),
            det("b", 0.6, (5, 5, 6, 6), category=1),
        ]
        once = evaluate(dets, gts, (0.5,))
        assert evaluate(dets, gts, (0.5, 0.5)) == once
        assert once.dataset_precision == 0.5  # TP 2, FP 2
        assert once.dataset_recall == 2 / 3


# ---------------------------------------------------------------- property


@st.composite
def int_boxes(draw, high=8):
    x1, y1 = draw(st.integers(0, high - 1)), draw(st.integers(0, high - 1))
    return (x1, y1, draw(st.integers(x1 + 1, high)), draw(st.integers(y1 + 1, high)))


# (image, category, box) rows; confidences come from a small set so that ties occur.
BOX_ROWS = st.tuples(st.sampled_from("abc"), st.integers(0, 1), int_boxes())
# One image, one category and corners in 0..4 make IoU ties between ground truths common.
ONE_IMAGE_ROWS = st.tuples(st.just("a"), st.just(0), int_boxes(4))
ANNOTATION_SETS = st.tuples(
    st.lists(BOX_ROWS, min_size=1, max_size=8),
    st.lists(st.tuples(BOX_ROWS, st.sampled_from((0.25, 0.5, 0.75, 1.0))), max_size=8),
)


@st.composite
def ragged_images(draw):
    """(gt_rows, det_rows) of one category over six images whose box counts differ widely.

    Image ids are drawn with skewed weights. Image "e" always has ground truth
    and no detections, image "f" always detections and no ground truth.
    """

    def rows(extra_image):
        drawn = draw(st.lists(st.tuples(st.sampled_from("aaaaaaabbbcd"), st.just(0), int_boxes()), max_size=23))
        return drawn + [(extra_image, 0, draw(int_boxes()))]

    return rows("e"), [(row, draw(st.sampled_from((0.25, 0.5, 0.75, 1.0)))) for row in rows("f")]


def brute_force_match(det_rows, gt_rows, thresh):
    """TP/FP labels in rank order and the unclaimed ground-truth count, from the rule.

    Detections go in descending confidence (input order on ties); each claims
    the unclaimed ground truth of its image with the highest IoU at or above
    `thresh`, the lowest index on IoU ties. Integer corners make every IoU one
    correctly rounded division of exact integers.
    """
    claimed = set()
    labels = []
    for (image, _, (x1, y1, x2, y2)), _ in sorted(det_rows, key=lambda row: -row[1]):
        best = None
        for g, (g_image, _, (gx1, gy1, gx2, gy2)) in enumerate(gt_rows):
            ix = min(x2, gx2) - max(x1, gx1)
            iy = min(y2, gy2) - max(y1, gy1)
            if g in claimed or g_image != image or ix <= 0 or iy <= 0:
                continue
            inter = ix * iy
            overlap = inter / ((x2 - x1) * (y2 - y1) + (gx2 - gx1) * (gy2 - gy1) - inter)
            if overlap >= thresh and (best is None or overlap > best[0]):
                best = (overlap, g)
        if best is not None:
            claimed.add(best[1])
        labels.append(best is not None)
    return labels, len(gt_rows) - len(claimed)


class TestEvaluateProperty:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ANNOTATION_SETS)
    def test_range_evaluation_equals_brute_force_matcher_and_oracle(self, annotation_set):
        gt_rows, det_rows = annotation_set
        result = evaluate(
            [det(image, conf, box, category) for (image, category, box), conf in det_rows],
            [gt(image, box, category) for image, category, box in gt_rows],
            RANGE_THRESHOLDS,
        )
        categories = sorted({row[1] for row in gt_rows} | {row[0][1] for row in det_rows})
        assert sorted(result.per_category_ap) == categories
        tp = fp = fn = 0
        for cat in categories:
            cat_gts = [row for row in gt_rows if row[1] == cat]
            cat_dets = [row for row in det_rows if row[0][1] == cat]
            for t in RANGE_THRESHOLDS:
                labels, unclaimed = brute_force_match(cat_dets, cat_gts, t)
                assert result.per_category_ap[cat][t] == ap_oracle(labels, len(cat_gts))
                if t == 0.5:
                    tp, fp, fn = tp + sum(labels), fp + labels.count(False), fn + unclaimed
        assert result.dataset_precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert result.dataset_recall == (tp / (tp + fn) if tp + fn else 0.0)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.lists(ONE_IMAGE_ROWS, max_size=8),
        st.lists(st.tuples(ONE_IMAGE_ROWS, st.sampled_from((0.5, 1.0))), max_size=8),
    )
    def test_one_pass_equals_brute_force_at_every_threshold(self, gt_rows, det_rows):
        labels, unclaimed = match_detections(
            [det(image, conf, box) for (image, _, box), conf in det_rows],
            [gt(image, box) for image, _, box in gt_rows],
            RANGE_THRESHOLDS,
        )
        assert list(zip(labels, unclaimed)) == [brute_force_match(det_rows, gt_rows, t) for t in RANGE_THRESHOLDS]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ragged_images())
    def test_ragged_images_equal_brute_force_at_every_threshold(self, annotation_set):
        gt_rows, det_rows = annotation_set
        labels, unclaimed = match_detections(
            [det(image, conf, box) for (image, _, box), conf in det_rows],
            [gt(image, box) for image, _, box in gt_rows],
            RANGE_THRESHOLDS,
        )
        assert list(zip(labels, unclaimed)) == [brute_force_match(det_rows, gt_rows, t) for t in RANGE_THRESHOLDS]


@pytest.mark.parametrize("sparse_categories", [1, 5])
def test_padding_memory_stays_bounded_beside_one_crowded_image(sparse_categories):
    """Groups are padded only to their own bucket's width, not to the crowded image's,
    also when the sparse images are spread over several categories."""
    rng = np.random.default_rng(0)
    corners = rng.uniform(0, 900, (2000, 2))
    boxes = np.hstack([corners, corners + rng.uniform(10, 100, (2000, 2))]).tolist()
    images = ["crowded"] * 1000 + [f"sparse{i}" for i in range(1000)]
    categories = [0] * 1000 + [i % sparse_categories for i in range(1000)]
    gts = [gt(image, box, cat) for image, box, cat in zip(images, boxes, categories)]
    confidences = rng.random(2000).tolist()
    dets = [det(image, conf, box, cat) for image, box, conf, cat in zip(images, boxes, confidences, categories)]
    tracemalloc.start()
    try:
        evaluate(dets, gts, RANGE_THRESHOLDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------- files


GT_TEXT = """# image  category  box
a 0 0 0 10 10
a 1 5 5 8 8
b 0 1 1 2 2
"""

DET_TEXT = """a 0 0 0 10 10 0.95
a 1 5 5 8 8 0.90
b 0 1 1 2 2 0.80
"""


@st.composite
def float_boxes(draw):
    x1, y1 = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
    return (x1, y1, x1 + draw(st.floats(1e-3, 50.0)), y1 + draw(st.floats(1e-3, 50.0)))


FILE_ROWS = st.tuples(st.sampled_from(["a", "b", "img_07", "caf\u00e9"]), st.integers(-2, 2), float_boxes())


@st.composite
def annotation_text(draw, rows):
    """`rows` of fields as annotation lines, among comment and blank lines, with
    `\n` or `\r\n` endings and extra whitespace around and between fields."""
    text = ""
    for fields in rows:
        text += "".join(draw(st.lists(st.sampled_from(["\n", "# a comment\n", " \t\r\n", "\t# x 0 1\n"]), max_size=2)))
        text += draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from([" ", "  ", "\t", " \t "])).join(map(str, fields))
        text += draw(st.sampled_from(["", "  ", " # trailing"])) + draw(st.sampled_from(["\n", "\r\n"]))
    return text


MALFORMED_LINES = [
    (parse_ground_truth_lines, "a 0 0 0 10", "6 fields"),
    (parse_ground_truth_lines, "a x 0 0 10 10", "integer"),
    (parse_ground_truth_lines, "a 0 0 0 ten 10", "numbers"),
    (parse_ground_truth_lines, "a 0 5 5 1 1", "positive area"),
    (parse_detection_lines, "a 0 0 0 10 10", "expected 7 fields"),
    (parse_detection_lines, "a x 0 0 10 10 0.5", "category must be an integer"),
    (parse_detection_lines, "a 0 0 0 ten 10 0.5", "must be numbers, got 0 0 ten 10 0.5"),
    (parse_detection_lines, "a 0 0 0 10 10 high", "confidence must be numbers, got 0 0 10 10 high"),
    (parse_detection_lines, "a 0 5 5 1 1 0.5", "positive area"),
    (parse_detection_lines, "a 0 0 0 inf 10 0.5", "finite"),
    (parse_detection_lines, "a 0 0 0 10 10 1.5", "confidence must be in [0, 1], got 1.5"),
]


class TestFiles:
    def test_parse_ground_truth(self):
        gts = parse_ground_truth_lines(GT_TEXT)
        assert len(gts) == 3
        assert gts[0] == GroundTruth("a", 0, BBox(0, 0, 10, 10))

    def test_parse_detections(self):
        dets = parse_detection_lines(DET_TEXT)
        assert len(dets) == 3
        assert dets[0].confidence == 0.95

    @pytest.mark.parametrize(
        "parse, line, fragment",
        MALFORMED_LINES,
        ids=[f"{line}-{fragment}" for _, line, fragment in MALFORMED_LINES],
    )
    def test_malformed_gt_lines(self, parse, line, fragment):
        first = {parse_ground_truth_lines: "a 0 0 0 10 10", parse_detection_lines: "a 0 0 0 10 10 0.5"}[parse]
        with pytest.raises(ParseError) as err:
            parse(first + "\n" + line + "\n")
        assert err.value.line == 2
        assert fragment in str(err.value)

    def test_malformed_detection_lines(self):
        with pytest.raises(ParseError, match="7 fields"):
            parse_detection_lines("a 0 0 0 10 10\n")
        with pytest.raises(ParseError, match="confidence"):
            parse_detection_lines("a 0 0 0 10 10 high\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_detection_lines("a 0 0 0 10 10 1.5\n")

    def test_load_round_trip(self, tmp_path):
        gt_path = tmp_path / "gt.txt"
        det_path = tmp_path / "det.txt"
        gt_path.write_text(GT_TEXT)
        det_path.write_text(DET_TEXT)
        gts = load_ground_truths(gt_path)
        dets = load_detections(det_path)
        result = evaluate(dets, gts, (0.5,))
        assert result.map50 == 1.0

    @pytest.mark.parametrize("separator", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
    @pytest.mark.parametrize(
        "parse, first, second",
        [
            (parse_ground_truth_lines, "a 0 0 0 1 1", "c x 0 0 1 1"),
            (parse_detection_lines, "a 0 0 0 1 1 0.5", "c x 0 0 1 1 0.5"),
            (parse_model_config, "input 1 4 4", "bogus"),
            (parse_model_config, "", ""),  # no 'input' header: the last line
        ],
    )
    def test_only_newline_ends_a_line(self, parse, first, second, separator):
        with pytest.raises(ParseError) as err:
            parse(f"{first} # p{separator}\n{second}\n")
        assert err.value.line == 2

    def test_bare_carriage_return_does_not_end_a_line(self):
        assert len(parse_ground_truth_lines("a 0 0 0 1 1\r\nb 0 0 0 1 1\r\n")) == 2
        with pytest.raises(ParseError, match="expected 6 fields .*, got 12") as err:
            parse_ground_truth_lines("a 0 0 0 1 1\rb 0 0 0 1 1\n")
        assert err.value.line == 1

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.lists(FILE_ROWS, min_size=1, max_size=12),
        st.lists(st.tuples(FILE_ROWS, st.floats(0.0, 1.0)), max_size=12),
        st.data(),
    )
    def test_parsed_columns_equal_hand_built_records(self, gt_rows, det_rows, data):
        gts = [gt(image, box, category) for image, category, box in gt_rows]
        dets = [det(image, conf, box, category) for (image, category, box), conf in det_rows]
        parsed_gts = parse_ground_truth_lines(data.draw(annotation_text([(i, c, *box) for i, c, box in gt_rows])))
        parsed_dets = parse_detection_lines(
            data.draw(annotation_text([(i, c, *box, conf) for (i, c, box), conf in det_rows]))
        )
        assert len(parsed_gts) == len(gts) and len(parsed_dets) == len(dets)
        assert all(parsed_gts[i] == gts[i] for i in range(len(gts)))
        assert all(parsed_dets[i] == dets[i] for i in range(len(dets)))
        assert list(parsed_gts) == gts and parsed_dets[::-1] == dets[::-1]
        assert evaluate(parsed_dets, parsed_gts, RANGE_THRESHOLDS) == evaluate(dets, gts, RANGE_THRESHOLDS)

    @pytest.mark.parametrize("parse", [parse_ground_truth_lines, parse_detection_lines])
    def test_first_malformed_line_wins(self, parse):
        """Of two malformed lines, the first is reported with its own message,
        whichever rules the two break: the field count, the integer and number
        conversions, checked line by line, or the box and confidence rules,
        checked over the whole file at once."""
        first = {parse_ground_truth_lines: "a 0 0 0 10 10", parse_detection_lines: "a 0 0 0 10 10 0.5"}[parse]
        lines = [line for p, line, _ in MALFORMED_LINES if p is parse]
        for second, third in itertools.permutations(lines, 2):
            with pytest.raises(ParseError) as alone:
                parse(f"{first}\n{second}\n")
            with pytest.raises(ParseError) as err:
                parse(f"{first}\n{second}\n# note\n\n{third}\n")
            assert err.value.line == 2
            assert str(err.value) == str(alone.value)

    @pytest.mark.parametrize("parse", [parse_ground_truth_lines, parse_detection_lines])
    def test_category_beyond_64_bits_rejected_at_its_line(self, parse):
        tail = {parse_ground_truth_lines: "", parse_detection_lines: " 0.5"}[parse]
        assert parse(f"a {2**63 - 1} 0 0 1 1{tail}\nb {-(2**63)} 0 0 1 1{tail}\n")[1].category == -(2**63)
        with pytest.raises(ParseError, match=f"category must fit in 64 bits, got '{2**63}'") as err:
            parse(f"a 0 0 0 1 1{tail}\nb {2**63} 0 0 1 1{tail}\n")
        assert err.value.line == 2

    def test_annotations_check_every_row_on_construction(self):
        zero_width = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(ValidationError, match="positive area"):
            Annotations(["a", "b"], np.array([0, 0]), zero_width)
        with pytest.raises(ValidationError, match=r"confidence must be in \[0, 1\], got nan"):
            Annotations(["a", "b"], np.array([0, 0]), np.array([UNIT, UNIT]), np.array([0.5, np.nan]))

    def test_loading_and_evaluating_build_no_box_objects(self, tmp_path, monkeypatch):
        """The load path stays on columns: no BBox is built between the file and the AP."""
        built = []
        check = BBox.__post_init__

        def counting_check(box):
            built.append(box)
            check(box)

        monkeypatch.setattr(BBox, "__post_init__", counting_check)
        (tmp_path / "gt.txt").write_text(GT_TEXT)
        (tmp_path / "det.txt").write_text(DET_TEXT)
        gts = load_ground_truths(tmp_path / "gt.txt")
        dets = load_detections(tmp_path / "det.txt")
        assert evaluate(dets, gts, RANGE_THRESHOLDS).map50 == 1.0
        assert built == []
        assert gts[0].box == BBox(0, 0, 10, 10)  # a record built on demand does run the check
        assert len(built) == 2

    @pytest.mark.parametrize("loader", [load_ground_truths, load_detections])
    def test_undecodable_byte_is_a_parse_error_at_its_line(self, tmp_path, loader):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# caf\xc3\xa9 is fine\na 0 0 0 10 10 0.9\nb\xff 0 1 1 2 2 0.8\n")
        with pytest.raises(ParseError, match="0xff") as err:
            loader(path)
        assert err.value.line == 3


# ---------------------------------------------------------------- fast reader

GT_LAYOUT = "image_id category x1 y1 x2 y2"
DET_LAYOUT = "image_id category x1 y1 x2 y2 confidence"

# Python's str.split separates on each of these; numpy's reader must agree,
# and a bare `\r` inside a line is one numpy refuses.
RISKY_SEPARATORS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]
# Spellings int() reads that numpy may not, and values past the int64 range.
RISKY_CATEGORIES = ["+1", "-2", "007", "1_0", "\u0661", "\uff15", "1.0", "x"]
RISKY_CATEGORIES += [str(v) for v in (2**63 - 1, -(2**63), 2**63, -(2**63) - 1)]
# Low and high box edges and confidences, each signed, zero-padded,
# non-finite, overflowing, underscored or in non-ASCII digits.
RISKY_LOWS = ["-0", "+0.0", "00.5", "-1e2", "1_0", "\u0660", "-inf", "nan", "-1e400"]
RISKY_HIGHS = ["+2.5", "010", "1e3", "2_0", "\u0665", "\uff15", "inf", "1e400", ".5e1"]
RISKY_CONFIDENCES = [".25", "+0", "5e-1", "0_5", "\u0660.\u0665", "nan", "1.5", "-0.0"]


@st.composite
def risky_text(draw, n_numbers):
    """Valid rows among comments and blank lines, and about one row in four
    with risky separators and spellings or a field too few or too many."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        risky = draw(st.integers(0, 3)) == 0

        def field(plain, spellings):
            return draw(st.one_of(plain, st.sampled_from(spellings)) if risky else plain)

        low, high = st.floats(-1e3, 0.0).map(repr), st.floats(1.0, 1e3).map(repr)
        fields = [
            draw(st.text(alphabet="ab7_\u00e9" + "\u200b" * risky, min_size=1, max_size=3)),
            field(st.integers(-3, 3).map(str), RISKY_CATEGORIES),
            field(low, RISKY_LOWS),
            field(low, RISKY_LOWS),
            field(high, RISKY_HIGHS),
            field(high, RISKY_HIGHS),
            field(st.floats(0.0, 1.0).map(repr), RISKY_CONFIDENCES),
        ][: 2 + n_numbers]
        if risky and draw(st.integers(0, 3)) == 0:
            fields = fields[:-1] if draw(st.booleans()) else fields + ["0"]
        separators = [" ", "\t", "  "] + RISKY_SEPARATORS * risky
        line = "".join(f + draw(st.sampled_from(separators)) for f in fields)
        line += draw(st.sampled_from(["", "# note", "#\r x"]))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
        lines.extend(draw(st.lists(st.sampled_from(["\n", "# a comment\n", " \t\n", "\x85\n"]), max_size=1)))
    return "".join(lines)


def parse_outcome(read):
    """What `read()` returns as columns of bytes, or the ParseError it raises."""
    try:
        ids, categories, numbers = read()
    except ParseError as exc:
        return str(exc), exc.line
    return ids, categories.dtype, categories.tobytes(), numbers.dtype, numbers.tobytes()


def columns(annotations):
    """An Annotations as ids, categories and (n, 4) or (n, 5) number rows."""
    numbers = annotations.corners if annotations.confidence is None else np.column_stack(
        [annotations.corners, annotations.confidence]
    )
    return annotations.image_id, annotations.category, numbers


def line_columns(text, record, layout):
    """`_parse_lines`' rows as the columns `columns` gives."""
    rows = _parse_lines(text, record, layout)
    n = len(layout.split()) - 2
    return (
        [r[0] for r in rows],
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.float64).reshape(-1, n),
    )


class TestFastReader:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_fast_reader_equals_the_line_by_line_pass(self, data):
        """numpy's reader and the per-line pass, the parser of record, give
        bit-equal columns, or the same ParseError at the same line."""
        for parse, record, layout in (
            (parse_ground_truth_lines, GroundTruth, GT_LAYOUT),
            (parse_detection_lines, Detection, DET_LAYOUT),
        ):
            text = data.draw(risky_text(len(layout.split()) - 2))
            fast = parse_outcome(lambda: columns(parse(text)))
            assert fast == parse_outcome(lambda: line_columns(text, record, layout))

    @pytest.mark.parametrize("loader", [load_ground_truths, load_detections])
    @pytest.mark.parametrize(
        "line, category, box",
        [
            ("a\r0 0 0 1 1", 0, (0.0, 0.0, 1.0, 1.0)),  # a bare \r inside a line is whitespace
            ("a 1_0 0 0 1_0 1", 10, (0.0, 0.0, 10.0, 1.0)),
            ("a \u0661 0 0 \uff15 \u0662.\u0665", 1, (0.0, 0.0, 5.0, 2.5)),
        ],
        ids=["bare-cr", "underscores", "non-ascii-digits"],
    )
    def test_text_numpy_refuses_is_read_line_by_line(self, tmp_path, loader, line, category, box):
        tail = " 0.5" if loader is load_detections else ""
        path = tmp_path / "annotations.txt"
        path.write_bytes(f"b 3 1 2 3 4{tail}\r\n{line}{tail}\n".encode())
        got = loader(path)
        if loader is load_detections:
            expected = [det("b", 0.5, (1, 2, 3, 4), 3), det("a", 0.5, box, category)]
        else:
            expected = [gt("b", (1, 2, 3, 4), 3), gt("a", box, category)]
        assert list(got) == expected
        assert got.category.dtype == np.int64 and got.corners.dtype == np.float64
        assert got.corners.tolist() == [[1.0, 2.0, 3.0, 4.0], list(box)]

    @pytest.mark.parametrize("loader", [load_ground_truths, load_detections])
    def test_crlf_and_commented_files_take_the_fast_reader(self, tmp_path, monkeypatch, loader):
        """A numpy whose reader refused every file would keep the results and
        lose the speed; only a counter on the per-line pass shows it."""
        calls = []
        per_line = metrics._parse_lines
        monkeypatch.setattr(metrics, "_parse_lines", lambda *args: calls.append(args) or per_line(*args))
        text = DET_TEXT if loader is load_detections else GT_TEXT.replace("# image  category  box\n", "")
        path = tmp_path / "annotations.txt"
        for variant in (text.replace("\n", "\r\n"), "# header\n\n" + text.replace("\n", "  # note\n\n", 1)):
            path.write_bytes(variant.encode())
            assert len(loader(path)) == 3
        assert calls == []
        path.write_bytes(text.replace("a 0 0 0 10 10", "a 0 0 0 1_0 10").encode())
        assert loader(path).corners[0].tolist() == [0.0, 0.0, 10.0, 10.0]
        assert len(calls) == 1

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n  \n"])
    @pytest.mark.parametrize("loader", [load_ground_truths, load_detections])
    def test_file_without_rows_reads_as_zero_rows_without_warnings(self, tmp_path, loader, text):
        path = tmp_path / "annotations.txt"
        path.write_text(text)
        # Recorded, not raised: a warning raised as an error would be caught
        # and read line by line, and would never reach a user's stderr.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = loader(path)
        assert caught == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(loader(path)) == 0
        assert len(got) == 0 and got.corners.shape == (0, 4) and got.category.dtype == np.int64
        assert (got.confidence is None) == (loader is load_ground_truths)
