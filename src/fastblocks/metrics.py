"""Detection evaluation: IoU, greedy matching, PR curves, interpolated AP.

Matching is greedy in descending confidence (stable: input order breaks
ties). Each detection may claim the unmatched ground-truth box of the same
image with the highest IoU at or above the threshold; IoU ties go to the
lowest ground-truth index, and a ground truth is used at most once.

AP is the 101-point interpolation: precision is first made monotonically
nonincreasing from the right, then sampled at recalls {0, 0.01, ..., 1.00}
(zero where the curve never reaches the recall level), and averaged.
mAP@.5:.95 averages per-category AP over the ten thresholds 0.50:0.05:0.95.

Annotation files are whitespace-delimited, one box per line:

    ground truth:  image_id category x1 y1 x2 y2
    detections:    image_id category x1 y1 x2 y2 confidence

`#` starts a comment. Malformed lines raise ParseError with the line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ParseError, ValidationError

RANGE_THRESHOLDS = tuple(0.50 + 0.05 * i for i in range(10))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with x2 > x1 and y2 > y1 (positive area)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not np.isfinite(v):
                raise ValidationError(f"box coordinates must be finite, got {self}")
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValidationError(
                f"box must have positive area: x1={self.x1} y1={self.y1} x2={self.x2} y2={self.y2}"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True)
class GroundTruth:
    image_id: str
    category: int
    box: BBox


@dataclass(frozen=True)
class Detection:
    image_id: str
    category: int
    box: BBox
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence must be in [0, 1], got {self.confidence}")


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when the boxes are disjoint."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def match_detections(
    detections: list[Detection], ground_truths: list[GroundTruth], iou_thresh: float
) -> tuple[list[bool], int]:
    """Greedy TP/FP assignment for one category.

    Returns (labels, unmatched_gt_count) with labels in descending-confidence
    order (stable), the order pr_curve consumes. Matching is per image; each
    ground truth is claimed at most once.
    """
    if not 0.0 < iou_thresh <= 1.0:
        raise ValidationError(f"iou threshold must be in (0, 1], got {iou_thresh}")
    order = sorted(range(len(detections)), key=lambda i: -detections[i].confidence)
    gt_by_image: dict[str, list[int]] = {}
    for idx, gt in enumerate(ground_truths):
        gt_by_image.setdefault(gt.image_id, []).append(idx)
    matched = [False] * len(ground_truths)
    labels: list[bool] = []
    for i in order:
        det = detections[i]
        best_iou = 0.0
        best_gt = -1
        for gt_idx in gt_by_image.get(det.image_id, ()):
            if matched[gt_idx]:
                continue
            overlap = iou(det.box, ground_truths[gt_idx].box)
            if overlap >= iou_thresh and overlap > best_iou:
                # strict > keeps the lowest ground-truth index on IoU ties
                best_iou = overlap
                best_gt = gt_idx
        if best_gt >= 0:
            matched[best_gt] = True
            labels.append(True)
        else:
            labels.append(False)
    return labels, matched.count(False)


def pr_curve(labels: list[bool], total_gt: int) -> list[tuple[float, float]]:
    """Cumulative (precision, recall) per rank for descending-confidence labels.

    precision_k = TP_k / k; recall_k = TP_k / total_gt (0 when there is no GT).
    """
    if total_gt < 0:
        raise ValidationError(f"total_gt must be >= 0, got {total_gt}")
    curve = []
    tp = 0
    for k, is_tp in enumerate(labels, start=1):
        tp += bool(is_tp)
        recall = tp / total_gt if total_gt > 0 else 0.0
        curve.append((tp / k, recall))
    return curve


def average_precision(curve: list[tuple[float, float]]) -> float:
    """101-point interpolated AP of a cumulative PR curve; empty curve -> 0."""
    if not curve:
        return 0.0
    ps = np.array([p for p, _ in curve], dtype=np.float64)
    rs = np.array([r for _, r in curve], dtype=np.float64)
    if np.any(np.diff(rs) < 0):
        raise ValidationError("recalls must be nondecreasing along the curve")
    # Monotone nonincreasing envelope from the right.
    env = np.maximum.accumulate(ps[::-1])[::-1]
    total = 0.0
    for i in range(101):
        t = i / 100
        idx = int(np.searchsorted(rs, t, side="left"))
        total += float(env[idx]) if idx < len(rs) else 0.0
    return total / 101


@dataclass(frozen=True)
class EvalResult:
    """Per-category APs and dataset-level summary metrics.

    per_category_ap maps category -> {iou threshold -> AP}. map50 is the
    category-mean AP at threshold 0.5 (or at the first requested threshold if
    0.5 was not evaluated); map5095 is the mean over the distinct requested
    thresholds, which under the standard 0.50:0.05:0.95 range is mAP@.5:.95.
    dataset precision/recall pool every category's matches at the same
    threshold as map50; a dataset with zero detections reports precision 0
    with `no_detections` set.
    """

    per_category_ap: dict[int, dict[float, float]]
    map50: float
    map5095: float
    dataset_precision: float
    dataset_recall: float
    no_detections: bool = field(default=False)


def evaluate(
    detections: list[Detection],
    ground_truths: list[GroundTruth],
    iou_thresholds: tuple[float, ...] = (0.5,),
) -> EvalResult:
    """Category-partitioned AP evaluation plus pooled precision/recall.

    Each category is matched once per distinct threshold; the matches at the
    map50 threshold also give the pooled TP/FP/FN. Categories with zero
    ground truths and zero detections are excluded from the means; a dataset
    whose every category lacks ground truth is rejected as degenerate.
    """
    thresholds = tuple(iou_thresholds)
    if not thresholds:
        raise ValidationError("iou_thresholds must be nonempty")
    for t in thresholds:
        if not 0.0 < t <= 1.0:
            raise ValidationError(f"iou threshold must be in (0, 1], got {t}")
    if not ground_truths:
        raise DegenerateInputError("no category has any ground truth boxes")

    det_by_cat: dict[int, list[Detection]] = {}
    for det in detections:
        det_by_cat.setdefault(det.category, []).append(det)
    gt_by_cat: dict[int, list[GroundTruth]] = {}
    for gt in ground_truths:
        gt_by_cat.setdefault(gt.category, []).append(gt)

    categories = sorted(set(det_by_cat) | set(gt_by_cat))
    primary = 0.5 if 0.5 in thresholds else thresholds[0]
    per_category: dict[int, dict[float, float]] = {}
    tp = fp = fn = 0
    for cat in categories:
        dets = det_by_cat.get(cat, [])
        gts = gt_by_cat.get(cat, [])
        per_category[cat] = {}
        for t in dict.fromkeys(thresholds):
            labels, unmatched = match_detections(dets, gts, t)
            per_category[cat][t] = average_precision(pr_curve(labels, len(gts)))
            if t == primary:
                tp += sum(labels)
                fp += len(labels) - sum(labels)
                fn += unmatched

    map50 = sum(per_category[c][primary] for c in categories) / len(categories)
    map5095 = sum(sum(aps.values()) / len(aps) for aps in per_category.values()) / len(categories)
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    return EvalResult(
        per_category_ap=per_category,
        map50=map50,
        map5095=map5095,
        dataset_precision=precision,
        dataset_recall=recall,
        no_detections=not detections,
    )


_BOX_FIELDS = ("image_id", "category", "x1", "y1", "x2", "y2")


def _read_records(text: str, extra: tuple[str, ...] = ()):
    """Yield (lineno, image_id, category, box, extra fields) per annotation line.

    '#' comments and blank lines are skipped; each remaining line must hold
    the box fields followed by the `extra` ones.
    """
    names = _BOX_FIELDS + extra
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != len(names):
            raise ParseError(f"expected {len(names)} fields ({' '.join(names)}), got {len(fields)}", lineno)
        try:
            category = int(fields[1])
        except ValueError:
            raise ParseError(f"category must be an integer, got '{fields[1]}'", lineno) from None
        try:
            coords = [float(v) for v in fields[2:6]]
        except ValueError:
            raise ParseError(f"box coordinates must be numbers: {fields[2:6]}", lineno) from None
        try:
            box = BBox(*coords)
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from None
        yield lineno, fields[0], category, box, fields[6:]


def parse_ground_truth_lines(text: str) -> list[GroundTruth]:
    """`image_id category x1 y1 x2 y2`; '#' comments and blank lines skipped."""
    return [GroundTruth(image_id, cat, box) for _, image_id, cat, box, _ in _read_records(text)]


def parse_detection_lines(text: str) -> list[Detection]:
    """`image_id category x1 y1 x2 y2 confidence`; same comment rules."""
    out = []
    for lineno, image_id, category, box, (conf,) in _read_records(text, ("confidence",)):
        try:
            confidence = float(conf)
        except ValueError:
            raise ParseError(f"confidence must be a number, got '{conf}'", lineno) from None
        try:
            out.append(Detection(image_id, category, box, confidence))
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from None
    return out


def load_ground_truths(path) -> list[GroundTruth]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ground_truth_lines(fh.read())


def load_detections(path) -> list[Detection]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_detection_lines(fh.read())
