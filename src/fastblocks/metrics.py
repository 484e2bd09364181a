"""Detection evaluation: IoU, greedy matching, PR curves, interpolated AP.

Matching is greedy in descending confidence (stable: input order breaks
ties). Each detection may claim the unmatched ground-truth box of the same
image and category with the highest IoU at or above the threshold; IoU ties
go to the lowest ground-truth index, and a ground truth is used at most once.
Each (category, image) pair is thus an independent matching group, as in
COCO's evaluation, and `evaluate` matches every group of every category for
all IoU thresholds in one pass.

AP is the 101-point interpolation: precision is first made monotonically
nonincreasing from the right, then sampled at recalls {0, 0.01, ..., 1.00}
(zero where the curve never reaches the recall level), and averaged.
mAP@.5:.95 averages per-category AP over the ten thresholds 0.50:0.05:0.95.

Annotation files are whitespace-delimited, one box per line:

    ground truth:  image_id category x1 y1 x2 y2
    detections:    image_id category x1 y1 x2 y2 confidence

Both kinds follow `errors.tokenize`'s rules (lines end at `\n`, `#` starts a
comment). numpy's C text reader takes a file in one call; a file it refuses
is read line by line, the parser of record. The loaders return `Annotations`,
the file as columns, which matching consumes as they are: no per-box object
is built between the file and the AP. A box is valid when its corners are
finite with x1 < x2 and y1 < y2, the rule of `BBox`; a confidence lies in
[0, 1], the rule of `Detection`. Both rules are checked once per file, as
vectorized masks. Malformed lines raise ParseError with the number of the
first such line and the message of its first broken rule.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ParseError, ValidationError, read_text, tokenize

RANGE_THRESHOLDS = tuple(0.50 + 0.05 * i for i in range(10))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with finite corners, x2 > x1 and y2 > y1 (positive area)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        # NaN fails every comparison, so one chain checks finiteness and area.
        if not (-math.inf < self.x1 < self.x2 < math.inf and -math.inf < self.y1 < self.y2 < math.inf):
            raise ValidationError(
                "box coordinates must be finite with positive area (x1 < x2, y1 < y2): "
                f"x1={self.x1} y1={self.y1} x2={self.x2} y2={self.y2}"
            )


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


def _first_invalid(corners: np.ndarray, confidence: np.ndarray | None) -> int | None:
    """The first row breaking the rule of BBox or Detection, found by vectorized masks; None if none does."""
    x1, y1, x2, y2 = corners.T
    # NaN fails every comparison, so these masks reject it as BBox does.
    valid = (-np.inf < x1) & (x1 < x2) & (x2 < np.inf) & (-np.inf < y1) & (y1 < y2) & (y2 < np.inf)
    if confidence is not None:
        valid &= (0.0 <= confidence) & (confidence <= 1.0)
    return None if valid.all() else int(np.argmin(valid))


@dataclass(frozen=True, eq=False)
class Annotations(Sequence):
    """Boxes as columns: row i holds image_id[i], category[i] (int64),
    corners[i] (x1, y1, x2, y2) and, for detections, confidence[i];
    confidence is None for ground truth.

    A read-only sequence of records: item i is the GroundTruth or Detection
    of row i, built on demand. Construction checks every row by the rules of
    BBox and Detection at once, as vectorized masks.
    """

    image_id: list[str]
    category: np.ndarray
    corners: np.ndarray
    confidence: np.ndarray | None = None

    def __post_init__(self):
        bad = _first_invalid(self.corners, self.confidence)
        if bad is not None:
            self[bad]  # building the first invalid row's record raises its rule's message

    def __len__(self) -> int:
        return len(self.image_id)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        box = BBox(*self.corners[i].tolist())
        if self.confidence is None:
            return GroundTruth(self.image_id[i], int(self.category[i]), box)
        return Detection(self.image_id[i], int(self.category[i]), box, float(self.confidence[i]))


def _corners(boxes: list[BBox]) -> np.ndarray:
    """(n, 4) array of x1, y1, x2, y2 rows."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _columns(records: Annotations | list[GroundTruth] | list[Detection]) -> Annotations:
    """`records` as columns: an Annotations as it is, a list of records converted."""
    if isinstance(records, Annotations):
        return records
    return Annotations(
        [r.image_id for r in records],
        np.array([r.category for r in records], dtype=np.int64),
        _corners([r.box for r in records]),
        np.array([r.confidence for r in records]) if all(isinstance(r, Detection) for r in records) else None,
    )


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every corner row of `a` with every corner row of `b`, shape (..., len(a), len(b)).

    Leading axes broadcast, so `a` (n, k, 4) against `b` (n, g, 4) gives n matrices.
    """
    a, b = a[..., :, None, :], b[..., None, :, :]
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return inter / (area_a + area_b - inter)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 when the boxes are disjoint."""
    return float(_iou_matrix(_corners([a]), _corners([b]))[0, 0])


def _check_thresholds(thresholds: tuple[float, ...]) -> None:
    if not thresholds:
        raise ValidationError("iou_thresholds must be nonempty")
    for t in thresholds:
        if not 0.0 < t <= 1.0:
            raise ValidationError(f"iou threshold must be in (0, 1], got {t}")


def match_detections(
    detections: Annotations | list[Detection],
    ground_truths: Annotations | list[GroundTruth],
    iou_thresholds: tuple[float, ...],
) -> tuple[list[list[bool]], list[int]]:
    """Greedy TP/FP labels of every detection at every threshold, in one pass.

    Returns (labels, unmatched_gt_counts), one entry per threshold. A
    detection never claims a ground truth of another category. Each labels
    row holds the categories one after another, in ascending category order,
    and each category's labels in descending-confidence order (stable), the
    order pr_curve consumes; with one category, the row is that category's
    ranking. The counts pool every category.
    """
    _check_thresholds(iou_thresholds)
    labels = _match(detections, ground_truths, iou_thresholds)[0]
    return [row.tolist() for row in labels], (len(ground_truths) - labels.sum(axis=1)).tolist()


def _match(detections, ground_truths, thresholds):
    """Greedy labels of every detection at every threshold, in one pass over all groups.

    Both sides are taken as columns (see `_columns`). A group is one
    (category, image) pair, keyed by category index × image count + image
    index. Detections are ranked once, by category and then by descending
    confidence (stable), so each category's ranks are one run in its own
    confidence order. Groups are independent, so matching steps over
    within-group ranks: step s matches the s-th ranked detection of every
    group, for every threshold, as one (groups, thresholds, ground truths)
    array operation. Groups are padded to a common ground-truth count only
    within a bucket of groups whose counts round up to the same power of two,
    so padding at most doubles the array cells.

    Returns the (thresholds, detections) labels in rank order, the distinct
    categories (ascending) and each category's detection and ground-truth counts.
    """
    dets, gts = _columns(detections), _columns(ground_truths)
    thresholds = np.array(thresholds, dtype=np.float64)
    images: dict[str, int] = {}
    image = np.array([images.setdefault(i, len(images)) for i in dets.image_id + gts.image_id], dtype=np.int64)
    categories, category = np.unique(np.concatenate([dets.category, gts.category]), return_inverse=True)
    boxes = np.concatenate([dets.corners, gts.corners])
    n = len(dets)
    order = np.lexsort((-dets.confidence, category[:n]))
    keys = category * len(images) + image
    det_keys, det_boxes = keys[:n][order], boxes[:n][order]
    gt_keys, gt_boxes = keys[n:], boxes[n:]

    # Both kinds grouped by key, keeping input and rank order within a group.
    gt_order = np.argsort(gt_keys, kind="stable")
    groups, gt_starts, group_gts = np.unique(gt_keys[gt_order], return_index=True, return_counts=True)
    by_key = np.argsort(det_keys, kind="stable")
    det_starts = np.searchsorted(det_keys[by_key], groups)
    # Detections of a group without ground truth are never visited: false positives at every threshold.
    counts = np.searchsorted(det_keys[by_key], groups, side="right") - det_starts
    widths = 1 << np.frexp(group_gts - 1)[1]  # frexp's exponent is the bit length of n - 1

    labels = np.zeros((len(thresholds), n), dtype=bool)
    for width in np.unique(widths[counts > 0]):
        # Most detections first: the groups still matching at step s are a prefix.
        bucket = np.flatnonzero((widths == width) & (counts > 0))
        bucket = bucket[np.argsort(-counts[bucket], kind="stable")]
        sizes = group_gts[bucket]
        # Padded corners are NaN, whose IoU never reaches a threshold.
        corners = np.full((len(bucket), width, 4), np.nan)
        slots = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        rows = gt_order[np.repeat(gt_starts[bucket], sizes) + slots]
        corners[np.repeat(np.arange(len(bucket)), sizes), slots] = gt_boxes[rows]
        active = np.searchsorted(-counts[bucket], -np.arange(counts[bucket[0]]), side="left")
        matched = np.zeros((len(bucket), len(thresholds), width), dtype=bool)
        for step, k in enumerate(active):
            ranks = by_key[det_starts[bucket[:k]] + step]
            overlaps = _iou_matrix(det_boxes[ranks, None], corners[:k])  # (k, 1, width)
            free = ~matched[:k] & (overlaps >= thresholds[:, None])
            # argmax takes the first maximum: the lowest ground-truth index on IoU ties
            best = np.where(free, overlaps, -1.0).argmax(axis=2)
            hit = np.take_along_axis(free, best[..., None], axis=2)[..., 0]
            g, t = hit.nonzero()
            matched[g, t, best[g, t]] = True
            labels[:, ranks] = hit.T
    n_dets, n_gts = (np.bincount(c, minlength=len(categories)) for c in (category[:n], category[n:]))
    return labels, categories, n_dets, n_gts


def _pr(labels: np.ndarray, total_gt: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative precision and recall per rank along the last axis of boolean labels."""
    tp = np.cumsum(labels, axis=-1)
    recall = tp / total_gt if total_gt > 0 else np.zeros(tp.shape)
    return tp / np.arange(1, tp.shape[-1] + 1), recall


_RECALL_LEVELS = np.arange(101) / 100


def _ap(precision: np.ndarray, recall: np.ndarray) -> float:
    """101-point interpolated AP of one curve with nondecreasing recall; empty -> 0."""
    if not len(precision):
        return 0.0
    # Monotone nonincreasing envelope from the right, then 0 past the last recall.
    env = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    samples = env[np.searchsorted(recall, _RECALL_LEVELS, side="left")]
    # Summed in level order, as a running total would; np.sum's pairwise order may differ.
    return float(np.add.accumulate(samples)[-1]) / 101


def pr_curve(labels: list[bool], total_gt: int) -> list[tuple[float, float]]:
    """Cumulative (precision, recall) per rank for descending-confidence labels.

    precision_k = TP_k / k; recall_k = TP_k / total_gt (0 when there is no GT).
    """
    if total_gt < 0:
        raise ValidationError(f"total_gt must be >= 0, got {total_gt}")
    precision, recall = _pr(np.asarray(labels, dtype=bool), total_gt)
    return list(zip(precision.tolist(), recall.tolist()))


def average_precision(curve: list[tuple[float, float]]) -> float:
    """101-point interpolated AP of a cumulative PR curve; empty curve -> 0."""
    if not curve:
        return 0.0
    precision, recall = np.array(curve, dtype=np.float64).T
    if np.any(np.diff(recall) < 0):
        raise ValidationError("recalls must be nondecreasing along the curve")
    return _ap(precision, recall)


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
    detections: Annotations | list[Detection],
    ground_truths: Annotations | list[GroundTruth],
    iou_thresholds: tuple[float, ...] = (0.5,),
) -> EvalResult:
    """Category-partitioned AP evaluation plus pooled precision/recall.

    One matching pass serves every category and every distinct threshold; its
    matches at the map50 threshold also give the pooled TP/FP/FN. Categories
    with zero ground truths and zero detections are excluded from the means; a
    dataset whose every category lacks ground truth is rejected as degenerate.
    """
    thresholds = tuple(iou_thresholds)
    _check_thresholds(thresholds)
    if not ground_truths:
        raise DegenerateInputError("no category has any ground truth boxes")

    distinct = tuple(dict.fromkeys(thresholds))
    primary = 0.5 if 0.5 in thresholds else thresholds[0]
    labels, categories, n_dets, n_gts = _match(detections, ground_truths, distinct)
    per_category: dict[int, dict[float, float]] = {}
    runs = np.split(labels, np.cumsum(n_dets)[:-1], axis=1)
    for cat, hits, n_gt in zip(categories.tolist(), runs, n_gts.tolist()):
        precision, recall = _pr(hits, n_gt)
        per_category[cat] = {t: _ap(p, r) for t, p, r in zip(distinct, precision, recall)}
    tp = int(np.count_nonzero(labels[distinct.index(primary)]))
    fp, fn = len(detections) - tp, len(ground_truths) - tp

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


def _parse(text: str, record, layout: str) -> Annotations:
    """The lines of `text` as columns: per line, an image id, an integer category
    and the numbers `layout` names, the four corners first. A file numpy's reader
    refuses or warns on (a bare `\r` in a line, `1_0`, non-ASCII digits, no rows),
    or whose rows break a rule, goes to `_parse_lines`."""
    dtype = [("image_id", object), ("category", np.int64), ("numbers", np.float64, (len(layout.split()) - 2,))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(text.split("\n"), dtype=dtype, comments="#", ndmin=1)
        return _annotations(record, rows)
    except (ValueError, Warning):  # a ValidationError is a ValueError
        pass
    return _annotations(record, np.array(_parse_lines(text, record, layout), dtype=dtype))


def _parse_lines(text: str, record, layout: str) -> list[tuple[str, int, list[float]]]:
    """`_parse`'s rows as (image id, category, numbers), read line by line over `tokenize`: the parser
    of record. Field counts, integers and numbers are checked per line, the box and confidence rules
    once, over the rows read; the first line to break a rule raises the message of its first broken rule."""
    names, rows, lines, error = layout.split(), [], [], None
    try:
        for lineno, tokens in tokenize(text):
            if len(tokens) != len(names):
                raise ParseError(f"expected {len(names)} fields ({layout}), got {len(tokens)}", lineno)
            image_id, category, *values = tokens
            try:
                category = int(category)
            except ValueError:
                raise ParseError(f"category must be an integer, got '{category}'", lineno) from None
            if not -(2**63) <= category < 2**63:
                raise ParseError(f"category must fit in 64 bits, got '{tokens[1]}'", lineno)
            try:
                numbers = [float(v) for v in values]
            except ValueError:
                raise ParseError(f"{' '.join(names[2:])} must be numbers, got {' '.join(values)}", lineno) from None
            rows.append((image_id, category, numbers))
            lines.append(lineno)
    except ParseError as exc:
        error = exc  # raised unless an earlier line breaks a box or confidence rule
    table = np.array([row[2] for row in rows], dtype=np.float64).reshape(-1, len(names) - 2)
    bad = _first_invalid(table[:, :4], table[:, 4] if record is Detection else None)
    if bad is not None:
        image_id, category, values = rows[bad]
        try:
            record(image_id, category, BBox(*values[:4]), *values[4:])
        except ValidationError as exc:
            raise ParseError(str(exc), lines[bad]) from None
    if error is not None:
        raise error
    return rows


def _annotations(record, rows: np.ndarray) -> Annotations:
    """Annotations of `record`s from rows of image id, category and numbers (corners, then a confidence)."""
    confidence = rows["numbers"][:, 4] if record is Detection else None
    return Annotations(rows["image_id"].tolist(), rows["category"], rows["numbers"][:, :4], confidence)


def parse_ground_truth_lines(text: str) -> Annotations:
    """`image_id category x1 y1 x2 y2` per line, as columns; '#' comments and blank lines skipped."""
    return _parse(text, GroundTruth, "image_id category x1 y1 x2 y2")


def parse_detection_lines(text: str) -> Annotations:
    """`image_id category x1 y1 x2 y2 confidence`; same comment rules."""
    return _parse(text, Detection, "image_id category x1 y1 x2 y2 confidence")


def load_ground_truths(path) -> Annotations:
    return parse_ground_truth_lines(read_text(path))


def load_detections(path) -> Annotations:
    return parse_detection_lines(read_text(path))
