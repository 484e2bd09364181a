"""Brute-force AP, written from the definition and sharing no code with fastblocks.

For one category and IoU threshold: visit detections in descending
confidence (input order on ties); each takes the unclaimed ground truth of
its image with the highest IoU at or above the threshold (lowest index on
ties). AP averages, over the recall levels 0, 0.01, ..., 1, the best
precision among ranks whose recall reaches the level.
"""

from __future__ import annotations


def box_iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def category_ap(detections: list[tuple], ground_truths: list[tuple], threshold: float) -> float:
    """`detections` rows are (image, x1, y1, x2, y2, confidence); GT rows (image, x1, y1, x2, y2)."""
    ranked = sorted(detections, key=lambda d: -d[5])
    claimed = [False] * len(ground_truths)
    tp = 0
    points = []
    for k, det in enumerate(ranked, start=1):
        best, best_gt = 0.0, -1
        for g, gt in enumerate(ground_truths):
            if claimed[g] or gt[0] != det[0]:
                continue
            overlap = box_iou(det[1:5], gt[1:5])
            if overlap >= threshold and overlap > best:
                best, best_gt = overlap, g
        if best_gt >= 0:
            claimed[best_gt] = True
            tp += 1
        points.append((tp / k, tp / len(ground_truths) if ground_truths else 0.0))
    total = 0.0
    for i in range(101):
        level = i / 100
        total += max((p for p, r in points if r >= level), default=0.0)
    return total / 101


def per_category_ap(detections: list[tuple], ground_truths: list[tuple], thresholds) -> dict[int, dict[float, float]]:
    """AP per category and threshold for generator rows (image, category, box..., [confidence])."""
    categories = sorted({row[1] for row in detections} | {row[1] for row in ground_truths})
    out = {}
    for cat in categories:
        dets = [(r[0], *r[2:7]) for r in detections if r[1] == cat]
        gts = [(r[0], *r[2:6]) for r in ground_truths if r[1] == cat]
        out[cat] = {t: category_ap(dets, gts, t) for t in thresholds}
    return out
