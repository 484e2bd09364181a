"""Detection scoring end to end: IoU, greedy matching, the PR curve,
101-point interpolated AP, and mAP over an IoU threshold range."""

from fastblocks.metrics import (
    RANGE_THRESHOLDS,
    BBox,
    Detection,
    GroundTruth,
    average_precision,
    evaluate,
    iou,
    match_detections,
    pr_curve,
)


def main() -> None:
    # IoU on corner-form boxes. Unit squares offset by half overlap 1/7.
    a = BBox(0, 0, 1, 1)
    b = BBox(0.5, 0.5, 1.5, 1.5)
    print(f"iou of half-offset unit squares: {iou(a, b):.4f} (1/7 = {1 / 7:.4f})")

    # A two-image scene: three objects, four detections of mixed quality.
    gts = [
        GroundTruth("img0", 0, BBox(10, 10, 50, 50)),
        GroundTruth("img0", 0, BBox(60, 10, 90, 40)),
        GroundTruth("img1", 0, BBox(20, 20, 40, 60)),
    ]
    dets = [
        Detection("img0", 0, BBox(12, 11, 51, 49), 0.95),   # good hit
        Detection("img0", 0, BBox(58, 12, 88, 42), 0.80),   # good hit
        Detection("img0", 0, BBox(11, 12, 49, 52), 0.60),   # duplicate of the first object
        Detection("img1", 0, BBox(25, 25, 80, 80), 0.40),   # too loose to match
    ]

    # Matching walks detections in descending confidence; each ground truth
    # can be claimed once, so the duplicate and the loose box become FPs.
    (labels,), (missed,) = match_detections(dets, gts, (0.5,))
    print(f"\nTP/FP labels in confidence order: {labels}, unmatched ground truths: {missed}")

    curve = pr_curve(labels, total_gt=len(gts))
    for k, (precision, recall) in enumerate(curve, start=1):
        print(f"  rank {k}: precision {precision:.3f}  recall {recall:.3f}")
    print(f"AP@0.50 = {average_precision(curve):.4f} (101-point interpolation)")

    # evaluate() runs the same pipeline per category and averages; with the
    # 0.50:0.05:0.95 range it also reports the strict-threshold mean.
    result = evaluate(dets, gts, RANGE_THRESHOLDS)
    print(f"\nmAP@0.50    = {result.map50:.4f}")
    print(f"mAP@.5:.95  = {result.map5095:.4f}")
    print(f"dataset precision {result.dataset_precision:.3f}, "
          f"recall {result.dataset_recall:.3f} at IoU 0.50")


if __name__ == "__main__":
    main()
