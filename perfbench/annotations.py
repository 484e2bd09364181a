"""Seeded detection annotation sets in the text format `fastblocks evaluate` reads.

The set imitates a detector's output on a photo collection. Most images hold
a few objects; about a tenth (8%) are crowded, with 30 or more ground-truth
boxes. A detector fires several jittered boxes around each object and a few
false positives per image. Greedy matching cost grows with the square of the
boxes per image and category, so the crowded tenth carries most of the
matching work while the sparse majority carries most of the parsing.

Coordinates are rounded to two decimals and confidences to four before they
are written, and the returned tuples hold the rounded values, so a reader of
the files sees exactly the numbers the generator returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_SIZE = 640.0
N_IMAGES = 2000
N_CATEGORIES = 5
CROWDED_SHARE = 0.08
CROWDED_OBJECTS = (30, 34)
# Objects per sparse image: 1..6 with falling weights.
SPARSE_WEIGHTS = (0.66, 0.18, 0.07, 0.05, 0.02, 0.02)
# Detections fired around one object: 0..6 with these weights (mean 3.47).
HIT_WEIGHTS = (0.03, 0.08, 0.14, 0.24, 0.26, 0.15, 0.10)
# False positives per image: 0..7, roughly Poisson with mean 3.
FALSE_POSITIVE_WEIGHTS = (0.05, 0.15, 0.22, 0.22, 0.17, 0.1, 0.05, 0.04)


def _image_name(index: int) -> str:
    return f"img{index:05d}"


@dataclass(frozen=True)
class AnnotationSet:
    """Ground truths `(image, category, x1, y1, x2, y2)` and detections
    `(image, category, x1, y1, x2, y2, confidence)`."""

    ground_truths: list[tuple]
    detections: list[tuple]

    def sample(self, seed: int, n_images: int) -> AnnotationSet:
        """The rows of `n_images` images drawn by `seed`, all else dropped."""
        rng = np.random.default_rng(seed)
        images = {_image_name(i) for i in rng.choice(N_IMAGES, size=n_images, replace=False)}
        return AnnotationSet(
            [r for r in self.ground_truths if r[0] in images], [r for r in self.detections if r[0] in images]
        )

    def stats(self) -> dict:
        """Input size on record: counts and the most crowded image."""
        gt_per_image: dict[str, int] = {}
        boxes_per_image: dict[str, int] = {}
        for row in self.ground_truths:
            gt_per_image[row[0]] = gt_per_image.get(row[0], 0) + 1
            boxes_per_image[row[0]] = boxes_per_image.get(row[0], 0) + 1
        for row in self.detections:
            boxes_per_image[row[0]] = boxes_per_image.get(row[0], 0) + 1
        return {
            "images": len(boxes_per_image),
            "ground_truths": len(self.ground_truths),
            "detections": len(self.detections),
            "categories": len({row[1] for row in self.ground_truths}),
            "max_gt_per_image": max(gt_per_image.values()),
            "max_boxes_per_image": max(boxes_per_image.values()),
            "images_with_30_gt": sum(1 for n in gt_per_image.values() if n >= 30),
        }


def _boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    """`n` boxes of 16..128 px sides placed inside the image, as (n, 4)."""
    wh = rng.uniform(16.0, 128.0, size=(n, 2))
    x1y1 = rng.uniform(0.0, 1.0, size=(n, 2)) * (IMAGE_SIZE - wh)
    return np.hstack([x1y1, x1y1 + wh])


def _text_values(array: np.ndarray, decimals: int) -> list[list[float]]:
    """Round through the text form the files hold, so files and tuples agree."""
    return [[float(f"{v:.{decimals}f}") for v in row] for row in np.atleast_2d(array).tolist()]


def _shuffled_counts(rng: np.random.Generator, weights, n: int, low: int = 0) -> np.ndarray:
    """`n` counts from `low` up, holding each value in the exact share its
    weight gives (largest remainder), in seeded order."""
    exact = np.asarray(weights) / sum(weights) * n
    repeats = np.floor(exact).astype(int)
    repeats[np.argsort(repeats - exact)[: n - repeats.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(low, low + len(weights)), repeats))


def generate(seed: int) -> AnnotationSet:
    """The annotation set for `seed`; the same seed gives the same set.

    The seed moves boxes, categories and which images are crowded; the count
    of images, objects, hits and false positives is the same for every seed,
    so every seed asks for about the same work.
    """
    rng = np.random.default_rng(seed)
    n_crowded = round(CROWDED_SHARE * N_IMAGES)
    crowded_span = CROWDED_OBJECTS[1] - CROWDED_OBJECTS[0] + 1
    n_objects = np.concatenate([
        _shuffled_counts(rng, [1] * crowded_span, n_crowded, low=CROWDED_OBJECTS[0]),
        _shuffled_counts(rng, SPARSE_WEIGHTS, N_IMAGES - n_crowded, low=1),
    ])[rng.permutation(N_IMAGES)]
    object_image = np.repeat(np.arange(N_IMAGES), n_objects)
    object_category = rng.integers(N_CATEGORIES, size=object_image.size)
    objects = _boxes(rng, object_image.size)

    # Hits: jittered copies of an object; a larger jitter means a lower confidence.
    hit_object = np.repeat(np.arange(object_image.size), _shuffled_counts(rng, HIT_WEIGHTS, object_image.size))
    jitter = rng.uniform(0.0, 0.3, size=hit_object.size)
    base = objects[hit_object]
    wh = base[:, 2:] - base[:, :2]
    hits = base + rng.normal(size=(hit_object.size, 4)) * jitter[:, None] * np.hstack([wh, wh])
    hits[:, 2:] = np.maximum(hits[:, 2:], hits[:, :2] + 1.0)
    hit_confidence = np.clip(1.0 - 2.5 * jitter + rng.normal(0.0, 0.1, size=hit_object.size), 0.0, 1.0)

    fp_image = np.repeat(np.arange(N_IMAGES), _shuffled_counts(rng, FALSE_POSITIVE_WEIGHTS, N_IMAGES))
    fp_category = rng.integers(N_CATEGORIES, size=fp_image.size)
    false_positives = _boxes(rng, fp_image.size)
    fp_confidence = rng.uniform(0.0, 0.6, size=fp_image.size)

    names = [_image_name(i) for i in range(N_IMAGES)]
    gts = [
        (names[i], c, *box)
        for i, c, box in zip(object_image.tolist(), object_category.tolist(), _text_values(objects, 2))
    ]
    det_image = np.concatenate([object_image[hit_object], fp_image]).tolist()
    det_category = np.concatenate([object_category[hit_object], fp_category]).tolist()
    det_boxes = _text_values(np.vstack([hits, false_positives]), 2)
    det_confidence = _text_values(np.concatenate([hit_confidence, fp_confidence])[None, :], 4)[0]
    dets = [
        (names[i], c, *box, conf)
        for i, c, box, conf in zip(det_image, det_category, det_boxes, det_confidence)
    ]
    return AnnotationSet(gts, dets)


def write(annotations: AnnotationSet, directory: Path) -> tuple[Path, Path]:
    """Write `gt.txt` and `det.txt` into `directory`; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    gt_path, det_path = directory / "gt.txt", directory / "det.txt"
    gt_path.write_text(
        "".join(f"{r[0]} {r[1]} {r[2]:.2f} {r[3]:.2f} {r[4]:.2f} {r[5]:.2f}\n" for r in annotations.ground_truths),
        encoding="utf-8",
    )
    det_path.write_text(
        "".join(
            f"{r[0]} {r[1]} {r[2]:.2f} {r[3]:.2f} {r[4]:.2f} {r[5]:.2f} {r[6]:.4f}\n" for r in annotations.detections
        ),
        encoding="utf-8",
    )
    return gt_path, det_path
