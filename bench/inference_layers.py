"""Layer timings of obbkit's detection post-processing.

Times, as medians over repeated runs on seeded inputs:

- ``run_inference`` on a detect-shaped 1024 x 1024 pyramid (21,824
  locations x 15 classes, strides 8-128): 100 planted objects light 3 x 3
  cells each, about 30% of them on a second class too; background fused
  scores stay under the 0.05 threshold;
- ``run_inference`` on the dense map: the same pyramid with every
  (location, class) pair above the threshold, NMS at 0.5;
- ``nms_per_image`` on one image of 2000 scattered one-class boxes whose
  neighbours' horizontal boxes overlap but whose IoU stays low (all are
  kept);
- ``nms_per_image`` on one image of 200 clusters of 10 jittered copies
  of one box (most are suppressed);
- ``nms_per_image`` on one image of a chain of 2000 one-class 10 x 10
  squares 7 px apart, scored in chain order: each overlaps only its
  neighbours (IoU 0.18, all are kept), but every row waits on the one
  before it, so NMS resolves most of the chain in its fallback pass;
- ``nms_per_image`` on one image of 10,000 one-class 40 x 20 boxes,
  axis-aligned, their centres within 3 px of one point on each axis:
  every pair's horizontal boxes overlap, so NMS expands about 50M pairs
  to keep one box;
- ``ie_fuse`` on detect-shaped features: 5 levels of 64 channels, 128 x
  128 down to 8 x 8, standard-normal inputs and weights scaled by 0.01.

Usage, from the root of a checkout (``bench/harness.py`` describes the
record of each case and the JSON output; each record adds ``outputs``,
the length of the case's result, such as the number of kept detections)::

    python3 bench/inference_layers.py [--repeats 7] [--cases a,b] [--out BENCH_inference.json]
"""

from __future__ import annotations

import math
from pathlib import Path

import harness  # before numpy: it sets the BLAS threads and finds obbkit
import numpy as np

from obbkit.geometry import canonicalize, canonicalize_many, encode
from obbkit.ie_attention import AttentionWeights, FeatureMap, ie_fuse
from obbkit.inference import (
    NMS_IOU_THRESHOLD, SCORE_THRESHOLD, DetectionSet, nms_per_image, run_inference,
)
from obbkit.losses import PredictionBatch
from obbkit.targets import grid_specs

IMAGE_SIZE = 1024
STRIDES = (8, 16, 32, 64, 128)
NUM_CLASSES = 15


def rect_corners(cx, cy, width, height, angle_deg):
    """Raw corners of a width x height rectangle rotated around its center."""
    th = math.radians(angle_deg)
    c, s = math.cos(th), math.sin(th)
    corners = [(-width / 2, -height / 2), (width / 2, -height / 2),
               (width / 2, height / 2), (-width / 2, height / 2)]
    return [(cx + c * dx - s * dy, cy + s * dx + c * dy) for dx, dy in corners]


def one_image(name, corners, class_id, score):
    """A DetectionSet of one image from raw corners, canonicalized in one call."""
    quads, fault = canonicalize_many(np.array(corners, dtype=float))
    if fault.any():
        raise ValueError("degenerate rectangle in a seeded scene")
    n = len(quads)
    return DetectionSet((name,), np.zeros(n, dtype=int), quads, np.array(class_id), np.array(score))


def detect_map(seed=1):
    """Sparse maps: about 1,200 candidates from 100 planted objects."""
    rng = np.random.default_rng(seed)
    specs = grid_specs(IMAGE_SIZE, IMAGE_SIZE, STRIDES)
    heads = []
    for spec in specs:
        n = spec.width * spec.height
        heads.append([
            rng.uniform(0.0, 0.2, (n, NUM_CLASSES)),
            rng.uniform(0.0, 0.2, n),
            rng.uniform(1.0, 64.0, (n, 4)),
            rng.uniform(0.0, 16.0, (n, 2)),
        ])
    for _ in range(100):
        level = int(rng.integers(0, 4))
        spec, (scores, cent, ltrb, wh) = specs[level], heads[level]
        s = spec.stride
        xc, yc = (int(v) for v in rng.integers(1, spec.width - 1, 2))
        px, py = s // 2 + xc * s, s // 2 + yc * s
        quad = canonicalize(
            rect_corners(px, py, rng.uniform(4, 7) * s, rng.uniform(3.5, 4) * s, rng.uniform(8, 82))
        )
        box = encode(quad)
        hbb = box.hbb
        primary = int(rng.integers(NUM_CLASSES))
        second = int((primary + rng.integers(1, NUM_CLASSES)) % NUM_CLASSES) if rng.random() < 0.3 else None
        for y in (yc - 1, yc, yc + 1):
            for x in (xc - 1, xc, xc + 1):
                idx = y * spec.width + x
                qx, qy = s // 2 + x * s, s // 2 + y * s
                scores[idx] = rng.uniform(0.0, 0.04, NUM_CLASSES)
                scores[idx, primary] = rng.uniform(0.5, 0.95)
                if second is not None:
                    scores[idx, second] = rng.uniform(0.2, 0.45)
                cent[idx] = rng.uniform(0.6, 0.95)
                ltrb[idx] = (qx - hbb.xmin, qy - hbb.ymin, hbb.xmax - qx, hbb.ymax - qy)
                wh[idx] = (box.w, box.h)
    return [PredictionBatch(*h) for h in heads], specs


def dense_map(seed=21824):
    """Every (location, class) pair clears the threshold: 327,360 candidates."""
    rng = np.random.default_rng(seed)
    specs = grid_specs(IMAGE_SIZE, IMAGE_SIZE, STRIDES)
    batches = []
    for spec in specs:
        n, s = spec.width * spec.height, spec.stride
        batches.append(PredictionBatch(
            rng.uniform(0.5, 1.0, (n, NUM_CLASSES)),
            rng.uniform(0.5, 1.0, n),
            rng.uniform(0.5 * s, 2.0 * s, (n, 4)),
            rng.uniform(0.0, 2.0 * s, (n, 2)),
        ))
    return batches, specs


def scattered_boxes(seed=2000):
    rng = np.random.default_rng(seed)
    corners, scores = [], []
    for k in range(2000):
        cx = 25.0 * (k % 50) + rng.uniform(-3, 3)
        cy = 25.0 * (k // 50) + rng.uniform(-3, 3)
        w, h = rng.uniform(10, 30, 2)
        corners.append(rect_corners(cx, cy, w, h, rng.uniform(-90, 90)))
        scores.append(float(rng.random()))
    return one_image("scattered", corners, [1] * 2000, scores)


def clustered_boxes(seed=200):
    rng = np.random.default_rng(seed)
    corners, classes, scores = [], [], []
    for k in range(200):
        cx, cy = 60.0 * (k % 20), 60.0 * (k // 20)
        w, h, angle = rng.uniform(15, 40), rng.uniform(10, 25), rng.uniform(-90, 90)
        class_id = int(rng.integers(1, 4))
        for _ in range(10):
            corners.append(rect_corners(cx + rng.uniform(-2, 2), cy + rng.uniform(-2, 2),
                                        w * rng.uniform(0.9, 1.1), h * rng.uniform(0.9, 1.1),
                                        angle + rng.uniform(-5, 5)))
            classes.append(class_id)
            scores.append(float(rng.random()))
    return one_image("clustered", corners, classes, scores)


def chained_boxes():
    corners = [rect_corners(7.0 * k, 0.0, 10.0, 10.0, 0.0) for k in range(2000)]
    return one_image("chain", corners, [1] * 2000, [1.0 - k / 2000 for k in range(2000)])


def stacked_boxes(seed=10000):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(509.0, 515.0, (10000, 2)).tolist()
    corners = [rect_corners(cx, cy, 40.0, 20.0, 0.0) for cx, cy in centres]
    return one_image("stacked", corners, [1] * 10000, rng.random(10000).tolist())


def fusion_maps(seed=64, channels=64, sides=(128, 64, 32, 16, 8)):
    """Per level, (cls, reg, ori) feature maps of side x side locations."""
    rng = np.random.default_rng(seed)
    return [
        [FeatureMap(channels, side, side, rng.standard_normal((channels, side * side)))
         for _ in range(3)]
        for side in sides
    ]


def candidates(batches):
    fused = (b.class_scores * b.centerness[:, None] for b in batches)
    return int(sum((f >= SCORE_THRESHOLD).sum() for f in fused))


def make_cases(root: Path):
    """The case table of ``harness.main``; the scenes live in memory, so root is unused."""
    batches, specs = detect_map()
    dense, dense_specs = dense_map()
    scattered, clustered, chain = scattered_boxes(), clustered_boxes(), chained_boxes()
    stacked = stacked_boxes()
    maps, weights = fusion_maps(), AttentionWeights.seeded(64, 64)
    return {
        "run_inference_detect": (
            f"21,824 locations x 15 classes, {candidates(batches)} candidates", None,
            lambda: run_inference(batches, specs)),
        "run_inference_dense": (
            f"21,824 locations x 15 classes, {candidates(dense)} candidates, "
            f"NMS {NMS_IOU_THRESHOLD}", None, lambda: run_inference(dense, dense_specs)),
        "nms_scattered": ("2000 one-class boxes, NMS 0.5", None,
                          lambda: nms_per_image(scattered, 0.5)),
        "nms_clustered": ("200 clusters of 10 boxes, NMS 0.5", None,
                          lambda: nms_per_image(clustered, 0.5)),
        "nms_chain": ("chain of 2000 one-class boxes, NMS 0.5", None,
                      lambda: nms_per_image(chain, 0.5)),
        "nms_stacked": ("10,000 stacked one-class boxes, NMS 0.5", None,
                        lambda: nms_per_image(stacked, 0.5)),
        "ie_fuse_detect": ("5 levels x 64 channels, 128^2 down to 8^2", None,
                           lambda: [ie_fuse(cls, reg, ori, weights) for cls, reg, ori in maps]),
    }


if __name__ == "__main__":
    harness.main(__doc__, "BENCH_inference.json", make_cases, outputs=len)
