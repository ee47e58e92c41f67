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
- ``ie_fuse`` on detect-shaped features: 5 levels of 64 channels, 128 x
  128 down to 8 x 8, standard-normal inputs and weights scaled by 0.01.

Usage, from the root of a checkout (obbkit is imported from PYTHONPATH,
or from ./src when it is not importable)::

    python3 bench/inference_layers.py [--repeats 7] [--cases a,b] [--out BENCH_inference.json]

BLAS is limited to one thread unless the environment sets otherwise. The
JSON output records each case's runs, median and input size, plus the
Python and numpy versions, the machine, and the BLAS thread setting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread setting)

try:
    import obbkit  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obbkit.geometry import canonicalize, canonicalize_many, encode  # noqa: E402
from obbkit.ie_attention import AttentionWeights, FeatureMap, ie_fuse  # noqa: E402
from obbkit.inference import (  # noqa: E402
    NMS_IOU_THRESHOLD,
    SCORE_THRESHOLD,
    DetectionSet,
    nms_per_image,
    run_inference,
)
from obbkit.losses import PredictionBatch  # noqa: E402
from obbkit.targets import grid_specs  # noqa: E402

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


def detect_map(rng):
    """Sparse maps: about 1,200 candidates from 100 planted objects."""
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


def dense_map(rng):
    """Every (location, class) pair clears the threshold: 327,360 candidates."""
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


def scattered_boxes(rng):
    corners, scores = [], []
    for k in range(2000):
        cx = 25.0 * (k % 50) + rng.uniform(-3, 3)
        cy = 25.0 * (k // 50) + rng.uniform(-3, 3)
        w, h = rng.uniform(10, 30, 2)
        corners.append(rect_corners(cx, cy, w, h, rng.uniform(-90, 90)))
        scores.append(float(rng.random()))
    return one_image("scattered", corners, [1] * 2000, scores)


def clustered_boxes(rng):
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


def fusion_maps(rng, channels=64, sides=(128, 64, 32, 16, 8)):
    """Per level, (cls, reg, ori) feature maps of side x side locations."""
    return [
        [FeatureMap(channels, side, side, rng.standard_normal((channels, side * side)))
         for _ in range(3)]
        for side in sides
    ]


def candidates(batches):
    fused = (b.class_scores * b.centerness[:, None] for b in batches)
    return int(sum((f >= SCORE_THRESHOLD).sum() for f in fused))


def make_cases():
    """name -> (input description, zero-argument callable returning the output)."""
    cases = {}
    batches, specs = detect_map(np.random.default_rng(1))
    cases["run_inference_detect"] = (
        f"21,824 locations x 15 classes, {candidates(batches)} candidates",
        lambda: run_inference(batches, specs),
    )
    dense, dense_specs = dense_map(np.random.default_rng(21824))
    cases["run_inference_dense"] = (
        f"21,824 locations x 15 classes, {candidates(dense)} candidates, NMS {NMS_IOU_THRESHOLD}",
        lambda: run_inference(dense, dense_specs),
    )
    scattered = scattered_boxes(np.random.default_rng(2000))
    cases["nms_scattered"] = ("2000 one-class boxes, NMS 0.5", lambda: nms_per_image(scattered, 0.5))
    clustered = clustered_boxes(np.random.default_rng(200))
    cases["nms_clustered"] = ("200 clusters of 10 boxes, NMS 0.5", lambda: nms_per_image(clustered, 0.5))
    chain = chained_boxes()
    cases["nms_chain"] = ("chain of 2000 one-class boxes, NMS 0.5", lambda: nms_per_image(chain, 0.5))
    maps = fusion_maps(np.random.default_rng(64))
    weights = AttentionWeights.seeded(64, 64)
    cases["ie_fuse_detect"] = (
        "5 levels x 64 channels, 128^2 down to 8^2",
        lambda: [ie_fuse(cls, reg, ori, weights) for cls, reg, ori in maps],
    )
    return cases


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per case (default 7)")
    parser.add_argument("--cases", help="comma-separated subset of the cases to run")
    parser.add_argument("--out", default="BENCH_inference.json", help="JSON output path")
    args = parser.parse_args(argv)
    cases = make_cases()
    names = args.cases.split(",") if args.cases else list(cases)
    unknown = sorted(set(names) - set(cases))
    if unknown:
        parser.error(f"unknown cases {unknown}; choose from {sorted(cases)}")
    results = {}
    for name in names:
        description, run = cases[name]
        outputs = len(run())  # untimed warm-up
        runs = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            run()
            runs.append(time.perf_counter() - start)
        results[name] = {"input": description, "outputs": outputs,
                         "median_s": statistics.median(runs), "runs_s": runs}
        print(f"{name:24s} median {results[name]['median_s']:.4f} s  "
              f"({description}; {outputs} out)", flush=True)
    report = {"environment": environment(), "repeats": args.repeats, "cases": results}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
