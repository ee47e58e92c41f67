"""Layer timings of obbkit's DOTA Task1 scoring path.

Times, as medians over repeated runs on a seeded crowded scene (4
images of 1024 x 1024 px with 250 rotated objects each in 5 classes;
every object gets 1-3 jittered detections, plus 40 false positives per
image and class, written as DOTA text files):

- ``canonicalize_many``: every raw detection and ground-truth quad in one
  call, also reported per quad;
- ``parse_detections``: ``parse_dota_detections`` on the raw detections;
- ``parse_annotations``: ``parse_dota_annotations`` on the ground truth;
- ``nms``: rotated NMS at IoU 0.5 within each image of the parsed raw
  detections;
- ``iou_pairs``: ``polygon_iou_pairs`` on the quad pairs that ``nms``
  sends to it (recorded from one NMS run), also reported per pair;
- ``match_ap``: ``evaluate`` (matching at IoU 0.5 and 11-point AP) of
  the kept detections;
- ``write``: ``write_dota_detections`` of the kept detections;
- ``cli_nms_eval``: ``obbkit nms`` then ``obbkit eval`` in-process;
- ``match_crowded``: ``evaluate`` at IoU 0.5 on one crowded image of
  small vehicles (one class, 8-24 x 5-12 px), 20,000 detections against
  2,000 ground-truth objects (built in memory, 9 jittered detections per
  object plus 2,000 false positives);
- ``match_column``: ``evaluate`` at IoU 0.5 on one image whose 400
  ground-truth objects (5-10 x 3-5 px) and 4,000 detections (9 jittered
  per object plus 400 false positives) all lie in one strip about 20 px
  wide, so a sweep over x alone pairs every detection with every object;
- ``match_stacked``: ``evaluate`` at IoU 0.5 on one image whose 300
  ground-truth objects and 3,000 detections (one class, 40 x 20 px at
  random angles) all lie within 3 px of one centre, so every detection's
  horizontal box overlaps every object's;
- ``parse_annotations_lines``: ``parse_dota_annotations`` on a copy of
  the ground truth without the difficult flag, whose 9-field lines take
  the line-by-line path instead of the one-loadtxt fast path.

Usage, from the root of a checkout (``bench/harness.py`` describes the
record of each case and the JSON output)::

    python3 bench/dota_layers.py [--repeats 7] [--cases a,b] [--out BENCH_dota.json]
"""

from __future__ import annotations

import math
from pathlib import Path

import harness  # before numpy: it sets the BLAS threads and finds obbkit
import numpy as np

from obbkit import geometry, inference
from obbkit.dota import parse_dota_annotations, parse_dota_detections, write_dota_detections
from obbkit.evaluation import ClassTable, GtIndex, evaluate
from obbkit.inference import DetectionSet, nms_per_image

IMAGES = 4
OBJECTS = 250
CLASSES = ("plane", "ship", "storage-tank", "small-vehicle", "harbor")
FALSE_POSITIVES = 40  # per image and class
IMAGE_SIZE = 1024.0
CROWDED_GT = 2000
CROWDED_JITTERED = 9  # detections per crowded ground-truth object
CROWDED_FALSE_POSITIVES = 2000
COLUMN_GT = 400
COLUMN_FALSE_POSITIVES = 400
STACKED_GT = 300
STACKED_DETS = 3000


def _rect(rng, cx, cy, length, width, angle):
    th = math.radians(angle)
    c, s = math.cos(th), math.sin(th)
    corners = ((-length / 2, -width / 2), (length / 2, -width / 2),
               (length / 2, width / 2), (-length / 2, width / 2))
    start = int(rng.integers(4))  # DOTA files start the quad at any vertex
    corners = corners[start:] + corners[:start]
    return [round(v, 1) for dx, dy in corners for v in (cx + c * dx - s * dy, cy + s * dx + c * dy)]


def _coords(values):
    return " ".join(f"{v:g}" for v in values)


def write_scene(root: Path, seed: int = 7) -> int:
    """Ground truth in root/gt, raw detections in root/raw; returns the number of quads."""
    rng = np.random.default_rng(seed)
    gt_dir, raw_dir = root / "gt", root / "raw"
    gt_dir.mkdir(parents=True)
    raw_dir.mkdir(parents=True)
    raw = {name: [] for name in CLASSES}
    quads = 0
    for i in range(IMAGES):
        image_id = f"P{i:04d}"
        lines = ["imagesource:GoogleEarth", "gsd:0.15"]
        for _ in range(OBJECTS):
            name = CLASSES[int(rng.integers(len(CLASSES)))]
            cx, cy = rng.uniform(20.0, IMAGE_SIZE - 20.0, 2)
            length, width = rng.uniform(8.0, 60.0), rng.uniform(6.0, 30.0)
            angle = rng.uniform(-90.0, 90.0)
            lines.append(f"{_coords(_rect(rng, cx, cy, length, width, angle))} {name} "
                         f"{int(rng.random() < 0.05)}")
            for _ in range(int(rng.integers(1, 4))):
                jitter = _rect(rng, cx + rng.normal(0, 1.5), cy + rng.normal(0, 1.5),
                               length * rng.uniform(0.9, 1.1), width * rng.uniform(0.9, 1.1),
                               angle + rng.normal(0, 4.0))
                raw[name].append(f"{image_id} {rng.uniform(0.3, 1.0):.4f} {_coords(jitter)}")
        for name in CLASSES:
            for _ in range(FALSE_POSITIVES):
                cx, cy = rng.uniform(20.0, IMAGE_SIZE - 20.0, 2)
                fp = _rect(rng, cx, cy, rng.uniform(8, 60), rng.uniform(6, 30), rng.uniform(-90, 90))
                raw[name].append(f"{image_id} {rng.uniform(0.05, 0.6):.4f} {_coords(fp)}")
        (gt_dir / f"{image_id}.txt").write_text("\n".join(lines) + "\n")
        quads += OBJECTS
    for name, lines in raw.items():
        (raw_dir / f"Task1_{name}.txt").write_text("\n".join(lines) + "\n")
        quads += len(lines)
    return quads


def scene_vertices(root: Path) -> np.ndarray:
    """Raw (N, 4, 2) vertices of every detection and ground-truth line, as read."""
    rows = []
    for f in sorted((root / "raw").glob("*.txt")):
        rows += [line.split()[2:] for line in f.read_text().splitlines() if line.strip()]
    for f in sorted((root / "gt").glob("*.txt")):
        rows += [line.split()[:8] for line in f.read_text().splitlines()
                 if line.strip() and not line.startswith(("imagesource", "gsd"))]
    return np.array(rows, dtype=float).reshape(-1, 4, 2)


def vehicle_scene(seed, n_gt, false_positives, x_range, length, width):
    """One image of small vehicles in memory: n_gt ground-truth objects with
    CROWDED_JITTERED detections each plus false_positives, centres x in
    x_range, sizes in the length and width ranges; returns (dets, gt)."""
    rng = np.random.default_rng(seed)
    lo, hi = (x_range[0], 20.0), (x_range[1], IMAGE_SIZE - 20.0)
    gt, raw = [], []
    for _ in range(n_gt):
        cx, cy = rng.uniform(lo, hi)
        size, across = rng.uniform(*length), rng.uniform(*width)
        angle = rng.uniform(-90.0, 90.0)
        gt.append(_rect(rng, cx, cy, size, across, angle))
        for _ in range(CROWDED_JITTERED):
            raw.append(_rect(rng, cx + rng.normal(0, 1.5), cy + rng.normal(0, 1.5),
                             size * rng.uniform(0.9, 1.1), across * rng.uniform(0.9, 1.1),
                             angle + rng.normal(0, 4.0)))
    for _ in range(false_positives):
        cx, cy = rng.uniform(lo, hi)
        raw.append(_rect(rng, cx, cy, rng.uniform(*length), rng.uniform(*width),
                         rng.uniform(-90, 90)))
    quads, fault = geometry.canonicalize_many(np.array(gt + raw).reshape(-1, 4, 2))
    if fault.any():
        raise RuntimeError("a vehicle scene has a quad that canonicalize_many rejects")
    n_gt, n_det = len(gt), len(raw)
    dets = DetectionSet(("P0000",), np.zeros(n_det, dtype=int), quads[n_gt:],
                        np.ones(n_det, dtype=int), rng.uniform(0.05, 1.0, n_det))
    gt_index = GtIndex(("P0000",), np.zeros(n_gt, dtype=int), quads[:n_gt],
                       np.ones(n_gt, dtype=int), rng.random(n_gt) < 0.05,
                       ClassTable(("small-vehicle",)))
    return dets, gt_index


def crowded_scene(seed: int = 11):
    """CROWDED_GT small vehicles (8-24 x 5-12 px) spread over the image."""
    return vehicle_scene(seed, CROWDED_GT, CROWDED_FALSE_POSITIVES, (20.0, IMAGE_SIZE - 20.0),
                         (8.0, 24.0), (5.0, 12.0))


def column_scene(seed: int = 13):
    """COLUMN_GT small vehicles (5-10 x 3-5 px) whose centres share one 6 px
    wide column, so every box lies in one strip about 20 px wide."""
    return vehicle_scene(seed, COLUMN_GT, COLUMN_FALSE_POSITIVES, (507.0, 513.0),
                         (5.0, 10.0), (3.0, 5.0))


def stacked_scene(seed: int = 17):
    """STACKED_GT objects and STACKED_DETS detections of one class, each
    40 x 20 px at a random angle, centred within 3 px of the image centre;
    returns (dets, gt)."""
    rng = np.random.default_rng(seed)
    n_gt, n_det = STACKED_GT, STACKED_DETS
    raw = [_rect(rng, *rng.uniform(509.0, 515.0, 2), 40.0, 20.0, rng.uniform(-90.0, 90.0))
           for _ in range(n_gt + n_det)]
    quads, fault = geometry.canonicalize_many(np.array(raw).reshape(-1, 4, 2))
    if fault.any():
        raise RuntimeError("the stacked scene has a quad that canonicalize_many rejects")
    dets = DetectionSet(("P0000",), np.zeros(n_det, dtype=int), quads[n_gt:],
                        np.ones(n_det, dtype=int), rng.uniform(0.05, 1.0, n_det))
    gt = GtIndex(("P0000",), np.zeros(n_gt, dtype=int), quads[:n_gt], np.ones(n_gt, dtype=int),
                 rng.random(n_gt) < 0.05, ClassTable(("small-vehicle",)))
    return dets, gt


def nms_sweep_pairs(dets) -> tuple[np.ndarray, np.ndarray]:
    """The quad pairs, as two (P, 4, 2) arrays, that nms_per_image at IoU 0.5
    sends to polygon_iou_pairs on dets."""
    recorded = []

    def recording(a, b):
        recorded.append((a, b))
        return geometry.polygon_iou_pairs(a, b)

    inference.polygon_iou_pairs = recording
    try:
        nms_per_image(dets, 0.5)
    finally:
        inference.polygon_iou_pairs = geometry.polygon_iou_pairs
    a, b = zip(*recorded)
    return np.concatenate(a), np.concatenate(b)


def make_cases(root: Path):
    """The case table of ``harness.main``, on scenes written under root."""
    n = write_scene(root)
    vertices = scene_vertices(root)
    dets, classes = parse_dota_detections(root / "raw")
    gt = parse_dota_annotations(root / "gt", classes)
    kept = nms_per_image(dets, 0.5)
    crowded_dets, crowded_gt = crowded_scene()
    scene = f"{IMAGES} images, {n} quads ({IMAGES * OBJECTS} ground truth)"
    cases = {"canonicalize_many": (scene, (n, "quad"),
                                   lambda: geometry.canonicalize_many(vertices))}
    cases["parse_detections"] = (f"{n - IMAGES * OBJECTS} raw detection lines", None,
                                 lambda: parse_dota_detections(root / "raw"))
    cases["parse_annotations"] = (f"{IMAGES * OBJECTS} annotation lines in {IMAGES} files", None,
                                  lambda: parse_dota_annotations(root / "gt"))
    cases["nms"] = (f"{n - IMAGES * OBJECTS} raw detections, IoU 0.5", None,
                    lambda: nms_per_image(dets, 0.5))
    pair_a, pair_b = nms_sweep_pairs(dets)
    cases["iou_pairs"] = (f"{len(pair_a)} NMS pairs of the raw detections", (len(pair_a), "pair"),
                          lambda: geometry.polygon_iou_pairs(pair_a, pair_b))
    cases["match_ap"] = ("kept detections vs ground truth, IoU 0.5", None,
                         lambda: evaluate(kept, gt, 0.5))
    cases["write"] = ("kept detections", None,
                      lambda: write_dota_detections(kept, classes, root / "written"))
    cases["cli_nms_eval"] = (scene, None, lambda: (
        harness.run_cli(["nms", "--dets", str(root / "raw"), "--iou", "0.5",
                         "--out", str(root / "kept")]),
        harness.run_cli(["eval", "--gt", str(root / "gt"), "--dets", str(root / "kept"),
                         "--json", str(root / "report.json")]),
    ))
    cases["match_crowded"] = (
        f"1 image, {len(crowded_dets)} detections vs {len(crowded_gt.image)} ground truth, "
        "one class, IoU 0.5", None, lambda: evaluate(crowded_dets, crowded_gt, 0.5))
    column_dets, column_gt = column_scene()
    cases["match_column"] = (
        f"1 image, {len(column_dets)} detections vs {len(column_gt.image)} ground truth "
        "in one 20 px column, one class, IoU 0.5", None,
        lambda: evaluate(column_dets, column_gt, 0.5))
    stacked_dets, stacked_gt = stacked_scene()
    cases["match_stacked"] = (
        f"1 image, {len(stacked_dets)} detections vs {len(stacked_gt.image)} ground truth "
        "within 3 px of one centre, one class, IoU 0.5", None,
        lambda: evaluate(stacked_dets, stacked_gt, 0.5))
    (root / "gt9").mkdir()
    for f in sorted((root / "gt").glob("*.txt")):
        lines = [line.rsplit(" ", 1)[0] if len(line.split()) == 10 else line
                 for line in f.read_text().splitlines()]
        (root / "gt9" / f.name).write_text("\n".join(lines) + "\n")
    cases["parse_annotations_lines"] = (
        f"{IMAGES * OBJECTS} annotation lines of 9 fields in {IMAGES} files", None,
        lambda: parse_dota_annotations(root / "gt9"))
    return cases


if __name__ == "__main__":
    harness.main(__doc__, "BENCH_dota.json", make_cases)
