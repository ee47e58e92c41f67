"""Layer timings of obbkit's training path.

Times, as medians over repeated runs on a seeded 1024 x 1024 scene of
100 rotated objects in 15 classes (sizes 12-600 px, log-uniform; about
5% difficult), on the default five-level pyramid (strides 8-128,
21,824 locations):

- ``assign_targets``: per-level targets of the scene;
- ``total_loss``: the composite loss and its gradients on seeded
  predictions (class scores and centerness inside (0, 1), positive
  offsets) over all levels;
- ``focal_sum``: the dense focal pass of ``total_loss`` alone, on the
  same class scores and positives;
- ``fit_demo_step``: ``fit_demo`` with one step, that is the initial
  evaluation, the chain rule and the backtracking trials of one step;
- ``fit_positives``: the fit ``obbkit fit-demo`` runs per image
  (``losses._fit_positives``) on the scene's positives of all levels,
  FIT_STEPS steps;
- ``cli_fit_demo``: ``obbkit fit-demo --steps 8`` on the scene written
  as a DOTA annotation file, in-process;
- ``cli_assign``: ``obbkit assign`` on the same file at the same image
  size, in-process (the per-level target dump, with its number
  formatting).

Usage, from the root of a checkout (``bench/harness.py`` describes the
record of each case and the JSON output)::

    python3 bench/train_layers.py [--repeats 7] [--cases a,b] [--out BENCH_train.json]

``fit_positives`` fits the one positive record of
``cli._image_positives`` (the positives of all levels as a single
``TargetMaps``), so the script needs a release with that record; the
releases before it are timed with the script of their own checkout,
whose cases have the same names and scene.
"""

from __future__ import annotations

import math
from pathlib import Path

import harness  # before numpy: it sets the BLAS threads and finds obbkit
import numpy as np

from obbkit import cli
from obbkit.config import build_config
from obbkit.dota import parse_dota_annotations
from obbkit.losses import PredictionBatch, _fit_positives, _focal_sum, fit_demo, total_loss
from obbkit.targets import TargetMaps, assign_targets, grid_specs

IMAGE_SIZE = 1024
OBJECTS = 100
CLASSES = ("plane", "ship", "storage-tank", "baseball-diamond", "tennis-court",
           "basketball-court", "ground-track-field", "harbor", "bridge", "large-vehicle",
           "small-vehicle", "helicopter", "roundabout", "soccer-ball-field", "swimming-pool")
FIT_STEPS = 8


def _rect(cx, cy, length, width, angle):
    th = math.radians(angle)
    c, s = math.cos(th), math.sin(th)
    corners = ((-length / 2, -width / 2), (length / 2, -width / 2),
               (length / 2, width / 2), (-length / 2, width / 2))
    return [round(v, 2) for dx, dy in corners for v in (cx + c * dx - s * dy, cy + s * dx + c * dy)]


def write_scene(root: Path, seed: int = 11) -> Path:
    """One annotation file of OBJECTS rotated rectangles inside the image; returns its directory."""
    rng = np.random.default_rng(seed)
    lines = []
    while len(lines) < OBJECTS:
        length = math.exp(rng.uniform(math.log(12.0), math.log(600.0)))
        width = max(length / rng.uniform(1.0, 4.0), 8.0)
        angle = rng.uniform(5.0, 85.0)
        reach = (length + width) / 2.0
        if reach >= IMAGE_SIZE / 2.0 - 1.0:
            continue
        cx, cy = rng.uniform(reach, IMAGE_SIZE - reach, 2)
        name = CLASSES[len(lines) % len(CLASSES)]
        coords = " ".join(f"{v:g}" for v in _rect(cx, cy, length, width, angle))
        lines.append(f"{coords} {name} {int(rng.random() < 0.05)}")
    gt = root / "gt"
    gt.mkdir()
    (gt / "S0000.txt").write_text("\n".join(lines) + "\n")
    return gt


def seeded_predictions(n: int, num_classes: int, seed: int = 12) -> PredictionBatch:
    rng = np.random.default_rng(seed)
    return PredictionBatch(
        rng.uniform(0.01, 0.99, (n, num_classes)),
        rng.uniform(0.01, 0.99, n),
        rng.uniform(1.0, 300.0, (n, 4)),
        rng.uniform(0.5, 200.0, (n, 2)),
    )


def make_cases(root: Path):
    """The case table of ``harness.main``, on a scene written under root."""
    gt_dir = write_scene(root)
    gt = parse_dota_annotations(gt_dir)
    objects = gt.images["S0000"]
    cfg = build_config()
    specs = grid_specs(IMAGE_SIZE, IMAGE_SIZE, cfg.strides)

    def assign():
        return assign_targets(specs, cfg.level_ranges, objects, cfg.center_radius_mult)

    flat = TargetMaps.concatenate(assign())
    num_classes = len(gt.classes)
    preds = seeded_predictions(len(flat), num_classes)
    pos = np.flatnonzero(flat.class_id > 0)
    onehot = pos * num_classes + flat.class_id[pos] - 1
    num_pos = int(pos.size)
    rows = np.arange(len(gt.class_id))
    _, _, _, positives, _ = cli._image_positives(gt, rows, cfg, (IMAGE_SIZE, IMAGE_SIZE))

    def fit_positives():
        return _fit_positives(
            len(flat), positives.class_id, (positives.centerness, positives.ltrb, positives.wh),
            positives.points, cfg.weights, FIT_STEPS, 0.05, num_classes,
        )

    scene = (f"{IMAGE_SIZE}x{IMAGE_SIZE}, {len(objects)} objects, {len(flat)} locations, "
             f"{num_pos} positives, {num_classes} classes")
    return {
        "assign_targets": (scene, None, assign),
        "total_loss": (scene, None, lambda: total_loss(preds, flat, cfg.weights)),
        "focal_sum": (scene, None, lambda: _focal_sum(
            preds.class_scores, onehot, cfg.weights.focal_alpha, cfg.weights.focal_beta)),
        "fit_demo_step": (scene, None, lambda: fit_demo(flat, cfg.weights, steps=1,
                                                        num_classes=num_classes)),
        "fit_positives": (f"{scene}, {FIT_STEPS} steps", None, fit_positives),
        "cli_fit_demo": (f"{scene}, fit-demo --steps {FIT_STEPS}", None, lambda: harness.run_cli(
            ["fit-demo", "--gt", str(gt_dir), "--image-size", f"{IMAGE_SIZE}x{IMAGE_SIZE}",
             "--steps", str(FIT_STEPS)])),
        "cli_assign": (f"{scene}, assign", None, lambda: harness.run_cli(
            ["assign", "--gt", str(gt_dir), "--image-size", f"{IMAGE_SIZE}x{IMAGE_SIZE}"])),
    }


if __name__ == "__main__":
    harness.main(__doc__, "BENCH_train.json", make_cases)
