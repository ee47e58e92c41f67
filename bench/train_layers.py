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
- ``cli_fit_demo``: ``obbkit fit-demo --steps 8`` on the scene written
  as a DOTA annotation file, in-process;
- ``cli_assign``: ``obbkit assign`` on the same file at the same image
  size, in-process (the per-level target dump, with its number
  formatting).

Usage, from the root of a checkout (obbkit is imported from PYTHONPATH,
or from ./src when it is not importable)::

    python3 bench/train_layers.py [--repeats 7] [--cases a,b] [--out BENCH_train.json]

The script uses only what releases before the lean training path
already had (``assign_targets``, ``TargetMaps.concatenate``,
``total_loss``, ``_focal_sum(scores, pos, alpha, beta)``, ``fit_demo``
and the ``fit-demo`` and ``assign`` commands), so one script gives
before and after numbers. BLAS is
limited to one thread unless the environment sets otherwise. The JSON
output records each case's runs, median and input size, and the minor
page faults of each run (``ru_minflt`` of the whole process, so memory
that is handed back to the OS and touched again shows up), plus the
Python and numpy versions, the machine, and the BLAS thread setting.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread setting)

try:
    import obbkit
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import obbkit

from obbkit import cli  # noqa: E402
from obbkit.config import build_config  # noqa: E402
from obbkit.dota import parse_dota_annotations  # noqa: E402
from obbkit.losses import PredictionBatch, _focal_sum, fit_demo, total_loss  # noqa: E402
from obbkit.targets import TargetMaps, assign_targets, grid_specs  # noqa: E402

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


def run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"obbkit {' '.join(argv)} failed")


def make_cases(root: Path):
    """name -> (input description, zero-argument callable)."""
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
    scene = (f"{IMAGE_SIZE}x{IMAGE_SIZE}, {len(objects)} objects, {len(flat)} locations, "
             f"{num_pos} positives, {num_classes} classes")
    return {
        "assign_targets": (scene, assign),
        "total_loss": (scene, lambda: total_loss(preds, flat, cfg.weights)),
        "focal_sum": (scene, lambda: _focal_sum(preds.class_scores, onehot,
                                                cfg.weights.focal_alpha, cfg.weights.focal_beta)),
        "fit_demo_step": (scene, lambda: fit_demo(flat, cfg.weights, steps=1,
                                                  num_classes=num_classes)),
        "cli_fit_demo": (f"{scene}, fit-demo --steps {FIT_STEPS}", lambda: run_cli(
            ["fit-demo", "--gt", str(gt_dir), "--image-size", f"{IMAGE_SIZE}x{IMAGE_SIZE}",
             "--steps", str(FIT_STEPS)])),
        "cli_assign": (f"{scene}, assign", lambda: run_cli(
            ["assign", "--gt", str(gt_dir), "--image-size", f"{IMAGE_SIZE}x{IMAGE_SIZE}"])),
    }


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "obbkit": str(Path(obbkit.__file__).resolve().parent),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per case (default 7)")
    parser.add_argument("--cases", help="comma-separated subset of the cases to run")
    parser.add_argument("--out", default="BENCH_train.json", help="JSON output path")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cases = make_cases(Path(tmp))
        names = args.cases.split(",") if args.cases else list(cases)
        unknown = sorted(set(names) - set(cases))
        if unknown:
            parser.error(f"unknown cases {unknown}; choose from {sorted(cases)}")
        results = {}
        for name in names:
            description, run = cases[name]
            run()  # untimed warm-up
            runs, faults = [], []
            for _ in range(args.repeats):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                run()
                runs.append(time.perf_counter() - start)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            results[name] = {"input": description, "median_s": statistics.median(runs),
                             "runs_s": runs, "minor_faults": faults}
            print(f"{name:16s} median {results[name]['median_s']:.4f} s  "
                  f"minor faults {statistics.median(faults):g}  ({description})", flush=True)
    report = {"environment": environment(), "repeats": args.repeats, "cases": results}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
