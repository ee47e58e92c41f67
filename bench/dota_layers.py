"""Layer timings of obbkit's DOTA Task1 scoring path.

Times, as medians over repeated runs on a seeded crowded scene (4
images of 1024 x 1024 px with 250 rotated objects each in 5 classes;
every object gets 1-3 jittered detections, plus 40 false positives per
image and class, written as DOTA text files):

- ``canonicalize_many``: every raw detection and ground-truth quad in one
  call, also reported per quad;
- ``parse``: ``parse_dota_detections`` on the raw detections plus
  ``parse_dota_annotations`` on the ground truth;
- ``nms``: rotated NMS at IoU 0.5 within each image of the parsed raw
  detections;
- ``match_ap``: ``evaluate`` (matching at IoU 0.5 and 11-point AP) of
  the kept detections;
- ``write``: ``write_dota_detections`` of the kept detections;
- ``cli_nms_eval``: ``obbkit nms`` then ``obbkit eval`` in-process.

Usage, from the root of a checkout (obbkit is imported from PYTHONPATH,
or from ./src when it is not importable)::

    python3 bench/dota_layers.py [--repeats 7] [--cases a,b] [--out BENCH_dota.json]

The script also runs against releases without ``canonicalize_many`` and
``nms_per_image`` (the detection parser then returns per-image Detection
lists): the ``canonicalize_many`` case is left out and NMS runs
``rotated_nms`` per image, so one script gives before and after numbers. BLAS is limited to
one thread unless the environment sets otherwise. The JSON output
records each case's runs, median and input size, plus the Python and
numpy versions, the machine, and the BLAS thread setting.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
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

from obbkit import cli, geometry, inference  # noqa: E402
from obbkit.dota import (  # noqa: E402
    parse_dota_annotations,
    parse_dota_detections,
    write_dota_detections,
)
from obbkit.evaluation import evaluate  # noqa: E402

IMAGES = 4
OBJECTS = 250
CLASSES = ("plane", "ship", "storage-tank", "small-vehicle", "harbor")
FALSE_POSITIVES = 40  # per image and class
IMAGE_SIZE = 1024.0


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


def nms_stage(dets, iou: float):
    nms_per_image = getattr(inference, "nms_per_image", None)
    if nms_per_image is not None:
        return nms_per_image(dets, iou)
    return {image_id: inference.rotated_nms(dets[image_id], iou) for image_id in sorted(dets)}


def run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"obbkit {' '.join(argv)} failed")


def make_cases(root: Path):
    """name -> (input description, quads or None, zero-argument callable)."""
    n = write_scene(root)
    vertices = scene_vertices(root)
    dets, classes = parse_dota_detections(root / "raw")
    gt = parse_dota_annotations(root / "gt", classes)
    kept = nms_stage(dets, 0.5)
    scene = f"{IMAGES} images, {n} quads ({IMAGES * OBJECTS} ground truth)"
    cases = {}
    if hasattr(geometry, "canonicalize_many"):
        cases["canonicalize_many"] = (scene, n, lambda: geometry.canonicalize_many(vertices))
    cases["parse"] = (scene, None, lambda: (parse_dota_detections(root / "raw"),
                                            parse_dota_annotations(root / "gt")))
    cases["nms"] = (f"{n - IMAGES * OBJECTS} raw detections, IoU 0.5", None,
                    lambda: nms_stage(dets, 0.5))
    cases["match_ap"] = ("kept detections vs ground truth, IoU 0.5", None,
                         lambda: evaluate(kept, gt, 0.5))
    cases["write"] = ("kept detections", None,
                      lambda: write_dota_detections(kept, classes, root / "written"))
    cases["cli_nms_eval"] = (scene, None, lambda: (
        run_cli(["nms", "--dets", str(root / "raw"), "--iou", "0.5", "--out", str(root / "kept")]),
        run_cli(["eval", "--gt", str(root / "gt"), "--dets", str(root / "kept"),
                 "--json", str(root / "report.json")]),
    ))
    return cases


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
    parser.add_argument("--out", default="BENCH_dota.json", help="JSON output path")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cases = make_cases(Path(tmp))
        names = args.cases.split(",") if args.cases else list(cases)
        unknown = sorted(set(names) - set(cases))
        if unknown:
            parser.error(f"unknown cases {unknown}; choose from {sorted(cases)}")
        results = {}
        for name in names:
            description, quads, run = cases[name]
            run()  # untimed warm-up
            runs = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                run()
                runs.append(time.perf_counter() - start)
            median = statistics.median(runs)
            results[name] = {"input": description, "median_s": median, "runs_s": runs}
            per_quad = ""
            if quads:
                results[name]["per_quad_us"] = median / quads * 1e6
                per_quad = f", {results[name]['per_quad_us']:.2f} us per quad"
            print(f"{name:20s} median {median:.4f} s  ({description}{per_quad})", flush=True)
    report = {"environment": environment(), "repeats": args.repeats, "cases": results}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
