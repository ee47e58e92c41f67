"""The workload process: drives obbkit on generated inputs in a closed loop.

    python3 perfbench/worker.py --workload NAME --inputs DIR --src SRC --seconds S --trace 0|1

run.py starts it once per run, so its peak resident memory is the
workload's own. One call runs at a time, single-threaded. Only the obbkit
calls are timed; every output is checked after the timer stops. Prints one
JSON object with pass times, operation counts and, with --trace 1, the
per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import gen
from tracer import HOOKS, Tracer, layer_values

MIN_PASSES = 3
MAX_ERRORS = 5  # problems passed on to the run record


class Pass:
    """One pass over a workload's whole input set."""

    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def _guarded(fn, *args):
    """Run a program call; an exception is a failed operation, not a crashed run."""
    try:
        return fn(*args), None
    except Exception:  # the boundary that keeps the loop going
        return None, traceback.format_exc(limit=3)


def _checked(check, *args) -> list[str]:
    """A check's problems; a check that raises on malformed output is a failure too."""
    problems, err = _guarded(check, *args)
    return [err] if err else problems


def run_cli(cli, argv):
    """obbkit.cli.main in-process.

    Returns (exit code, stdout, seconds, traceback); the code is None if main raised.
    """
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc, err = _guarded(cli.main, argv)
    return rc, buf.getvalue(), time.perf_counter() - t0, err


class DotaEval:
    def __init__(self, inputs: Path, obbkit):
        self.root = inputs
        self.expected = json.loads((inputs / "expected.json").read_text())
        self.images = len(self.expected["images"])
        self.cli = obbkit.cli

    def run_pass(self) -> Pass:
        p = Pass()
        kept, report = self.root / "kept", self.root / "r.json"
        shutil.rmtree(kept, ignore_errors=True)
        report.unlink(missing_ok=True)
        rc, out, dt, err = run_cli(self.cli, ["nms", "--dets", str(self.root / "raw"), "--iou", "0.5",
                                              "--out", str(kept), "--threads", "1"])
        p.wall += dt
        if rc != 0:
            p.record([f"nms exit {rc} {err or ''}"])
        else:
            p.record(_checked(checks.check_nms, out, kept, self.expected))
        rc, out, dt, err = run_cli(self.cli, ["eval", "--gt", str(self.root / "gt"), "--dets", str(kept),
                                              "--json", str(report), "--threads", "1"])
        p.wall += dt
        if rc != 0 or not report.is_file():
            p.record([f"eval exit {rc} {err or ''}"])
        else:
            p.record(_checked(lambda: checks.check_eval(json.loads(report.read_text()), self.expected)))
        return p


class Detect:
    def __init__(self, inputs: Path, obbkit):
        from obbkit import ie_attention, inference, losses, targets

        self.ie, self.inference = ie_attention, inference
        self.expected = json.loads((inputs / "expected.json").read_text())
        self.images = len(self.expected["images"])
        self.specs = targets.grid_specs(gen.IMAGE_SIZE, gen.IMAGE_SIZE, gen.STRIDES)
        wf, wg, wh = np.load(inputs / "weights.npy")
        self.weights = ie_attention.AttentionWeights(wf, wg, wh, 1.0)
        probe = np.load(inputs / "probe.npy")
        slices = gen.level_slices()
        self.probes = [probe[sl] for sl in slices]
        k = len(gen.CLASSES)
        self.inputs = []
        for i in range(self.images):
            feat = np.load(inputs / f"img{i}" / "feat.npy")
            head = np.load(inputs / f"img{i}" / "head.npy")
            maps, batches = [], []
            for spec, sl in zip(self.specs, slices):
                maps.append([ie_attention.FeatureMap(feat.shape[1], spec.width, spec.height,
                                                     np.ascontiguousarray(feat[b][:, sl]))
                             for b in range(3)])
                h = np.ascontiguousarray(head[sl])
                batches.append(losses.PredictionBatch(h[:, :k], h[:, k], h[:, k + 1:k + 5], h[:, k + 5:]))
            self.inputs.append((maps, batches))

    def _image(self, maps, batches):
        fused = [self.ie.ie_fuse(cls_f, reg_f, ori_f, self.weights) for cls_f, reg_f, ori_f in maps]
        return fused, self.inference.run_inference(batches, self.specs)

    def _check(self, fused, dets, exp) -> list[str]:
        projections = [(f.values @ pr).tolist() for f, pr in zip(fused, self.probes)]
        bounds = [(np.abs(f.values) @ np.abs(pr)).tolist() for f, pr in zip(fused, self.probes)]
        plain = [(d.class_id, d.quad.as_flat()) for d in dets]
        return checks.check_fusion(projections, bounds, exp) + checks.check_detections(plain, exp)

    def run_pass(self) -> Pass:
        p = Pass()
        for (maps, batches), exp in zip(self.inputs, self.expected["images"]):
            t0 = time.perf_counter()
            result, err = _guarded(self._image, maps, batches)
            p.wall += time.perf_counter() - t0
            if err:
                p.record([err])
                continue
            p.record(_checked(self._check, *result, exp))
        return p


class Train:
    def __init__(self, inputs: Path, obbkit):
        self.root = inputs
        self.expected = json.loads((inputs / "expected.json").read_text())
        self.images = len(self.expected["images"])
        self.cli = obbkit.cli

    def run_pass(self) -> Pass:
        p = Pass()
        rc, out, dt, err = run_cli(self.cli, ["fit-demo", "--gt", str(self.root / "gt"),
                                              "--image-size", f"{gen.IMAGE_SIZE}x{gen.IMAGE_SIZE}",
                                              "--steps", str(self.expected["steps"]), "--threads", "1"])
        p.wall += dt
        if rc != 0:
            p.record([f"fit-demo exit {rc} {err or ''}"])
        else:
            p.record(_checked(checks.check_train, out, self.expected))
        return p


WORKLOADS = {"dota_eval": DotaEval, "detect": Detect, "train": Train}


def tally(totals: dict, p: Pass) -> None:
    totals["attempted"] += p.attempted
    totals["failed"] += p.failed
    totals["errors"].extend(p.errors[: max(0, MAX_ERRORS - len(totals["errors"]))])


def measure(workload, seconds: float, totals: dict) -> list[float]:
    """Passes until `seconds` have elapsed (at least MIN_PASSES); returns their times."""
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        p = workload.run_pass()
        walls.append(p.wall)
        tally(totals, p)
    return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import obbkit
    import obbkit.cli

    if Path(obbkit.__file__).resolve().parent != src / "obbkit":
        print(f"imported obbkit from {obbkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.inputs, obbkit)
    totals = {"attempted": 0, "failed": 0, "errors": []}
    tally(totals, workload.run_pass())  # lazy imports and the page cache settle before timing

    out = {"images_per_pass": workload.images}
    if args.trace == 0:
        out["walls"] = measure(workload, args.seconds, totals)
    else:
        plain = measure(workload, args.seconds / 2, totals)
        tracer = Tracer(HOOKS)
        with tracer.installed():
            traced = measure(workload, args.seconds / 2, totals)
        images = workload.images * len(traced)
        layers = layer_values(tracer, images)
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
        layers["trace.wall_s"] = sum(traced) / images
        self_total = sum(tracer.self_seconds().values()) / images
        if self_total > layers["trace.wall_s"] * (1 + 1e-9):
            print(f"tracer error: self times {self_total} s exceed wall {layers['trace.wall_s']} s",
                  file=sys.stderr)
            return 2
        out["walls"] = plain
        out["layers"] = layers
    out.update(totals)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
