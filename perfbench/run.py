"""obbkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload dota_eval|detect|train --seed N --seconds S --trace 0|1

Run from the root of an obbkit checkout; the program is imported from
./src. Generates the workload's inputs from the seed, measures set-up
time, runs the workload process for S seconds and checks every output.
Prints each metric by name with its unit, then, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The full record, with the machine description, is written to
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import gen
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170.0
# single-threaded BLAS: one call runs at a time on a shared 2-CPU machine
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import obbkit, obbkit.cli; obbkit.cli.build_parser()")
END_TO_END_UNITS = {"images_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OBBKIT_THREADS")}
    env.update(THREAD_ENV)
    return env


def setup_seconds(src: Path, env: dict, deadline: float) -> float:
    """Median wall time of a fresh interpreter importing obbkit and building the CLI parser."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(src)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one writes the bytecode cache
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
        # a wait with a timeout polls in steps of up to 50 ms, which would
        # quantize the sample, so a timer enforces the deadline instead
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        code = proc.wait()
        elapsed = time.perf_counter() - t0
        killer.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


def machine_record(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREAD_ENV,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),  # identifies the code where there is no git checkout
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="obbkit benchmark, one run of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "obbkit" / "__init__.py").is_file():
        print(f"error: no obbkit sources under {src}; run from the root of an obbkit checkout",
              file=sys.stderr)
        return 2
    work = root / ".bench_work"
    inputs = work / f"run-{os.getpid()}"
    shutil.rmtree(inputs, ignore_errors=True)
    env = child_env()
    try:
        setup_s = setup_seconds(src, env, deadline) if args.trace == 0 else None
        expected = gen.GENERATORS[args.workload](args.seed, inputs)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--inputs", str(inputs), "--src", str(src), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print("error: the run did not finish in time", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up probe failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    if done.returncode != 0:
        print(f"error: workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.strip().splitlines()[-1])
    for line in res["errors"]:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace == 0:
        values = {
            "images_per_s": res["images_per_pass"] / statistics.median(res["walls"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
    else:
        values = dict(res["layers"], failed_ratio=res["failed"] / res["attempted"])
        units = {name: unit for name, unit, _better in PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_record(root), "input_sizes": expected["sizes"],
        "passes": len(res["walls"]), "pass_walls_s": res["walls"],
        "failed_ratio": res["failed"] / res["attempted"], "result": result,
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
