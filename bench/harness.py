"""Shared driver of the layer-timing scripts under bench/.

A layer script holds its docstring, its seeded scenes and
``make_cases(root)``, which builds the inputs (files go under the
temporary directory root) and returns name -> (input description,
(count, unit) to report per item or None, zero-argument callable); it
ends with ``harness.main(__doc__, default_out, make_cases)``, which gives
it ``--repeats`` (default 7), ``--cases a,b`` and ``--out``.

Each case runs once untimed under tracemalloc, then ``--repeats`` times.
Its record holds ``input``, ``median_s``, ``runs_s``, ``peak_mb`` (the
tracemalloc peak of the warm-up: the most memory Python and numpy held at
once above the case's start), ``minor_faults`` per timed run (``ru_minflt``
of the whole process, so memory handed back to the OS and touched again
shows up) and, where the case gives a count, ``per_<unit>_us``. The JSON
output adds the Python and numpy versions, the machine, the BLAS thread
setting and the obbkit source directory.

BLAS is limited to one thread unless the environment sets otherwise, so
a script imports this module before numpy. obbkit comes from PYTHONPATH,
or from this checkout's ./src when it is not importable; the driver uses
only ``obbkit.cli.main`` and ``obbkit.__file__``, so pointing PYTHONPATH
at another checkout's ``src`` gives before/after numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
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


def run_cli(argv) -> None:
    """``obbkit ARGV`` in-process with its stdout discarded; raises on a non-zero exit."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"obbkit {' '.join(argv)} failed")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "obbkit": str(Path(obbkit.__file__).resolve().parent),
    }


def measure(description, per_item, run, repeats, outputs=None) -> dict:
    """The record of one case; outputs, when given, maps the warm-up's result to a count."""
    tracemalloc.start()
    try:
        result = run()  # untimed warm-up
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    record = {"input": description}
    if outputs is not None:
        record["outputs"] = outputs(result)
    del result
    runs, faults = [], []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        run()
        runs.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    record.update(median_s=statistics.median(runs), runs_s=runs, peak_mb=peak_mb,
                  minor_faults=faults)
    if per_item:
        count, unit = per_item
        record[f"per_{unit}_us"] = record["median_s"] / count * 1e6
    return record


def main(doc: str, default_out: str, make_cases, outputs=None, argv=None) -> None:
    """Run a layer script: doc is its docstring, default_out its JSON file name,
    make_cases(root) its case table; outputs as in ``measure``."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per case (default 7)")
    parser.add_argument("--cases", help="comma-separated subset of the cases to run")
    parser.add_argument("--out", default=default_out, help="JSON output path")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cases = make_cases(Path(tmp))
        names = args.cases.split(",") if args.cases else list(cases)
        unknown = sorted(set(names) - set(cases))
        if unknown:
            parser.error(f"unknown cases {unknown}; choose from {sorted(cases)}")
        results = {}
        for name in names:
            description, per_item, run = cases[name]
            r = results[name] = measure(description, per_item, run, args.repeats, outputs)
            per = f", {r[f'per_{per_item[1]}_us']:.2f} us per {per_item[1]}" if per_item else ""
            out = f"; {r['outputs']} out" if "outputs" in r else ""
            print(f"{name:24s} median {r['median_s']:.4f} s  peak {r['peak_mb']:.1f} MB  "
                  f"minor faults {statistics.median(r['minor_faults']):g}  "
                  f"({description}{per}{out})", flush=True)
    report = {"environment": environment(), "repeats": args.repeats, "cases": results}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
