"""Paired A/B runs of one perfbench workload on two source trees.

Each tree is the root of an obbkit checkout with its own ``perfbench/``,
for example this checkout as the head and the base revision checked out
beside it with ``git worktree add ../obbkit-base REV``. Every pair runs
``perfbench/run.py --trace 0`` once in each tree, back to back, on the
same seed; the side that runs first swaps from one pair to the next, so
that a slow drift of the host falls on both sides alike. The runner
prints every pair and, per end-to-end metric (the direction comes from
the head's ``BENCHMARK.json``), how many pairs the head wins, each side's
median and (inclusive) quartiles, the median of the per-pair head/base
ratios, whether the head's median is worse than the base's by more than
the metric's relative ``bound``, and two verdicts: ``gain_shown`` when
the head wins at least 9 in 10 pairs (a tie is no win) and the medians
differ by more than the base's quartile spread, ``unresolved`` when the
base's quartile spread over its median is wider than the bound and not
every head run beats every base run. A run that fails, or whose outputs
fail perfbench's checks, stops the runner with exit 1. Runs see the
caller's environment without ``PYTHONDONTWRITEBYTECODE``, so both trees
keep their compiled bytecode and ``setup_s`` times no recompile.

Usage::

    python3 bench/ab.py --base ../obbkit-base --head . --workload train \\
        --seeds 41-50 [--seconds 30] [--out BENCH_ab.json]

``--seeds`` takes a range ``A-B`` or a comma-separated list; one pair
per seed. The JSON output records every run's metrics, its side and
place in the pair, and the summary per metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "head")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one perfbench run in tree; raises RuntimeError on failure."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exit {done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: {result['failed']} of {result['attempted']} operations "
                           f"failed: {done.stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def end_to_end(tree: Path) -> dict[str, dict]:
    """metric name -> its end-to-end entry ("better", "bound") in the tree's BENCHMARK.json."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict[str, dict]:
    summary = {}
    for name, metric in metrics.items():
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        base_spread, head_spread = spread(base), spread(head)
        # the head median's gain over the base median, > 0 when better
        gain = sign * (head_spread["median"] - base_spread["median"])
        base_iqr = base_spread["q3"] - base_spread["q1"]
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        separated = min(sign * h for h in head) > max(sign * b for b in base)
        summary[name] = {
            "better": metric["better"],
            "head_wins": wins,
            "pairs": len(pairs),
            "base": base_spread,
            "head": head_spread,
            "median_ratio": statistics.median(h / b for b, h in zip(base, head)),
            "bound": metric["bound"],
            "worse_beyond_bound": -gain / base_spread["median"] > metric["bound"],
            "unresolved": base_iqr / base_spread["median"] > metric["bound"] and not separated,
            "gain_shown": 10 * wins >= 9 * len(pairs) and gain > base_iqr,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the base tree")
    parser.add_argument("--head", required=True, type=Path, help="root of the head tree")
    parser.add_argument("--workload", required=True, help="perfbench workload")
    parser.add_argument("--seeds", required=True, help="one pair per seed: A-B or a,b,c")
    parser.add_argument("--seconds", type=float, default=30.0, help="run length (default 30)")
    parser.add_argument("--out", default="BENCH_ab.json", help="JSON output path")
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    metrics = end_to_end(trees["head"])

    pairs = []
    for k, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        try:
            pair = {side: run_once(trees[side], args.workload, seed, args.seconds)
                    for side in order}
        except RuntimeError as exc:
            print(f"error: seed {seed}: {exc}", file=sys.stderr)
            return 1
        pairs.append({"seed": seed, "first": order[0], **pair})
        print(f"pair {k + 1} seed {seed} ({order[0]} first): " + "  ".join(
            f"{name} {pair['base'][name]:.4g} -> {pair['head'][name]:.4g}" for name in metrics),
            flush=True)

    summary = summarize(pairs, metrics)
    yes_no = {True: "yes", False: "no"}
    for name, s in summary.items():
        print(f"{name} ({s['better']} is better): head wins {s['head_wins']} of {s['pairs']}; "
              f"base median {s['base']['median']:.4g} [q1 {s['base']['q1']:.4g}, "
              f"q3 {s['base']['q3']:.4g}]; head median {s['head']['median']:.4g} "
              f"[q1 {s['head']['q1']:.4g}, q3 {s['head']['q3']:.4g}]; "
              f"median head/base {s['median_ratio']:.4g}; gain shown: {yes_no[s['gain_shown']]}; "
              f"unresolved: {yes_no[s['unresolved']]}; head median worse than base "
              f"beyond bound {s['bound']:g}: {yes_no[s['worse_beyond_bound']]}")
    report = {"workload": args.workload, "seconds": args.seconds,
              "trees": {side: str(path) for side, path in trees.items()},
              "pairs": pairs, "summary": summary}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
