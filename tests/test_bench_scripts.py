"""Smoke tests of the scripts under bench/: one repeat of every layer-timing case, and the
A/B runner on stub trees and on one tiny real pair."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, cases",
    [
        (
            "dota_layers.py",
            ["canonicalize_many", "parse_detections", "parse_annotations", "nms", "iou_pairs",
             "match_ap", "write", "cli_nms_eval", "match_crowded", "match_column", "match_stacked",
             "match_wide", "parse_annotations_lines"],
        ),
        (
            "inference_layers.py",
            ["run_inference_detect", "run_inference_dense", "nms_scattered", "nms_clustered",
             "nms_chain", "nms_stacked", "ie_fuse_detect"],
        ),
        (
            "train_layers.py",
            ["assign_targets", "total_loss", "focal_sum", "fit_demo_step", "fit_positives",
             "cli_fit_demo", "cli_assign"],
        ),
    ],
)
def test_script_runs_every_case(script, cases, tmp_path):
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / script), "--repeats", "1", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert list(report["cases"]) == cases
    for result in report["cases"].values():
        # one record shape for every case of every script; inference_layers adds the
        # length of each case's result as "outputs"
        per_item = {key for key in result if key.startswith("per_") and key.endswith("_us")}
        assert set(result) - per_item - {"outputs"} == {
            "input", "median_s", "runs_s", "peak_mb", "minor_faults"}
        assert len(per_item) <= 1 and all(result[key] > 0 for key in per_item)
        (run,) = result["runs_s"]
        assert result["median_s"] == run > 0
        assert result["peak_mb"] > 0
        (faults,) = result["minor_faults"]
        assert isinstance(faults, int) and faults >= 0
        assert isinstance(result.get("outputs", 0), int)


def _stub_tree(root: Path, images_per_s, log: Path, correct: bool = True) -> Path:
    """A source tree whose perfbench/run.py logs its call (its tree's name,
    PYTHONDONTWRITEBYTECODE or "-" when unset, its arguments) and reports
    fixed metrics; images_per_s is one value or a {seed: value} dict."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    by_seed = {str(k): v for k, v in images_per_s.items()} if isinstance(images_per_s, dict) else {}
    metrics = {"images_per_s": {"value": None if by_seed else images_per_s, "unit": "1/s"},
               "peak_rss_mb": {"value": 50.0, "unit": "MB"},
               "setup_s": {"value": 0.3, "unit": "s"}}
    result = {"correct": correct, "attempted": 4, "failed": 0 if correct else 1, "metrics": metrics}
    (root / "perfbench" / "run.py").write_text(
        "import json, os, sys\n"
        "flag = os.environ.get('PYTHONDONTWRITEBYTECODE', '-')\n"
        f"with open({str(log)!r}, 'a') as f:\n"
        f"    f.write({root.name!r} + ' ' + flag + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n"
        f"result = json.loads({json.dumps(result)!r})\n"
        f"by_seed = json.loads({json.dumps(by_seed)!r})\n"
        "seed = sys.argv[sys.argv.index('--seed') + 1]\n"
        "if seed in by_seed:\n"
        "    result['metrics']['images_per_s']['value'] = by_seed[seed]\n"
        "print(json.dumps(result))\n"
    )
    return root


def _ab(tmp_path, *args, env=None):
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ab.py"), *map(str, args), "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    return proc, out


def test_ab_alternates_the_first_side_and_summarizes(tmp_path):
    log = tmp_path / "calls.log"
    base = _stub_tree(tmp_path / "base", 10.0, log)
    head = _stub_tree(tmp_path / "head", 25.0, log)
    proc, out = _ab(tmp_path, "--base", base, "--head", head, "--workload", "train",
                    "--seeds", "5-8", "--seconds", "2")
    assert proc.returncode == 0, proc.stderr
    calls = [line.split() for line in log.read_text().splitlines()]
    assert [c[0] for c in calls] == ["base", "head", "head", "base", "base", "head", "head", "base"]
    assert [c[c.index("--seed") + 1] for c in calls] == ["5", "5", "6", "6", "7", "7", "8", "8"]
    assert all(c[c.index("--trace") + 1] == "0" and c[c.index("--seconds") + 1] == "2.0"
               for c in calls)
    report = json.loads(out.read_text())
    assert [p["first"] for p in report["pairs"]] == ["base", "head", "base", "head"]
    speed = report["summary"]["images_per_s"]
    assert (speed["head_wins"], speed["pairs"], speed["median_ratio"]) == (4, 4, 2.5)
    assert speed["base"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    # equal values are no win in either direction
    assert report["summary"]["peak_rss_mb"]["head_wins"] == 0
    assert "head wins 4 of 4" in proc.stdout
    assert speed["worse_beyond_bound"] is False


def test_ab_runs_compile_bytecode_and_flag_a_regression_beyond_the_bound(tmp_path):
    log = tmp_path / "calls.log"
    base = _stub_tree(tmp_path / "base", 10.0, log)
    head = _stub_tree(tmp_path / "head", 7.0, log)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc, out = _ab(tmp_path, "--base", base, "--head", head, "--workload", "train",
                    "--seeds", "1,2", "--seconds", "1", env=env)
    assert proc.returncode == 0, proc.stderr
    # the runs may write bytecode whatever the caller's environment says
    assert [line.split()[1] for line in log.read_text().splitlines()] == ["-"] * 4
    summary = json.loads(out.read_text())["summary"]
    # images/s falls by 30% against a bound of 24%; the other metrics are equal
    assert summary["images_per_s"]["bound"] == 0.24
    assert {name: s["worse_beyond_bound"] for name, s in summary.items()} == {
        "images_per_s": True, "peak_rss_mb": False, "setup_s": False}
    lines = {line.split(" ", 1)[0]: line for line in proc.stdout.splitlines()}
    assert lines["images_per_s"].endswith("beyond bound 0.24: yes")
    assert lines["setup_s"].endswith("beyond bound 0.25: no")


def _summary(tmp_path, base_speed, head_speed, seeds):
    log = tmp_path / "calls.log"
    base = _stub_tree(tmp_path / "base", base_speed, log)
    head = _stub_tree(tmp_path / "head", head_speed, log)
    proc, out = _ab(tmp_path, "--base", base, "--head", head, "--workload", "train",
                    "--seeds", seeds, "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    lines = {line.split(" ", 1)[0]: line for line in proc.stdout.splitlines()}
    return json.loads(out.read_text())["summary"], lines


def test_ab_quartiles_stay_within_the_runs(tmp_path):
    summary, lines = _summary(tmp_path, {1: 10.0, 2: 20.0}, 30.0, "1,2")
    speed = summary["images_per_s"]
    # the exclusive method would give q1 7.5 and q3 22.5, outside the runs
    assert speed["base"] == {"median": 15.0, "q1": 12.5, "q3": 17.5}
    # the base spreads by 33% against a bound of 24%, but every head run beats every base
    # run, and the medians differ by 15 against a base quartile spread of 5
    assert (speed["unresolved"], speed["gain_shown"]) == (False, True)
    assert "gain shown: yes; unresolved: no;" in lines["images_per_s"]


def test_ab_calls_noise_wider_than_the_bound_unresolved(tmp_path):
    summary, lines = _summary(tmp_path, {1: 10.0, 2: 20.0}, {1: 15.0, 2: 25.0}, "1,2")
    speed = summary["images_per_s"]
    # head 15 does not beat base 20, and the medians differ by no more than the spread
    assert (speed["head_wins"], speed["unresolved"], speed["gain_shown"]) == (2, True, False)
    assert "gain shown: no; unresolved: yes;" in lines["images_per_s"]
    # equal runs on both sides: no spread, no win
    assert {name: (s["unresolved"], s["gain_shown"]) for name, s in summary.items()
            if name != "images_per_s"} == {"peak_rss_mb": (False, False),
                                          "setup_s": (False, False)}


@pytest.mark.parametrize("ties, shown", [(1, True), (2, False)])
def test_ab_shows_a_gain_on_nine_wins_in_ten(tmp_path, ties, shown):
    head = {seed: 10.0 if seed <= ties else 25.0 for seed in range(1, 11)}
    summary, _ = _summary(tmp_path, 10.0, head, "1-10")
    speed = summary["images_per_s"]
    # a tie counts for neither side
    assert (speed["head_wins"], speed["gain_shown"]) == (10 - ties, shown)


def test_ab_stops_on_a_failed_check(tmp_path):
    log = tmp_path / "calls.log"
    base = _stub_tree(tmp_path / "base", 10.0, log)
    head = _stub_tree(tmp_path / "head", 25.0, log, correct=False)
    proc, out = _ab(tmp_path, "--base", base, "--head", head, "--workload", "train",
                    "--seeds", "1,2", "--seconds", "1")
    assert proc.returncode == 1
    assert "seed 1" in proc.stderr and "1 of 4 operations failed" in proc.stderr
    assert not out.exists()


def test_ab_runs_perfbench_on_two_trees(tmp_path):
    # one tiny real pair, both sides copies of this checkout's sources, so
    # that the bytecode the runs write stays out of the checkout
    for side in ("base", "head"):
        tree = tmp_path / side
        tree.mkdir()
        for name in ("src", "perfbench"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree)
    proc, out = _ab(tmp_path, "--base", tmp_path / "base", "--head", tmp_path / "head",
                    "--workload", "dota_eval", "--seeds", "3", "--seconds", "0.05")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    (pair,) = report["pairs"]
    assert set(report["summary"]) == {"images_per_s", "peak_rss_mb", "setup_s"}
    assert all(pair[side]["images_per_s"] > 0 for side in ("base", "head"))
