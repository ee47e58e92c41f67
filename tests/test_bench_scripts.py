"""Smoke test of the layer-timing scripts under bench/: one repeat of every case."""

import json
import os
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
            ["canonicalize_many", "parse", "nms", "match_ap", "write", "cli_nms_eval"],
        ),
        (
            "inference_layers.py",
            ["run_inference_detect", "run_inference_dense", "nms_scattered", "nms_clustered",
             "nms_chain", "ie_fuse_detect"],
        ),
        (
            "train_layers.py",
            ["assign_targets", "total_loss", "fit_demo_step", "cli_fit_demo"],
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
        assert len(result["runs_s"]) == 1
