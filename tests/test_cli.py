import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit import cli
from obbkit.config import build_config, parse_level_ranges, read_config_file
from obbkit.dota import parse_dota_annotations, parse_dota_detections, write_dota_detections
from obbkit.errors import ParseError, UnknownClass
from obbkit.evaluation import ClassTable, GtIndex
from obbkit.geometry import canonicalize
from obbkit.inference import Detection, DetectionSet
from obbkit.losses import LossWeights, fit_demo
from obbkit.targets import LevelRanges, TargetMaps, assign_targets, grid_specs

from helpers import (
    numeric_lines_oracle,
    read_preds_oracle,
    read_targets_oracle,
    target_maps,
    write_dota_annotations,
)

GT_P0001 = """\
imagesource:GoogleEarth
gsd:0.1
0 0 10 0 10 10 0 10 plane 0
20 0 30 0 30 10 20 10 plane 0
0 20 10 20 10 30 0 30 ship 0
"""
GT_P0002 = "0 0 10 0 10 10 0 10 ship 0\n"
DETS_PLANE = """\
P0001 0.9 0 0 10 0 10 10 0 10
P0001 0.8 0 0 10 0 10 10 0 10
P0001 0.7 22 0 32 0 32 10 22 10
"""
DETS_SHIP = """\
P0002 0.85 0 0 10 0 10 10 0 10
P0001 0.6 0 28 10 28 10 38 0 38
"""


@pytest.fixture
def scene(tmp_path):
    gt = tmp_path / "gt"
    dets = tmp_path / "dets"
    gt.mkdir()
    dets.mkdir()
    (gt / "P0001.txt").write_text(GT_P0001)
    (gt / "P0002.txt").write_text(GT_P0002)
    (dets / "plane.txt").write_text(DETS_PLANE)
    (dets / "ship.txt").write_text(DETS_SHIP)
    return tmp_path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIouCommand:
    def test_identical(self, capsys):
        code, out, _ = run_cli(
            capsys, "iou", "--quad-a", "0,1,1,0,2,1,1,2", "--quad-b", "0,1,1,0,2,1,1,2"
        )
        assert code == 0
        assert out.splitlines()[0] == "iou 1"

    def test_raster_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "iou",
            "--quad-a",
            "0 0 1 0 1 1 0 1",
            "--quad-b",
            "0.5 0 1.5 0 1.5 1 0.5 1",
            "--raster-check",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "iou 0.333333"
        assert lines[1].startswith("raster 0.33")
        assert float(lines[2].split()[1]) <= 0.01

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_is_data_error(self, grid, capsys):
        code, out, err = run_cli(
            capsys, "iou", "--quad-a", "0 0 2 0 2 2 0 2", "--quad-b", "1 1 3 1 3 3 1 3",
            "--raster-check", "--grid", grid,
        )
        assert (code, out) == (2, "")
        assert err == f"error: --grid must be >= 1, got {grid}\n"

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "iou", "--quad-a", "0,0,1,0,1,1,0,1")
        assert code == 1
        assert "usage error" in err

    def test_bad_quad_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "iou", "--quad-a", "1,2", "--quad-b", "0,0,1,0,1,1,0,1")
        assert code == 2
        assert "error" in err

    def test_degenerate_quad_is_data_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "iou", "--quad-a", "0,0,1,1,2,2,3,3", "--quad-b", "0,0,1,0,1,1,0,1"
        )
        assert code == 2

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 1
        assert "usage" in out


ENCODE_DEGENERATE = "0 0 1 1 2 2 3 3"
ENCODE_NOT_A_NUMBER = "0 0 4 0 4 x 0 2"
# squares near 1e200 turned by 30 and 45 degrees: the shoelace sums overflow, so the
# first roundtrip IoU is nan; the second one's clipped vertices overflow too
ENCODE_HUGE_NAN = (
    "1.4330127018922193e+200 1.2499999999999999e+200 7.500000000000001e+199 "
    "1.4330127018922193e+200 5.6698729810778064e+199 7.5e+199 "
    "1.2499999999999999e+200 5.6698729810778064e+199"
)
ENCODE_HUGE_OVERFLOW = (
    "1.3535533905932738e+200 1.3535533905932738e+200 6.4644660940672625e+199 "
    "1.3535533905932738e+200 6.464466094067262e+199 6.4644660940672625e+199 "
    "1.3535533905932738e+200 6.464466094067262e+199"
)
ENCODE_HUGE_STDOUT = """\
0 0 4 4 1 1 roundtrip 1
5.66987e+199 5.66987e+199 1.43301e+200 1.43301e+200 1.83013e+199 6.83013e+199 roundtrip nan
0 0 4 2 0 2 roundtrip 1
"""


class TestEncodeDecodeCommands:
    def test_encode(self, tmp_path, capsys):
        f = tmp_path / "quads.txt"
        f.write_text("0 3 3 0 4 1 1 4\n0 0 4 0 4 2 0 2\n")
        code, out, _ = run_cli(capsys, "encode", str(f))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0 0 4 4 1 1 roundtrip 1"
        assert lines[1] == "0 0 4 2 0 2 roundtrip 1"
        assert "worst roundtrip iou 1" in lines[2]

    def test_decode(self, tmp_path, capsys):
        f = tmp_path / "enc.txt"
        f.write_text("0 0 2 2 1 1\n")
        code, out, _ = run_cli(capsys, "decode", str(f))
        assert code == 0
        assert out.splitlines()[0] == "0 1 1 0 2 1 1 2"

    def test_decode_invalid_offsets(self, tmp_path, capsys):
        f = tmp_path / "enc.txt"
        f.write_text("0 0 2 2 5 1\n")
        code, _, err = run_cli(capsys, "decode", str(f))
        assert code == 2

    def test_encode_bad_line(self, tmp_path, capsys):
        f = tmp_path / "quads.txt"
        f.write_text("1 2 3\n")
        code, _, err = run_cli(capsys, "encode", str(f))
        assert code == 2
        assert "quads.txt:1" in err

    @pytest.mark.parametrize(
        "lines, error",
        [
            ((ENCODE_DEGENERATE, ENCODE_NOT_A_NUMBER), "area 0 below tolerance 1e-06"),
            ((ENCODE_NOT_A_NUMBER, ENCODE_DEGENERATE), "{path}:2: expected a number, got 'x'"),
        ],
    )
    def test_encode_stops_at_the_first_bad_line(self, lines, error, tmp_path, capsys):
        # the good lines before the first error in file order are printed
        f = tmp_path / "quads.txt"
        f.write_text(f"0 3 3 0 4 1 1 4\n{lines[0]}\n0 0 4 0 4 2 0 2\n{lines[1]}\n")
        code, out, err = run_cli(capsys, "encode", str(f))
        assert code == 2
        assert out == "0 0 4 4 1 1 roundtrip 1\n"
        assert err == f"error: {error.format(path=f)}\n"

    @pytest.mark.parametrize("overflow", [False, True])
    def test_encode_huge_quads(self, overflow, tmp_path, capsys):
        # a nan roundtrip is printed as nan and does not lower the worst line; an
        # overflowing intersection stops the run after the lines before it
        f = tmp_path / "quads.txt"
        tail = f"{ENCODE_HUGE_OVERFLOW}\n0 0 1 0 1 1 0 1\n" if overflow else ""
        f.write_text(f"0 3 3 0 4 1 1 4\n{ENCODE_HUGE_NAN}\n0 0 4 0 4 2 0 2\n{tail}")
        code, out, err = run_cli(capsys, "encode", str(f))
        if overflow:
            assert (code, out, err) == (2, ENCODE_HUGE_STDOUT, "error: non-finite point (nan, nan)\n")
        else:
            assert (code, out, err) == (0, ENCODE_HUGE_STDOUT + "# 3 boxes, worst roundtrip iou 1\n", "")


ASSIGN_SCENE_STDOUT = """\
# image P0001 size 32x32
3 0 0 1 4 4 6 6 0 10 0.6666666666666666 0
3 3 0 1 8 4 2 6 0 10 0.408248290463863 0
3 0 3 2 4 8 6 2 0 10 0.408248290463863 0
# level 3: 3 positive of 16 locations
# image P0002 size 16x16
3 0 0 2 4 4 6 6 0 10 0.6666666666666666 0
# level 3: 1 positive of 4 locations
"""
LOSS_STDOUT = """\
total      2.19061
cls_loss   0.00576369
reg_loss   1.69621
ori_loss   0.488636
num_pos    1
normalizer 1
"""
LOSS_KINK_FREE_GRAD_CHECK_STDOUT = """\
total      2.14773
cls_loss   0.00576369
reg_loss   1.61043
ori_loss   0.53154
num_pos    1
normalizer 1
grad_check class_scores 5.17497e-09
grad_check centerness 2.98061e-10
grad_check ltrb 9.34707e-10
grad_check wh 7.2186e-11
"""


class TestAssignCommand:
    def test_dump_is_stable(self, scene, capsys):
        argv = [
            "assign",
            "--gt",
            str(scene / "gt"),
            "--set",
            "strides=8",
            "--set",
            "level_ranges=0:inf",
        ]
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        code, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert first == ASSIGN_SCENE_STDOUT

    def test_radius_flag_shrinks_positives(self, scene, capsys):
        base = ["assign", "--gt", str(scene / "gt"), "--set", "strides=4",
                "--set", "level_ranges=0:inf"]
        _, wide, _ = run_cli(capsys, *base, "--radius-mult", "2.0")
        _, narrow, _ = run_cli(capsys, *base, "--radius-mult", "0.5")

        def count(out):
            return sum(1 for line in out.splitlines() if not line.startswith("#"))

        assert count(narrow) <= count(wide)

    def test_bad_image_size_without_annotations(self, tmp_path, capsys):
        empty = tmp_path / "gt"
        empty.mkdir()
        code, out, err = run_cli(capsys, "assign", "--gt", str(empty), "--image-size", "bogus")
        assert (code, out) == (2, "")
        assert err == "error: --image-size expects WxH, got 'bogus'\n"


class TestFlagPrecedence:
    """A flag beats --set, which beats --config, which beats the default."""

    @pytest.mark.parametrize(
        "command, flag, key, value, other",
        [
            ("eval", "--iou", "eval_iou_threshold", "0.7", "0.3"),
            ("eval", "--mode", "metric_mode", "all", "07"),
            ("assign", "--radius-mult", "center_radius_mult", "0.5", "2.0"),
        ],
    )
    def test_order(self, command, flag, key, value, other, scene, capsys, tmp_path):
        if command == "eval":
            argv = ["eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets")]
        else:
            argv = ["assign", "--gt", str(scene / "gt"), "--set", "strides=4",
                    "--set", "level_ranges=0:inf"]

        def config(raw):
            path = tmp_path / f"{raw}.cfg"
            path.write_text(f"{key}={raw}\n")
            return str(path)

        def stdout(*extra):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert (code, err) == (0, "")
            return out

        want = stdout(flag, value)
        assert want != stdout()
        assert stdout("--set", f"{key}={value}") == want
        assert stdout("--set", f"{key}={other}", flag, value) == want
        assert stdout("--config", config(other), "--set", f"{key}={value}") == want
        assert stdout("--config", config(value)) == want


class TestNotADirectory:
    @pytest.mark.parametrize("kind", ["missing", "file"])
    @pytest.mark.parametrize(
        "command, flag",
        [("eval", "--gt"), ("eval", "--dets"), ("nms", "--dets"), ("assign", "--gt"),
         ("fit-demo", "--gt")],
    )
    def test_is_data_error(self, command, flag, kind, scene, capsys, tmp_path):
        bad = tmp_path / "nope"
        if kind == "file":
            bad.write_text("")
        args = {
            "eval": {"--gt": scene / "gt", "--dets": scene / "dets"},
            "nms": {"--dets": scene / "dets", "--out": tmp_path / "out"},
            "assign": {"--gt": scene / "gt"},
            "fit-demo": {"--gt": scene / "gt", "--steps": 8},
        }[command]
        args[flag] = bad
        code, out, err = run_cli(capsys, command, *(str(v) for kv in args.items() for v in kv))
        assert (code, out) == (2, "")
        reason = "not a directory" if kind == "file" else "no such directory"
        assert err == f"error: {reason}: {bad}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "nms", "assign", "fit-demo"])
    def test_empty_directory_is_valid(self, command, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        extra = {
            "eval": ["--gt", empty, "--dets", empty],
            "nms": ["--dets", empty, "--out", tmp_path / "out"],
            "assign": ["--gt", empty],
            "fit-demo": ["--gt", empty],
        }[command]
        code, _, err = run_cli(capsys, command, *map(str, extra))
        assert (code, err) == (0, "")


class TestLossCommand:
    def write_files(self, tmp_path, centerness="0.6", kink_free=False):
        targets = tmp_path / "targets.txt"
        preds = tmp_path / "preds.txt"
        targets.write_text("1 2 1 4 3 1 2 0.40824829046386296\n0\n")
        if kink_free:
            # offsets chosen away from the smooth-L1, |ltrb-wh| and min()
            # switch points so finite differences stay two-sided
            preds.write_text(
                f"{centerness} 3.3 2.2 3.6 2.3 0.45 1.1 0.7 0.2\n"
                "0.5 1 1 1 1 0.5 0.5 0.3 0.4\n"
            )
        else:
            preds.write_text(
                f"{centerness} 3 2 3 2 0.5 1 0.7 0.2\n0.5 1 1 1 1 0 0 0.3 0.4\n"
            )
        return targets, preds

    def test_breakdown(self, tmp_path, capsys):
        targets, preds = self.write_files(tmp_path)
        code, out, _ = run_cli(capsys, "loss", "--targets", str(targets), "--preds", str(preds))
        assert code == 0
        values = dict(line.split() for line in out.splitlines())
        assert values["num_pos"] == "1"
        assert values["normalizer"] == "1"
        assert out == LOSS_STDOUT
        # match the library on the same fixture
        from obbkit.losses import LossWeights, PredictionBatch, total_loss

        batch = PredictionBatch(
            np.array([[0.7, 0.2], [0.3, 0.4]]),
            np.array([0.6, 0.5]),
            np.array([[3.0, 2, 3, 2], [1, 1, 1, 1]]),
            np.array([[0.5, 1], [0, 0]]),
        )
        t = target_maps(
            [1, 0], ltrb=[(2, 1, 4, 3), (0, 0, 0, 0)], wh=[(1, 2), (0, 0)],
            centerness=[0.40824829046386296, 0.0],
        )
        expected = total_loss(batch, t, LossWeights()).breakdown.total
        # stdout carries 6 significant digits
        assert abs(float(values["total"]) - expected) <= 1e-5 * max(1.0, expected)

    def test_grad_check_flag(self, tmp_path, capsys):
        targets, preds = self.write_files(tmp_path, kink_free=True)
        code, out, _ = run_cli(
            capsys, "loss", "--targets", str(targets), "--preds", str(preds), "--grad-check"
        )
        assert code == 0
        checks = [line for line in out.splitlines() if line.startswith("grad_check")]
        assert len(checks) == 4
        for line in checks:
            assert float(line.split()[2]) <= 1e-4
        assert out == LOSS_KINK_FREE_GRAD_CHECK_STDOUT

    @pytest.mark.parametrize(
        "row, message",
        [
            ("-1 2 1 4 3 1 2 0.4", "class id must be >= 0"),
            ("1 2 1 abc 3 1 2 0.4", "expected a number, got 'abc'"),
            ("0 2 1 4 3 1 2 0.4", "expected 0 or class_id"),
            ("1 2 1 4 3 1 2", "expected 0 or class_id"),
        ],
    )
    def test_bad_targets_row_is_parse_error(self, row, message, tmp_path, capsys):
        targets, preds = self.write_files(tmp_path)
        targets.write_text(f"0\n{row}\n")
        code, out, err = run_cli(capsys, "loss", "--targets", str(targets), "--preds", str(preds))
        assert code == 2
        assert out == ""
        assert "targets.txt:2" in err and message in err

    def test_boundary_score_is_numeric_error(self, tmp_path, capsys):
        targets, preds = self.write_files(tmp_path, centerness="1.0")
        code, _, err = run_cli(capsys, "loss", "--targets", str(targets), "--preds", str(preds))
        assert code == 3
        assert "numeric error" in err

    def test_nan_score_is_numeric_error(self, tmp_path, capsys):
        targets, preds = self.write_files(tmp_path, centerness="nan")
        code, out, err = run_cli(capsys, "loss", "--targets", str(targets), "--preds", str(preds))
        assert code == 3
        assert "numeric error" in err
        assert "total" not in out

    def test_weight_override_changes_total(self, tmp_path, capsys):
        targets, preds = self.write_files(tmp_path)
        _, base, _ = run_cli(capsys, "loss", "--targets", str(targets), "--preds", str(preds))
        _, scaled, _ = run_cli(
            capsys,
            "loss",
            "--targets",
            str(targets),
            "--preds",
            str(preds),
            "--set",
            "reg_weight=2.0",
        )
        get = lambda out, key: float(dict(l.split() for l in out.splitlines())[key])
        assert get(scaled, "reg_loss") == get(base, "reg_loss")
        assert get(scaled, "total") > get(base, "total")


class TestNmsCommand:
    def test_suppression(self, scene, capsys, tmp_path):
        out_dir = tmp_path / "nms_out"
        code, out, _ = run_cli(
            capsys, "nms", "--dets", str(scene / "dets"), "--iou", "0.5", "--out", str(out_dir)
        )
        assert code == 0
        plane_lines = (out_dir / "plane.txt").read_text().splitlines()
        assert len(plane_lines) == 2  # duplicate 0.8 suppressed
        assert plane_lines[0].startswith("P0001 0.9")
        ship_lines = (out_dir / "ship.txt").read_text().splitlines()
        assert len(ship_lines) == 2
        assert "kept 3 of 4" in out

    def test_threshold_checked_without_detections(self, capsys, tmp_path):
        empty = tmp_path / "dets"
        empty.mkdir()
        code, out, err = run_cli(
            capsys, "nms", "--dets", str(empty), "--iou", "1.5", "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert out == ""
        assert "must lie in [0, 1]" in err

    def test_out_naming_a_file_is_data_error(self, scene, capsys, tmp_path):
        out_file = tmp_path / "taken.txt"
        out_file.write_text("")
        code, out, err = run_cli(
            capsys, "nms", "--dets", str(scene / "dets"), "--iou", "0.5", "--out", str(out_file)
        )
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out_file.read_text() == ""


class TestEvalCommand:
    def test_fixture_map(self, scene, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets"),
            "--mode", "07",
        )
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert abs(payload["map"] - 23 / 33) < 1e-12
        assert abs(payload["per_class"]["plane"] - 28 / 33) < 1e-12
        assert payload["mode"] == "11point"
        assert "mAP" in out

    def test_all_point_mode(self, scene, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets"),
            "--mode", "all",
        )
        payload = json.loads(out.splitlines()[-1])
        assert abs(payload["map"] - 2 / 3) < 1e-12

    def test_json_file_output(self, scene, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets"),
            "--json", str(json_path),
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert abs(payload["map"] - 23 / 33) < 1e-12
        assert "per_class" not in out  # table only on stdout

    def test_thread_counts_do_not_change_bytes(self, scene, capsys):
        outputs = []
        for threads in ("1", "4", "8"):
            code, out, _ = run_cli(
                capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets"),
                "--threads", threads,
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("eval", ["--iou", "1.5"]),
            ("eval", ["--set", "eval_iou_threshold=7"]),
            ("eval", ["--iou", "nan"]),
            ("nms", ["--iou", "-0.5"]),
            ("nms", ["--iou", "nan"]),
        ],
    )
    def test_iou_threshold_outside_unit_interval(self, command, extra, scene, capsys, tmp_path):
        if command == "eval":
            argv = ["eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets")]
        else:
            argv = ["nms", "--dets", str(scene / "dets"), "--out", str(tmp_path / "out")]
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert "must lie in [0, 1]" in err

    def test_score_out_of_range_is_data_error(self, scene, capsys):
        bad = scene / "dets" / "plane.txt"
        bad.write_text("P0001 1.5 0 0 10 0 10 10 0 10\n")
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets")
        )
        assert code == 2
        assert "outside [0, 1]" in err

    def test_unknown_detection_class(self, scene, capsys):
        (scene / "dets" / "rocket.txt").write_text("P0001 0.5 0 0 1 0 1 1 0 1\n")
        code, _, err = run_cli(
            capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets")
        )
        assert code == 2
        code, _, _ = run_cli(
            capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets"),
            "--unknown-category", "skip",
        )
        assert code == 0


class TestFitDemoCommand:
    def test_plain_l1_prints_no_warning(self, tmp_path):
        # smooth_l1_delta = 0 is plain L1: nothing is divided by it
        gt = tmp_path / "gt"
        gt.mkdir()
        gt.joinpath("scene.txt").write_text(
            "28.251289 58.990381 43.251289 33.009619 91.748711 61.009619 "
            "76.748711 86.990381 plane 0\n"
        )
        argv = ["fit-demo", "--gt", str(gt), "--steps", "8", "--set", "strides=8,16",
                "--set", "level_ranges=0:64,64:inf"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "obbkit.cli", *argv, "--set", "smooth_l1_delta=0"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        assert done.stdout.startswith("# image scene\nstep 0 total ")

    def test_three_object_scene_converges(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        gt.mkdir()
        gt.joinpath("scene.txt").write_text(
            "28.251289 58.990381 43.251289 33.009619 91.748711 61.009619 "
            "76.748711 86.990381 plane 0\n"
            "134.109908 71.657670 175.248315 22.630826 205.890092 48.342330 "
            "164.751685 97.369174 ship 0\n"
            "73.935856 135.238275 115.282331 120.189389 146.064144 204.761725 "
            "104.717669 219.810611 harbor 0\n"
        )
        code, out, _ = run_cli(
            capsys, "fit-demo", "--gt", str(gt), "--steps", "2000", "--lr", "0.05",
            "--set", "strides=8,16", "--set", "level_ranges=0:64,64:inf",
            "--trace-every", "1000",
        )
        assert code == 0
        ious = [
            float(line.split()[4])
            for line in out.splitlines()
            if line.startswith("object")
        ]
        assert len(ious) == 3
        assert min(ious) >= 0.95

    def test_smoke_and_determinism(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        gt.mkdir()
        gt.joinpath("scene.txt").write_text(
            "35.75 33.0 60.0 19.0 84.25 61.0 60.0 75.0 plane 0\n"
        )
        argv = [
            "fit-demo", "--gt", str(gt), "--steps", "60", "--lr", "0.05",
            "--set", "strides=8,16", "--set", "level_ranges=0:64,64:inf",
            "--trace-every", "30",
        ]
        code, first, _ = run_cli(capsys, *argv, "--threads", "1")
        assert code == 0
        assert "object 0 plane iou" in first
        assert "step 0 " in first
        code, second, _ = run_cli(capsys, *argv, "--threads", "8")
        assert first == second


    def test_golden_two_level_scene(self, tmp_path, capsys):
        # pinned output of the per-cell implementation; object 1 is difficult
        # and object 2 falls between grid points on both levels
        gt = tmp_path / "gt"
        gt.mkdir()
        gt.joinpath("scene.txt").write_text(
            "28.251289 58.990381 43.251289 33.009619 91.748711 61.009619 "
            "76.748711 86.990381 plane 0\n"
            "134.109908 71.657670 175.248315 22.630826 205.890092 48.342330 "
            "164.751685 97.369174 ship 1\n"
            "201 201 203 201 203 203 201 203 harbor 0\n"
        )
        code, out, _ = run_cli(
            capsys, "fit-demo", "--gt", str(gt), "--steps", "40", "--lr", "0.05",
            "--set", "strides=8,16", "--set", "level_ranges=0:64,64:inf",
            "--trace-every", "10",
        )
        assert code == 0
        assert out == (
            "# image scene\n"
            "step 0 total 42.4073 cls 32.9462 reg 484.054 ori 246.331\n"
            "step 10 total 35.0415 cls 20.1653 reg 402.796 ori 207.785\n"
            "step 20 total 1.71039 cls 18.1651 reg 10.5694 ori 2.05252\n"
            "step 30 total 1.60637 cls 18.1627 reg 10.3068 ori 0.445203\n"
            "step 40 total 1.605 cls 18.1627 reg 10.3065 ori 0.420854\n"
            "object 0 plane iou 0.924276 score 0.48827\n"
            "object 1 ship iou 0.999904 score 0.472581\n"
            "object 2 harbor unassigned\n"
        )

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--steps", "-3"], "steps"),
            (["--lr", "nan"], "lr"),
            (["--lr", "-0.05"], "lr"),
            (["--lr", "inf"], "lr"),
            (["--trace-every", "-2"], "--trace-every"),
            (["--trace-every", "0"], "--trace-every"),
            (["--image-size", "0x128"], "--image-size"),
            (["--image-size", "128x-8"], "--image-size"),
        ],
    )
    def test_bad_arguments_are_data_errors(self, extra, flag, tmp_path, capsys):
        gt = tmp_path / "gt"
        gt.mkdir()
        gt.joinpath("scene.txt").write_text("35.75 33.0 60.0 19.0 84.25 61.0 60.0 75.0 plane 0\n")
        code, out, err = run_cli(
            capsys, "fit-demo", "--gt", str(gt), "--steps", "8",
            "--set", "strides=8,16", "--set", "level_ranges=0:64,64:inf", *extra,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag in err


    @pytest.mark.parametrize("extra, message", [
        (["--steps", "-1"], "error: steps must be >= 0, got -1\n"),
        (["--steps", "-1", "--lr", "nan"], "error: steps must be >= 0, got -1\n"),
        (["--lr", "nan"], "error: lr must be finite and >= 0, got nan\n"),
    ], ids=["steps", "steps-and-lr", "lr"])
    @pytest.mark.parametrize("files", [
        # an empty first file, then an image with positives
        {"A.txt": "", "B.txt": "35.75 33.0 60.0 19.0 84.25 61.0 60.0 75.0 plane 0\n"},
        # no image with a positive location: a harbor between grid points
        {"A.txt": "101 101 103 101 103 103 101 103 harbor 0\n", "B.txt": ""},
    ], ids=["empty-first-file", "no-positives"])
    def test_bad_steps_or_lr_fail_before_any_image(self, files, extra, message, tmp_path, capsys):
        gt = tmp_path / "gt"
        gt.mkdir()
        for name, text in files.items():
            gt.joinpath(name).write_text(text)
        code, out, err = run_cli(
            capsys, "fit-demo", "--gt", str(gt), "--steps", "8",
            "--set", "strides=8,16", "--set", "level_ranges=0:64,64:inf", *extra,
        )
        assert (code, out, err) == (2, "", message)


# Three images for the golden fit-demo and assign runs: in A a harbor with no
# grid point strictly inside it, so no positive location; B an empty file; in
# C a square ship whose four central positives have bit-equal fused scores, and
# a plane that lies outside a 128 x 128 image.
GOLDEN_GT = {
    "A.txt": (
        "28.251289 58.990381 43.251289 33.009619 91.748711 61.009619 "
        "76.748711 86.990381 plane 0\n"
        "101 101 103 101 103 103 101 103 harbor 0\n"
    ),
    "B.txt": "",
    "C.txt": (
        "40 40 72 40 72 72 40 72 ship 0\n"
        "134.109908 71.657670 175.248315 22.630826 205.890092 48.342330 "
        "164.751685 97.369174 plane 1\n"
    ),
}
GOLDEN_CONFIG = ("--set", "strides=8,16", "--set", "level_ranges=0:64,64:inf")
GOLDEN_FIT_DEMO_DERIVED_SIZE = """\
# image A
step 0 total 40.7485 cls 9.55243 reg 215.889 ori 141.295
step 10 total 15.968 cls 5.30683 reg 95.1513 ori 43.2538
step 20 total 1.80412 cls 5.19139 reg 7.22653 ori 3.81913
object 0 plane iou 0.941728 score 0.490798
object 1 harbor unassigned
# image B
no objects
# image C
step 0 total 28.7508 cls 17.7402 reg 480.793 ori 220.236
step 10 total 26.0659 cls 12.3261 reg 434.287 ori 205.033
step 20 total 2.23955 cls 8.90607 reg 41.8825 ori 5.20029
object 0 ship iou 0.947294 score 0.335866
object 1 plane iou 0.968622 score 0.491567
"""
GOLDEN_FIT_DEMO_128 = """\
# image A
step 0 total 41.0734 cls 12.4766 reg 215.889 ori 141.295
step 10 total 16.1485 cls 6.93137 reg 95.1513 ori 43.2538
step 20 total 1.98069 cls 6.78059 reg 7.22653 ori 3.81913
object 0 plane iou 0.941728 score 0.490798
object 1 harbor unassigned
# image B
no objects
# image C
step 0 total 21.269 cls 12.4766 reg 212.628 ori 115.2
step 10 total 13.8824 cls 7.23379 reg 127.172 ori 87.713
step 20 total 1.06488 cls 6.88233 reg 9.31212 ori 0.843606
object 0 ship iou 0.985577 score 0.327359
object 1 plane unassigned
"""
GOLDEN_ASSIGN_DERIVED_SIZE = """\
# image A size 112x112
3 6 6 2 23.748711 18.990381 39.748711 34.990381 48.497422 28 0.5694439717242815 0
3 7 6 2 31.748711 18.990381 31.748711 34.990381 48.497422 28 0.7367031100795921 0
3 8 6 2 39.748711 18.990381 23.748711 34.990381 48.497422 28 0.5694439717242815 0
3 6 7 2 23.748711 26.990381 39.748711 26.990381 48.497422 28 0.7729626275946627 0
3 7 7 2 31.748711 26.990381 31.748711 26.990381 48.497422 28 1 0
3 8 7 2 39.748711 26.990381 23.748711 26.990381 48.497422 28 0.7729626275946627 0
3 6 8 2 23.748711 34.990381 39.748711 18.990381 48.497422 28 0.5694439717242815 0
3 7 8 2 31.748711 34.990381 31.748711 18.990381 48.497422 28 0.7367031100795921 0
3 8 8 2 39.748711 34.990381 23.748711 18.990381 48.497422 28 0.5694439717242815 0
# level 3: 9 positive of 196 locations
# level 4: 0 positive of 49 locations
# image B size 16x16
# level 3: 0 positive of 4 locations
# level 4: 0 positive of 1 locations
# image C size 208x112
3 5 5 3 4 4 28 28 0 32 0.14285714285714285 0
3 6 5 3 12 4 20 28 0 32 0.2927700218845599 0
3 7 5 3 20 4 12 28 0 32 0.2927700218845599 0
3 8 5 3 28 4 4 28 0 32 0.14285714285714285 0
3 5 6 3 4 12 28 20 0 32 0.2927700218845599 0
3 6 6 3 12 12 20 20 0 32 0.6 0
3 7 6 3 20 12 12 20 0 32 0.6 0
3 8 6 3 28 12 4 20 0 32 0.2927700218845599 0
3 20 6 2 29.89009200000001 29.369174 41.89009200000001 45.369174 30.64177700000002 25.711504000000005 0.679631342059961 1
3 21 6 2 37.89009200000001 29.369174 33.89009200000001 45.369174 30.64177700000002 25.711504000000005 0.7609199556260867 1
3 22 6 2 45.89009200000001 29.369174 25.89009200000001 45.369174 30.64177700000002 25.711504000000005 0.6043280638949202 1
3 5 7 3 4 20 28 12 0 32 0.2927700218845599 0
3 6 7 3 12 20 20 12 0 32 0.6 0
3 7 7 3 20 20 12 12 0 32 0.6 0
3 8 7 3 28 20 4 12 0 32 0.2927700218845599 0
3 20 7 2 29.89009200000001 37.369174 41.89009200000001 37.369174 30.64177700000002 25.711504000000005 0.844710648167886 1
3 21 7 2 37.89009200000001 37.369174 33.89009200000001 37.369174 30.64177700000002 25.711504000000005 0.9457438895807767 1
3 22 7 2 45.89009200000001 37.369174 25.89009200000001 37.369174 30.64177700000002 25.711504000000005 0.7511165524112688 1
3 5 8 3 4 28 28 4 0 32 0.14285714285714285 0
3 6 8 3 12 28 20 4 0 32 0.2927700218845599 0
3 7 8 3 20 28 12 4 0 32 0.2927700218845599 0
3 8 8 3 28 28 4 4 0 32 0.14285714285714285 0
3 20 8 2 29.89009200000001 45.369174 41.89009200000001 29.369174 30.64177700000002 25.711504000000005 0.679631342059961 1
3 21 8 2 37.89009200000001 45.369174 33.89009200000001 29.369174 30.64177700000002 25.711504000000005 0.7609199556260867 1
3 22 8 2 45.89009200000001 45.369174 25.89009200000001 29.369174 30.64177700000002 25.711504000000005 0.6043280638949202 1
# level 3: 25 positive of 364 locations
# level 4: 0 positive of 91 locations
"""


@pytest.fixture
def golden_gt(tmp_path):
    gt = tmp_path / "gt"
    gt.mkdir()
    for name, text in GOLDEN_GT.items():
        (gt / name).write_text(text)
    return gt


class TestArrayPathGoldens:
    """fit-demo and assign stdout, recorded from the per-object implementation."""

    @pytest.mark.parametrize("size, expected", [
        ([], GOLDEN_FIT_DEMO_DERIVED_SIZE),
        (["--image-size", "128x128"], GOLDEN_FIT_DEMO_128),
    ])
    def test_fit_demo(self, golden_gt, capsys, size, expected):
        code, out, err = run_cli(capsys, "fit-demo", "--gt", str(golden_gt), "--steps", "20",
                                 "--trace-every", "10", *size, *GOLDEN_CONFIG)
        assert (code, err) == (0, "")
        assert out == expected

    def test_assign(self, golden_gt, capsys):
        code, out, err = run_cli(capsys, "assign", "--gt", str(golden_gt), *GOLDEN_CONFIG)
        assert (code, err) == (0, "")
        assert out == GOLDEN_ASSIGN_DERIVED_SIZE

    def test_ship_has_tied_best_positives(self, golden_gt):
        # the tie that the golden output breaks toward the first positive
        gt = parse_dota_annotations(golden_gt)
        specs = grid_specs(208, 112, (8, 16))
        levels = assign_targets(specs, LevelRanges([(0, 64), (64, math.inf)]), gt.images["C"])
        flat = TargetMaps.concatenate(levels)
        result = fit_demo(flat, LossWeights(), steps=20, lr=0.05, num_classes=len(gt.classes))
        fused = np.array(result.fused_scores)
        ship = flat.object_index[result.positive_indices] == 0
        assert np.count_nonzero(fused[ship] == fused[ship].max()) == 4


class TestImageRows:
    def test_groups_unsorted_rows_in_file_order(self):
        image = np.array([1, 0, 1, 0, 3])
        n = len(image)
        gt = GtIndex(("a", "b", "c", "d"), image, np.zeros((n, 4, 2)), np.ones(n, dtype=int),
                     np.zeros(n, dtype=bool), ClassTable(("plane",)))
        assert [rows.tolist() for rows in cli._image_rows(gt)] == [[1, 3], [0, 2], [], [4]]


class TestBestPositives:
    def test_highest_fused_score_first_on_ties(self):
        object_index = np.array([2, 0, 2, 0, 2, 5, 0])
        fused = np.array([0.3, 0.7, 0.9, 0.7, 0.9, 0.1, 0.2])
        objects, picks = cli._best_positives(object_index, fused)
        assert objects.tolist() == [0, 2, 5]
        assert picks.tolist() == [1, 2, 5]

    def test_matches_a_scan_over_the_positives(self):
        rng = np.random.default_rng(9)
        object_index = rng.integers(0, 30, 400)
        fused = rng.choice([0.1, 0.25, 0.5, 0.75], 400)
        best = {}
        for k, (j, score) in enumerate(zip(object_index.tolist(), fused.tolist())):
            if j not in best or score > best[j][0]:
                best[j] = (score, k)
        objects, picks = cli._best_positives(object_index, fused)
        assert dict(zip(objects.tolist(), picks.tolist())) == {j: k for j, (_, k) in best.items()}
        assert objects.tolist() == sorted(best)


class TestDotaRoundtrip:
    def test_annotations_roundtrip(self, scene, tmp_path):
        gt = parse_dota_annotations(scene / "gt")
        out_dir = tmp_path / "rt"
        write_dota_annotations(gt, out_dir)
        again = parse_dota_annotations(out_dir)
        assert again.classes.names == gt.classes.names
        assert set(again.images) == set(gt.images)
        for image_id, objs in gt.images.items():
            rt = again.images[image_id]
            assert len(rt) == len(objs)
            for a, b in zip(objs, rt):
                assert a.class_id == b.class_id
                assert a.difficult == b.difficult
                assert a.quad.as_flat() == b.quad.as_flat()

    def test_detections_roundtrip(self, scene, tmp_path):
        dets, classes = parse_dota_detections(scene / "dets")
        out_dir = tmp_path / "rt"
        write_dota_detections(dets, classes, out_dir)
        again, _ = parse_dota_detections(out_dir, classes)
        counts = {k: len(v) for k, v in dets.per_image().items()}
        assert {k: len(v) for k, v in again.per_image().items()} == counts

    def test_write_rejects_class_outside_table(self, tmp_path):
        quad = canonicalize([(0, 0), (10, 0), (10, 10), (0, 10)])
        dets = DetectionSet.from_mapping({"A": [Detection(quad, 5, 0.5)]})
        out_dir = tmp_path / "out"
        with pytest.raises(UnknownClass, match="class id 5"):
            write_dota_detections(dets, ClassTable(("plane",)), out_dir)
        assert not out_dir.exists()

    def test_nine_token_line_defaults_difficult(self, tmp_path):
        d = tmp_path / "gt"
        d.mkdir()
        (d / "A.txt").write_text("0 0 10 0 10 10 0 10 plane\n")
        gt = parse_dota_annotations(d)
        assert gt.images["A"][0].difficult is False

    def test_seven_numbers_is_parse_error(self, tmp_path):
        d = tmp_path / "gt"
        d.mkdir()
        (d / "A.txt").write_text("0 0 10 0 10 10 0 plane 0\n")
        with pytest.raises(ParseError):
            parse_dota_annotations(d)

    def test_empty_file_is_empty_image(self, tmp_path):
        d = tmp_path / "gt"
        d.mkdir()
        (d / "A.txt").write_text("")
        gt = parse_dota_annotations(d)
        assert gt.images["A"] == []

    def test_task1_prefix_stripped(self, tmp_path):
        d = tmp_path / "dets"
        d.mkdir()
        (d / "Task1_plane.txt").write_text("A 0.5 0 0 1 0 1 1 0 1\n")
        dets, classes = parse_dota_detections(d)
        assert classes.names == ("plane",)

    def test_duplicate_lines_preserved(self, tmp_path):
        d = tmp_path / "dets"
        d.mkdir()
        (d / "plane.txt").write_text("A 0.5 0 0 1 0 1 1 0 1\nA 0.5 0 0 1 0 1 1 0 1\n")
        dets, _ = parse_dota_detections(d)
        assert len(dets.per_image()["A"]) == 2


class TestParserReuse:
    """main parses every call with one parser per process; build_parser() stays fresh."""

    QUAD = "0,1,1,0,2,1,1,2"

    @staticmethod
    def fresh(capsys, monkeypatch, *argv):
        # main's output when it builds its parser for this call
        monkeypatch.setattr(cli, "_parser", None)
        return run_cli(capsys, *argv)

    def test_set_values_do_not_accumulate(self, scene, capsys, monkeypatch):
        seen = []
        load = cli._load_config

        def recording(args, **flags):
            seen.append(args.set)
            return load(args, **flags)

        monkeypatch.setattr(cli, "_load_config", recording)
        base = ("eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets"))
        want = self.fresh(capsys, monkeypatch, *base, "--set", "eval_iou_threshold=0.7")
        run_cli(capsys, *base, "--set", "metric_mode=all")
        got = run_cli(capsys, *base, "--set", "eval_iou_threshold=0.7")
        assert seen == [["eval_iou_threshold=0.7"], ["metric_mode=all"], ["eval_iou_threshold=0.7"]]
        assert got == want and json.loads(got[1].splitlines()[-1])["mode"] == "11point"

    @pytest.mark.parametrize(
        "bad",
        [("iou", "--quad-a", QUAD), ("iou", "--quad-a", QUAD, "--quad-b", QUAD, "--grid", "x"),
         ("eval", "--bogus"), ("nope",), ()],
    )
    def test_usage_error_then_good_call(self, bad, capsys, monkeypatch):
        good = ("iou", "--quad-a", self.QUAD, "--quad-b", self.QUAD, "--raster-check")
        want_bad = self.fresh(capsys, monkeypatch, *bad)
        want_good = self.fresh(capsys, monkeypatch, *good)
        parser = cli._parser
        assert run_cli(capsys, *bad) == want_bad and want_bad[0] == 1
        assert run_cli(capsys, *good) == want_good and want_good[0] == 0
        assert run_cli(capsys, *bad) == want_bad
        assert cli._parser is parser

    def test_build_parser_returns_a_new_parser(self, capsys):
        run_cli(capsys, "iou", "--quad-a", self.QUAD, "--quad-b", self.QUAD)
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser is not None and cli._parser is not first and cli._parser is not second

    def test_main_builds_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        monkeypatch.setattr(cli, "_parser", None)
        for argv in ((), ("iou", "--quad-a", self.QUAD), ("iou", "--quad-a", self.QUAD,
                                                           "--quad-b", self.QUAD)):
            run_cli(capsys, *argv)
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import obbkit.cli\n"
            "print(len(built), obbkit.cli._parser)\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "0 None\n"), proc.stderr


class TestConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.weights.focal_alpha == 0.3
        assert cfg.weights.focal_beta == 4.0
        assert cfg.weights.reg_weight == 1.0
        assert cfg.weights.ori_weight == 1.0
        assert cfg.weights.reg_l1_weight == 0.2
        assert cfg.weights.ori_l1_weight == 0.2
        assert cfg.center_radius_mult == 1.5
        assert cfg.strides == (8, 16, 32, 64, 128)
        assert len(cfg.level_ranges) == 5

    def test_file_and_override_precedence(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment\nfocal_alpha = 0.9\neval_iou_threshold=0.7\n")
        values = read_config_file(f)
        cfg = build_config(values)
        assert cfg.weights.focal_alpha == 0.9
        cfg = build_config(values, focal_alpha="0.25")
        assert cfg.weights.focal_alpha == 0.25
        assert cfg.eval_iou_threshold == 0.7

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            build_config({"bogus": "1"})

    def test_bad_config_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("not a pair\n")
        with pytest.raises(ParseError):
            read_config_file(f)

    def test_level_ranges_parse(self):
        r = parse_level_ranges("0:64,64:128,128:inf")
        assert len(r) == 3
        assert math.isinf(r[2][1])

    def test_empty_last_level_range_rejected(self, scene, capsys):
        with pytest.raises(ValueError, match="contiguous and increasing"):
            parse_level_ranges("0:inf,inf:inf")
        code, out, err = run_cli(
            capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets"),
            "--set", "strides=8,16", "--set", "level_ranges=0:inf,inf:inf",
        )
        assert (code, out) == (2, "")
        assert "contiguous and increasing" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("threads", "2"),
            ("seed", "0"),
            ("score_threshold", "0.1"),
            ("nms_iou_threshold", "0.5"),
            ("max_detections", "10"),
            ("apply_nms", "false"),
        ],
    )
    def test_removed_key_is_unknown(self, key, value, scene, capsys):
        with pytest.raises(ValueError, match="unknown config key"):
            build_config({key: value})
        code, out, err = run_cli(
            capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets"),
            "--set", f"{key}={value}",
        )
        assert code == 2
        assert out == ""
        assert "unknown config key" in err

    def test_seed_flag_is_usage_error(self, scene, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--gt", str(scene / "gt"), "--dets", str(scene / "dets"), "--seed", "0"
        )
        assert (code, out) == (1, "")
        assert err == "usage error: unrecognized arguments: --seed 0\n"

    def test_strides_ranges_length_mismatch(self):
        with pytest.raises(ValueError):
            build_config({"strides": "8,16"})


# ------------------------------------------------------------------ fuzzing

_cell = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-2, 6).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "-0", "0.5", "1_0", "0x1", ".", "e", "x", "#"]),
    st.sampled_from(["\u0661\u0662", "+.5e-3", "-nan", "4.9406564584124654e-324"]),
    # whitespace-only cells put other separators between the spaces of a line
    st.sampled_from(["\t", "\x1f", "\xa0"]),
)
_layout = st.sampled_from(["", "   ", "# note", "#", "\t# 1 2 3", " 1 2 # 3"])


def _table_lines(good, size):
    """Lines of a numeric table file: random cells around `size` fields, blank
    lines, # comments, and some lines the command accepts."""
    line = st.one_of(
        st.lists(_cell, min_size=max(size - 2, 0), max_size=size + 2).map(" ".join),
        st.lists(_cell, max_size=3).map(" ".join),
        _layout,
        st.sampled_from(good),
    )
    return st.lists(line, max_size=6).map(lambda lines: "\n".join(lines) + "\n")


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _clean(path: Path, rows) -> Path:
    """A file holding exactly the given rows of numbers, one line each."""
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows))
    return path


def _expected_table_command(command, path: Path, tmp: Path):
    """encode/decode on the rows the line oracle reads before its first error.

    Both commands print the lines before the first error in file order; a
    parse error comes after every earlier line's output (encode's summary
    line is only printed when nothing failed).
    """
    rows, error = [], None
    try:
        for _, values in numeric_lines_oracle(path, 8 if command == "encode" else 6):
            rows.append(values)
    except ParseError as exc:
        error = exc
    code, out, err = _capture([command, str(_clean(tmp / "clean.txt", rows))])
    if error is None or code != 0:
        return code, out, err
    if command == "encode":
        out = "".join(out.splitlines(keepends=True)[:-1])
    return 2, out, f"error: {error}\n"


def _expected_loss(targets: Path, preds: Path, tmp: Path):
    try:
        class_ids, target_rows = read_targets_oracle(targets)
        pred_rows = read_preds_oracle(preds)
    except ParseError as exc:
        return 2, "", f"error: {exc}\n"
    clean_targets = tmp / "clean_targets.txt"
    clean_targets.write_text("".join(
        (f"{c} " + " ".join(map(repr, row)) if c else "0") + "\n"
        for c, row in zip(class_ids, target_rows)
    ))
    clean_preds = _clean(tmp / "clean_preds.txt", pred_rows)
    return _capture(["loss", "--targets", str(clean_targets), "--preds", str(clean_preds)])


@settings(max_examples=150, deadline=None)
@given(
    quads=_table_lines(["0 3 3 0 4 1 1 4", "0 0 4 0 4 2 0 2", "0 0 4 0 4 2 0 2 extra"], 8),
    boxes=_table_lines(["0 0 2 2 1 1", "0 0 4 2 0 2", "0 0 2 2 5 1", "0 0 2 2 1 1 extra"], 6),
)
def test_fuzz_table_readers(quads, boxes):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for command, text in (("encode", quads), ("decode", boxes)):
            path = tmp / f"{command}.txt"
            path.write_text(text)
            assert _capture([command, str(path)]) == _expected_table_command(command, path, tmp)


_GOOD_TARGETS = ["0", "1 2 1 4 3 1 2 0.4", "2 1 1 1 1 0.5 0.5 0.2"]
_GOOD_PREDS = ["0.5 1 1 1 1 0.5 0.5 0.3 0.4", "0.6 3 2 3 2 0.5 1 0.7 0.2"]


def _cells(size):
    return st.lists(_cell, min_size=size - 2, max_size=size + 2).map(" ".join)


_loss_row = st.one_of(
    # mostly aligned rows, so that some pairs of files reach the loss
    st.tuples(st.sampled_from(_GOOD_TARGETS), st.sampled_from(_GOOD_PREDS)),
    st.tuples(st.sampled_from(_GOOD_TARGETS), st.sampled_from(_GOOD_PREDS)),
    st.tuples(st.one_of(_cells(8), st.sampled_from(["-1", "a", "1_0", "0 1"])), _cells(9)),
    st.tuples(st.sampled_from(_GOOD_TARGETS), _cells(9)),
    st.tuples(_layout, _layout),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_loss_row, max_size=6))
def test_fuzz_loss_readers(rows):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        t, p = tmp / "targets.txt", tmp / "preds.txt"
        t.write_text("".join(f"{target}\n" for target, _ in rows))
        p.write_text("".join(f"{pred}\n" for _, pred in rows))
        got = _capture(["loss", "--targets", str(t), "--preds", str(p)])
        assert got == _expected_loss(t, p, tmp)
