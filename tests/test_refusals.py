"""Every argument check that no other test reaches: its exception type and message."""

import contextlib
import io

import numpy as np
import pytest

from obbkit import cli
from obbkit.config import RunConfig, parse_level_ranges, parse_metric_mode
from obbkit.dota import parse_dota_detections
from obbkit.errors import ShapeMismatch
from obbkit.evaluation import ClassTable, pr_curve
from obbkit.geometry import canonicalize
from obbkit.ie_attention import AttentionWeights, FeatureMap, ie_fuse
from obbkit.inference import Detection, run_inference
from obbkit.losses import (
    LossWeights,
    PredictionBatch,
    fit_demo,
    focal_loss,
    grad_check,
    smooth_l1,
)
from obbkit.targets import FeatureGridSpec, GroundTruthObject, LevelRanges

from helpers import target_maps

QUAD = canonicalize([(0, 0), (10, 0), (10, 10), (0, 10)])


def _feature_map(channels, width, height):
    return FeatureMap(channels, width, height, np.zeros((channels, width * height)))


REFUSALS = [
    # config
    (lambda d: RunConfig(metric_mode="x"), ValueError, "unknown metric mode 'x'"),
    (lambda d: parse_level_ranges("0-64"), ValueError, "expected lo:hi, got '0-64'"),
    (lambda d: parse_metric_mode("x"), ValueError, "unknown metric mode 'x'"),
    # dota
    (lambda d: parse_dota_detections(d, unknown_category="x"), ValueError,
     "unknown_category must be 'error' or 'skip'"),
    # evaluation
    (lambda d: ClassTable(("a", "a")), ValueError, "duplicate category names"),
    (lambda d: pr_curve([], [], -1), ValueError, "num_gt must be >= 0"),
    (lambda d: pr_curve([1], [0.5, 0.4], 1), ValueError, "flags and scores must be aligned"),
    # ie_attention
    (lambda d: _feature_map(0, 1, 1), ValueError, "channels, width and height must be >= 1"),
    (lambda d: AttentionWeights(np.zeros((2, 3)), np.eye(2), np.eye(2)), ShapeMismatch,
     "wf must be square of matching size, got (2, 3)"),
    (lambda d: AttentionWeights(np.full((2, 2), np.nan), np.eye(2), np.eye(2)), ValueError,
     "wf must be finite"),
    (lambda d: ie_fuse(_feature_map(2, 2, 2), _feature_map(2, 2, 2), _feature_map(2, 1, 4),
                       AttentionWeights.seeded(2, 0)), ShapeMismatch,
     "orientation features must match the merged shape"),
    # inference
    (lambda d: Detection(QUAD, 0, 0.5), ValueError, "class_id must be >= 1"),
    (lambda d: Detection(QUAD, 1, 1.5), ValueError, "score must lie in [0, 1], got 1.5"),
    (lambda d: run_inference([PredictionBatch([[0.5]], [0.5], [[1, 1, 1, 1]], [[1, 1]])], []),
     ShapeMismatch, "1 batches vs 0 grid specs"),
    # losses
    (lambda d: LossWeights(reg_weight=-1), ValueError, "reg_weight must be finite and >= 0, got -1"),
    (lambda d: focal_loss([0.5], [1.0], 0.3, 4.0, normalizer=0.5), ValueError,
     "normalizer must be >= 1, got 0.5"),
    (lambda d: smooth_l1([1, 2], [1]), ShapeMismatch, "pred (2,) vs target (1,)"),
    (lambda d: grad_check(lambda x: (0.0, np.zeros(3)), np.zeros(2)), ShapeMismatch,
     "gradient (3,) vs point (2,)"),
    (lambda d: fit_demo(target_maps([1], ltrb=[(1, 1, 1, 1)]), LossWeights(), num_classes=0),
     ValueError, "at least one class required"),
    # targets
    (lambda d: FeatureGridSpec(0, 1, 8, 3), ValueError,
     "grid dimensions and stride must be >= 1, got "
     "FeatureGridSpec(width=0, height=1, stride=8, level=3)"),
    (lambda d: GroundTruthObject(QUAD, 0), ValueError,
     "class_id must be >= 1 (0 is reserved for background)"),
    (lambda d: LevelRanges([]), ValueError, "at least one level range required"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusal(call, error, message, tmp_path):
    with pytest.raises(error) as got:
        call(tmp_path)
    assert type(got.value) is error and str(got.value) == message


def test_set_without_equals_is_a_data_error(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    argv = ["loss", "--targets", str(tmp_path / "t.txt"), "--preds", str(tmp_path / "p.txt")]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--set", "foo"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == "error: --set expects key=value, got 'foo'\n"
