import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit.errors import ShapeMismatch
from obbkit.geometry import Point2
from obbkit.losses import LossWeights, PredictionBatch, fit_demo, total_loss
from obbkit.targets import (
    FeatureGridSpec,
    GroundTruthObject,
    LevelRanges,
    RegressionTarget,
    TargetMaps,
    assign_targets,
)

from helpers import axis_box, rotated_rect

SPECS = [FeatureGridSpec(16, 16, 4, 2), FeatureGridSpec(8, 8, 8, 3)]
RANGES = LevelRanges([(0, 24), (24, math.inf)])
NUM_CLASSES = 3

objects_strategy = st.lists(
    st.builds(
        lambda cx, cy, w, h, angle, class_id, difficult: GroundTruthObject(
            rotated_rect(cx, cy, w, h, angle), class_id, difficult
        ),
        st.floats(0, 64),
        st.floats(0, 64),
        st.floats(2, 50),
        st.floats(2, 50),
        st.floats(-90, 90),
        st.integers(1, NUM_CLASSES),
        st.booleans(),
    ),
    max_size=5,
)


def random_batch(rng, n):
    return PredictionBatch(
        rng.uniform(0.01, 0.99, (n, NUM_CLASSES)),
        rng.uniform(0.01, 0.99, n),
        rng.uniform(0.5, 30.0, (n, 4)),
        rng.uniform(0.0, 20.0, (n, 2)),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(objects_strategy, st.integers(0, 2**32 - 1))
def test_maps_and_target_list_agree(objects, seed):
    maps = TargetMaps.concatenate(assign_targets(SPECS, RANGES, objects))
    listed = list(maps)
    assert len(listed) == sum(s.width * s.height for s in SPECS)

    rt = TargetMaps.from_targets(listed)
    for name in ("class_id", "ltrb", "wh", "centerness", "difficult", "object_index", "points", "grid"):
        got, want = getattr(rt, name), getattr(maps, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name

    preds = random_batch(np.random.default_rng(seed), len(maps))
    a = total_loss(preds, maps, LossWeights())
    b = total_loss(preds, listed, LossWeights())
    assert a.breakdown == b.breakdown
    for grad in ("class_score_grad", "centerness_grad", "ltrb_grad", "wh_grad"):
        assert np.array_equal(getattr(a, grad), getattr(b, grad)), grad


def test_rows_match_regression_targets():
    objects = [GroundTruthObject(axis_box(4, 4, 20, 20), 2, difficult=True)]
    (maps,) = assign_targets([FeatureGridSpec(4, 4, 8, 3)], LevelRanges([(0, math.inf)]), objects)
    assert maps[5] == RegressionTarget(
        1, 1, Point2(12.0, 12.0), 2, ltrb=(8.0, 8.0, 8.0, 8.0), wh=(0.0, 16.0),
        centerness=1.0, difficult=True, object_index=0,
    )
    assert maps[-1] == RegressionTarget(3, 3, Point2(28.0, 28.0), 0)
    assert list(maps)[5] == maps[5]
    with pytest.raises(IndexError):
        maps[16]
    with pytest.raises(ValueError):
        maps.class_id[0] = 1


def test_mismatched_field_lengths_rejected():
    maps = TargetMaps.from_targets([RegressionTarget(0, 0, Point2(0.0, 0.0), 0)])
    with pytest.raises(ShapeMismatch):
        TargetMaps(maps.class_id, maps.ltrb, maps.wh, maps.centerness, maps.difficult,
                   maps.object_index, np.zeros((2, 2)), maps.grid)


def test_positive_without_regression_values_rejected():
    bad = [RegressionTarget(0, 0, Point2(0.0, 0.0), 1, wh=(1.0, 1.0), centerness=0.5)]
    preds = random_batch(np.random.default_rng(0), 1)
    with pytest.raises(ValueError, match="lacks regression values"):
        total_loss(preds, bad, LossWeights())
    with pytest.raises(ValueError, match="lacks regression values"):
        fit_demo(bad, LossWeights(), steps=1)
