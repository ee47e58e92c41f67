import math

import numpy as np
import pytest

from obbkit.errors import ShapeMismatch
from obbkit.targets import (
    FeatureGridSpec,
    GroundTruthObject,
    LevelRanges,
    TargetMaps,
    assign_targets,
)

from helpers import axis_box, target_maps


def test_rows_hold_assigned_values():
    objects = [GroundTruthObject(axis_box(4, 4, 20, 20), 2, difficult=True)]
    (maps,) = assign_targets([FeatureGridSpec(4, 4, 8, 3)], LevelRanges([(0, math.inf)]), objects)
    assert len(maps) == 16
    # row 5 is grid (1, 1) at image point (12, 12), the box center
    assert maps.grid[5].tolist() == [1, 1]
    assert maps.points[5].tolist() == [12.0, 12.0]
    assert maps.class_id[5] == 2
    assert maps.ltrb[5].tolist() == [8.0, 8.0, 8.0, 8.0]
    assert maps.wh[5].tolist() == [0.0, 16.0]
    assert maps.centerness[5] == 1.0
    assert maps.difficult[5]
    assert maps.object_index[5] == 0
    # the last row is background: no regression values, no object
    assert maps.grid[-1].tolist() == [3, 3]
    assert maps.points[-1].tolist() == [28.0, 28.0]
    assert maps.class_id[-1] == 0
    assert not maps.ltrb[-1].any() and not maps.wh[-1].any() and maps.centerness[-1] == 0
    assert not maps.difficult[-1]
    assert maps.object_index[-1] == -1
    with pytest.raises(ValueError):
        maps.class_id[0] = 1


def test_mismatched_field_lengths_rejected():
    maps = target_maps([0])
    with pytest.raises(ShapeMismatch):
        TargetMaps(maps.class_id, maps.ltrb, maps.wh, maps.centerness, maps.difficult,
                   maps.object_index, np.zeros((2, 2)), maps.grid)


FIELDS = ("class_id", "ltrb", "wh", "centerness", "difficult", "object_index", "points", "grid")


def _scene_levels():
    objects = [GroundTruthObject(axis_box(4, 4, 20, 20), 2),
               GroundTruthObject(axis_box(8, 2, 30, 14), 1)]
    specs = [FeatureGridSpec(4, 4, 8, 3), FeatureGridSpec(2, 2, 16, 4)]
    return assign_targets(specs, LevelRanges([(0, 12), (12, math.inf)]), objects)


class TestOwnership:
    """Every map copies the arrays it is built from and makes them read-only."""

    def test_caller_arrays_are_copied(self):
        ref = target_maps([0, 2, 1], ltrb=np.full((3, 4), 3.0), wh=np.ones((3, 2)))
        arrays = [np.array(getattr(ref, name)) for name in FIELDS]
        maps = TargetMaps(*arrays)
        for arr in arrays:
            arr[...] = 7
        for name in FIELDS:
            assert np.array_equal(getattr(maps, name), getattr(ref, name)), name

    def test_built_maps_are_read_only(self):
        levels = _scene_levels()
        for maps in (*levels, TargetMaps.concatenate(levels)):
            for name in FIELDS:
                arr = getattr(maps, name)
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr.reshape(-1)[0] = 1
