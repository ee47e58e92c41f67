import math

import numpy as np
import pytest

from obbkit.geometry import Point2, Quad, encode, polygon_iou, quad_from_offsets
from obbkit.targets import (
    FeatureGridSpec,
    GroundTruthObject,
    LevelRanges,
    assign_targets,
    centerness,
    grid_specs,
)

from helpers import axis_box, grid_to_image, random_rect, rotated_rect


class TestGridToImage:
    def test_stride_one(self):
        assert grid_to_image(FeatureGridSpec(4, 4, 1, 0), 0, 0) == Point2(0, 0)

    def test_stride_eight_origin(self):
        assert grid_to_image(FeatureGridSpec(4, 4, 8, 3), 0, 0) == Point2(4, 4)

    def test_stride_eight_offset(self):
        assert grid_to_image(FeatureGridSpec(4, 4, 8, 3), 2, 1) == Point2(20, 12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            grid_to_image(FeatureGridSpec(4, 4, 8, 3), 4, 0)
        with pytest.raises(ValueError):
            grid_to_image(FeatureGridSpec(4, 4, 8, 3), 0, -1)


class TestCenterness:
    def test_symmetric(self):
        assert centerness((2, 1, 2, 1)) == 1.0

    def test_hand_values(self):
        assert abs(centerness((1, 2, 3, 2)) - math.sqrt(1 / 3)) < 1e-15
        assert abs(centerness((1, 1, 1, 3)) - math.sqrt(1 / 3)) < 1e-15

    def test_swap_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            l, t, r, b = rng.uniform(0.1, 20, 4)
            c = centerness((l, t, r, b))
            assert abs(c - centerness((r, t, l, b))) < 1e-15
            assert abs(c - centerness((l, b, r, t))) < 1e-15

    def test_one_only_when_centered(self):
        assert centerness((3, 3, 3, 3)) == 1.0
        assert centerness((3, 3, 3.1, 3)) < 1.0

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            centerness((0, 1, 1, 1))


class TestLevelRanges:
    def test_default(self):
        r = LevelRanges.default_fpn()
        assert len(r) == 5
        assert r[0] == (0, 64)
        assert math.isinf(r[4][1])

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            LevelRanges([(1, 64), (64, math.inf)])

    def test_must_end_at_infinity(self):
        with pytest.raises(ValueError):
            LevelRanges([(0, 64)])

    def test_must_be_contiguous(self):
        with pytest.raises(ValueError):
            LevelRanges([(0, 64), (65, math.inf)])

    @pytest.mark.parametrize("pairs", [
        [(0, math.inf), (math.inf, math.inf)],
        [(0, 64), (64, 64), (64, math.inf)],
        [(0, 0), (0, math.inf)],
    ])
    def test_every_interval_must_be_nonempty(self, pairs):
        with pytest.raises(ValueError, match="contiguous and increasing"):
            LevelRanges(pairs)


def _brute_force_best_object(specs, ranges, objects, radius_mult):
    """Independent per-location re-derivation of the assignment rule."""
    encs = [encode(obj.quad) for obj in objects]
    per_level = []
    for spec, (lo, hi) in zip(specs, ranges.pairs):
        rows = []
        for y_s in range(spec.height):
            for x_s in range(spec.width):
                px = spec.stride // 2 + x_s * spec.stride
                py = spec.stride // 2 + y_s * spec.stride
                candidates = []
                for j, enc in enumerate(encs):
                    b = enc.hbb
                    if not (b.xmin < px < b.xmax and b.ymin < py < b.ymax):
                        continue
                    cx = (b.xmin + b.xmax) / 2
                    cy = (b.ymin + b.ymax) / 2
                    d = radius_mult * spec.stride
                    if abs(px - cx) > d or abs(py - cy) > d:
                        continue
                    m = max(px - b.xmin, py - b.ymin, b.xmax - px, b.ymax - py)
                    if not (lo < m <= hi):
                        continue
                    candidates.append((b.area, j))
                rows.append(min(candidates)[1] if candidates else -1)
        per_level.append(rows)
    return per_level


class TestAssignTargets:
    def test_centered_object(self):
        # object centered exactly on the grid point (12, 12) of a stride-8 grid
        obj = GroundTruthObject(axis_box(4, 4, 20, 20), 1)
        spec = FeatureGridSpec(4, 4, 8, 3)
        ranges = LevelRanges([(0, math.inf)])
        (maps,) = assign_targets([spec], ranges, [obj])
        positives = np.flatnonzero(maps.class_id > 0)
        assert len(positives) == 1
        i = positives[0]
        assert tuple(maps.grid[i]) == (1, 1)
        assert maps.centerness[i] == 1.0
        assert maps.class_id[i] == 1
        assert tuple(maps.ltrb[i]) == (8, 8, 8, 8)
        assert tuple(maps.wh[i]) == (0, 16)

    def test_large_object_goes_to_coarse_level(self):
        # 200 px box: every interior location regresses beyond 64 px
        obj = GroundTruthObject(axis_box(0, 0, 200, 200), 1)
        specs = [FeatureGridSpec(32, 32, 8, 3), FeatureGridSpec(16, 16, 16, 4)]
        ranges = LevelRanges([(0, 64), (64, math.inf)])
        levels = assign_targets(specs, ranges, [obj], center_radius_mult=1.5)
        assert not (levels[0].class_id > 0).any()
        assert (levels[1].class_id > 0).any()

    def test_nested_objects_smaller_wins(self):
        big = GroundTruthObject(axis_box(0, 0, 40, 40), 1)
        small = GroundTruthObject(axis_box(12, 12, 28, 28), 2)
        spec = FeatureGridSpec(5, 5, 8, 3)
        ranges = LevelRanges([(0, math.inf)])
        (maps,) = assign_targets([spec], ranges, [big, small], center_radius_mult=10)
        center = np.flatnonzero((maps.grid == (2, 2)).all(axis=1))[0]
        assert maps.class_id[center] == 2
        assert maps.object_index[center] == 1

    def test_empty_scene_all_background(self):
        spec = FeatureGridSpec(3, 3, 8, 3)
        levels = assign_targets([spec], LevelRanges([(0, math.inf)]), [])
        assert not (levels[0].class_id > 0).any()

    def test_difficult_flag_propagates(self):
        obj = GroundTruthObject(axis_box(4, 4, 20, 20), 1, difficult=True)
        spec = FeatureGridSpec(4, 4, 8, 3)
        (maps,) = assign_targets([spec], LevelRanges([(0, math.inf)]), [obj])
        positives = maps.class_id > 0
        assert positives.any() and maps.difficult[positives].all()

    def test_positive_points_strictly_inside(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            objects = [
                GroundTruthObject(random_rect(rng, 200, 10, 120), int(rng.integers(1, 4)))
                for _ in range(3)
            ]
            specs = [FeatureGridSpec(32, 32, 8, 3)]
            ranges = LevelRanges([(0, math.inf)])
            (maps,) = assign_targets(specs, ranges, objects)
            for i in np.flatnonzero(maps.class_id > 0):
                b = encode(objects[maps.object_index[i]].quad).hbb
                x, y = maps.points[i]
                assert b.xmin < x < b.xmax
                assert b.ymin < y < b.ymax
                # ltrb reconstructs the box exactly
                l, tt, r, bb = maps.ltrb[i]
                np.testing.assert_allclose(
                    [x - l, y - tt, x + r, y + bb],
                    [b.xmin, b.ymin, b.xmax, b.ymax],
                    rtol=0,
                    atol=1e-12,
                )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(72)
        specs = [FeatureGridSpec(32, 32, 4, 2), FeatureGridSpec(32, 32, 8, 3)]
        ranges = LevelRanges([(0, 48), (48, math.inf)])
        for _ in range(20):
            n = int(rng.integers(1, 6))
            objects = [
                GroundTruthObject(random_rect(rng, 120, 8, 60), int(rng.integers(1, 4)))
                for _ in range(n)
            ]
            levels = assign_targets(specs, ranges, objects, center_radius_mult=1.5)
            expected = _brute_force_best_object(specs, ranges, objects, 1.5)
            for lvl, exp in zip(levels, expected):
                got = np.where(lvl.class_id > 0, lvl.object_index, -1).tolist()
                assert got == exp

    def test_shrinking_radius_never_adds_positives(self):
        rng = np.random.default_rng(73)
        specs = [FeatureGridSpec(24, 24, 8, 3)]
        ranges = LevelRanges([(0, math.inf)])
        for _ in range(10):
            objects = [
                GroundTruthObject(random_rect(rng, 150, 10, 100), 1) for _ in range(3)
            ]
            wide = assign_targets(specs, ranges, objects, center_radius_mult=2.0)
            narrow = assign_targets(specs, ranges, objects, center_radius_mult=1.0)
            wide_pos = {tuple(g) for g in wide[0].grid[wide[0].class_id > 0].tolist()}
            narrow_pos = {tuple(g) for g in narrow[0].grid[narrow[0].class_id > 0].tolist()}
            assert narrow_pos <= wide_pos

    def test_decode_identity_at_positives(self):
        rng = np.random.default_rng(74)
        objects = [
            GroundTruthObject(rotated_rect(60, 60, 50, 24, 35), 1),
            GroundTruthObject(rotated_rect(140, 80, 36, 20, -60), 2),
        ]
        specs = [FeatureGridSpec(24, 24, 8, 3)]
        (maps,) = assign_targets(specs, LevelRanges([(0, math.inf)]), objects)
        seen = set()
        for i in np.flatnonzero(maps.class_id > 0):
            j = int(maps.object_index[i])
            seen.add(j)
            back = quad_from_offsets(Point2(*maps.points[i]), maps.ltrb[i], maps.wh[i])
            assert polygon_iou(back, objects[j].quad) >= 1 - 1e-9
        assert seen == {0, 1}

    def test_overflowing_offsets_raise(self):
        # h = ymax - y1 overflows to inf
        huge = Quad(Point2(-1e308, -1e308), Point2(1e308, -1e308), Point2(1e308, 1e308),
                    Point2(-1e308, 1e308))
        with pytest.raises(ValueError, match="non-finite orientation offsets"):
            assign_targets([FeatureGridSpec(4, 4, 8, 3)], LevelRanges([(0, math.inf)]),
                           [GroundTruthObject(huge, 1)])

    def test_spec_count_mismatch(self):
        with pytest.raises(ValueError):
            assign_targets(
                [FeatureGridSpec(4, 4, 8, 3)],
                LevelRanges([(0, 64), (64, math.inf)]),
                [],
            )


class TestGridSpecs:
    def test_pyramid_levels(self):
        specs = grid_specs(256, 128, (8, 16, 32))
        assert [(s.width, s.height, s.stride, s.level) for s in specs] == [
            (32, 16, 8, 3),
            (16, 8, 16, 4),
            (8, 4, 32, 5),
        ]

    def test_rounds_up(self):
        (spec,) = grid_specs(100, 50, (16,))
        assert (spec.width, spec.height) == (7, 4)

    @pytest.mark.parametrize("strides", [(0,), (8, 0, 32), (-8,)])
    def test_stride_below_one_is_refused(self, strides):
        bad = next(s for s in strides if s < 1)
        with pytest.raises(ValueError, match=f"^stride must be >= 1, got {bad}$"):
            grid_specs(100, 100, strides)
