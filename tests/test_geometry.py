import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit.errors import DegenerateQuad
from obbkit.geometry import (
    EncodedBox,
    HBB,
    Point2,
    canonicalize,
    decode,
    encode,
    encode_many,
    polygon_iou,
    quad_arrays,
    quad_from_offsets,
    quad_list,
    quads_from_offsets,
    raster_iou_oracle,
)

from helpers import (
    axis_box,
    canonicalize_oracle,
    convex_intersect_oracle,
    decode_oracle,
    encode_oracle,
    polygon_area_oracle,
    quad_from_offsets_oracle,
    random_rect,
    rotated_rect,
)


signed_grid = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0])


class TestCanonicalize:
    def test_axis_aligned_tie_break(self):
        q = canonicalize([(4, 0), (4, 2), (0, 2), (0, 0)])
        assert q.as_flat() == (0, 0, 4, 0, 4, 2, 0, 2)

    def test_edge_touch_assignment(self):
        q = canonicalize([(1, 2), (2, 1), (1, 0), (0, 1)])
        assert q.as_flat() == (0, 1, 1, 0, 2, 1, 1, 2)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateQuad):
            canonicalize([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_tiny_area_raises(self):
        with pytest.raises(DegenerateQuad):
            canonicalize([(0, 0), (1, 0), (1, 1e-8), (0, 1e-8)])

    def test_concave_raises(self):
        with pytest.raises(DegenerateQuad):
            canonicalize([(0, 0), (4, 0), (1, 1), (0, 4)])

    def test_vertex_order_is_input_independent(self):
        base = [(0, 3), (3, 0), (4, 1), (1, 4)]
        expected = canonicalize(base).as_flat()
        for shift in range(4):
            rolled = base[shift:] + base[:shift]
            assert canonicalize(rolled).as_flat() == expected
            assert canonicalize(rolled[::-1]).as_flat() == expected

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = random_rect(rng)
            again = canonicalize(q.vertices)
            assert again.as_flat() == q.as_flat()

    def test_slots_touch_their_edges(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            q = random_rect(rng)
            b = q.bounds()
            tol = 1e-9 * max(b.width, b.height, 1.0)
            assert abs(q.v1.x - b.xmin) <= tol
            assert abs(q.v2.y - b.ymin) <= tol
            assert abs(q.v3.x - b.xmax) <= tol
            assert abs(q.v4.y - b.ymax) <= tol

    def test_clockwise_on_screen(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pts = random_rect(rng).as_array()
            shoelace = 0.0
            for i in range(4):
                x0, y0 = pts[i]
                x1, y1 = pts[(i + 1) % 4]
                shoelace += x0 * y1 - x1 * y0
            assert shoelace > 0


class TestEncodeDecode:
    def test_encode_axis_aligned(self):
        e = encode(canonicalize([(0, 0), (4, 0), (4, 2), (0, 2)]))
        assert (e.hbb.xmin, e.hbb.ymin, e.hbb.xmax, e.hbb.ymax) == (0, 0, 4, 2)
        assert (e.w, e.h) == (0, 2)

    def test_encode_diamond(self):
        e = encode(canonicalize([(0, 1), (1, 0), (2, 1), (1, 2)]))
        assert (e.hbb.xmin, e.hbb.ymin, e.hbb.xmax, e.hbb.ymax) == (0, 0, 2, 2)
        assert (e.w, e.h) == (1, 1)

    def test_encode_tilted(self):
        e = encode(canonicalize([(0, 3), (3, 0), (4, 1), (1, 4)]))
        assert (e.hbb.xmax, e.hbb.ymax, e.w, e.h) == (4, 4, 1, 1)

    def test_decode_examples(self):
        assert decode(EncodedBox(HBB(0, 0, 2, 2), 1, 1)).as_flat() == (0, 1, 1, 0, 2, 1, 1, 2)
        assert decode(EncodedBox(HBB(0, 0, 4, 2), 0, 2)).as_flat() == (0, 0, 4, 0, 4, 2, 0, 2)
        assert decode(EncodedBox(HBB(0, 0, 4, 4), 1, 1)).as_flat() == (0, 3, 3, 0, 4, 1, 1, 4)

    @settings(max_examples=200, deadline=None)
    @given(
        corners=st.lists(st.floats(-1e308, 1e308), min_size=4, max_size=4),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    )
    def test_decode_matches_scalar_oracle_bit_for_bit(self, corners, fractions):
        xmin, xmax = sorted(corners[:2])
        ymin, ymax = sorted(corners[2:])
        try:
            e = EncodedBox(HBB(xmin, ymin, xmax, ymax), fractions[0] * (xmax - xmin),
                           fractions[1] * (ymax - ymin))
        except ValueError:
            return  # extents that overflow are no box
        want = [x.hex() for x in decode_oracle(e).as_flat()]
        assert [x.hex() for x in decode(e).as_flat()] == want

    def test_encoded_box_invariants(self):
        with pytest.raises(ValueError):
            EncodedBox(HBB(0, 0, 4, 2), -0.5, 1)
        with pytest.raises(ValueError):
            EncodedBox(HBB(0, 0, 4, 2), 5, 1)

    def test_offsets_within_extents(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            e = encode(random_rect(rng))
            assert 0 <= e.w <= e.hbb.width
            assert 0 <= e.h <= e.hbb.height

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(signed_grid, signed_grid), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_encode_many_matches_oracle_bit_for_bit(self, rows):
        # small grids of signed zeros: the first extreme vertex gives the bound's sign
        quads = []
        for points in rows:
            try:
                quads.append(canonicalize_oracle(points))
            except DegenerateQuad:
                pass
        bounds, wh = encode_many(quad_arrays(quads))
        assert bounds.shape == (len(quads), 4) and wh.shape == (len(quads), 2)
        for k, q in enumerate(quads):
            want = encode_oracle(q)
            got = encode(q)
            assert got == want
            bits = [x.hex() for x in (*astuple(want.hbb), want.w, want.h)]
            assert [x.hex() for x in (*bounds[k].tolist(), *wh[k].tolist())] == bits
            assert [x.hex() for x in (*astuple(got.hbb), got.w, got.h)] == bits

    def test_random_roundtrip(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            q = random_rect(rng)
            back = decode(encode(q))
            assert polygon_iou(back, q) >= 1 - 1e-9
            np.testing.assert_allclose(back.as_array(), q.as_array(), atol=1e-9)


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area_oracle([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1.0

    def test_diamond(self):
        assert polygon_area_oracle([(0, 1), (1, 0), (2, 1), (1, 2)]) == 2.0

    def test_triangle(self):
        assert polygon_area_oracle([(0, 0), (1, 0), (0, 1)]) == 0.5

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            polygon_area_oracle([(0, 0), (1, 1)])


class TestConvexIntersect:
    def test_identical(self):
        q = rotated_rect(3, 4, 2, 2, 30)
        pts = convex_intersect_oracle(q, q)
        assert abs(polygon_area_oracle(pts) - polygon_area_oracle(q.vertices)) < 1e-12

    def test_disjoint(self):
        a = axis_box(0, 0, 1, 1)
        assert convex_intersect_oracle(a, a.translated(5, 5)) == []

    def test_half_shift(self):
        a = axis_box(0, 0, 1, 1)
        pts = convex_intersect_oracle(a, a.translated(0.5, 0))
        assert abs(polygon_area_oracle(pts) - 0.5) < 1e-12


class TestPolygonIou:
    def test_identical(self):
        q = rotated_rect(10, 10, 6, 3, -20)
        assert polygon_iou(q, q) == 1.0

    def test_half_shift(self):
        a = axis_box(0, 0, 1, 1)
        assert abs(polygon_iou(a, a.translated(0.5, 0)) - 1 / 3) < 1e-12

    def test_disjoint(self):
        a = axis_box(0, 0, 1, 1)
        assert polygon_iou(a, a.translated(10, 0)) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = random_rect(rng, 100, 2, 60)
            b = random_rect(rng, 100, 2, 60)
            iou = polygon_iou(a, b)
            assert 0.0 <= iou <= 1.0
            assert abs(iou - polygon_iou(b, a)) < 1e-12

    def test_one_only_for_full_overlap(self):
        a = axis_box(0, 0, 2, 2)
        assert polygon_iou(a, a.translated(1e-3, 0)) < 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            a = random_rect(rng, 50, 2, 40)
            b = a.translated(rng.uniform(-10, 10), rng.uniform(-10, 10))
            base = polygon_iou(a, b)
            dx, dy = rng.uniform(-1e4, 1e4, 2)
            moved = polygon_iou(a.translated(dx, dy), b.translated(dx, dy))
            assert abs(base - moved) <= 1e-9


class TestRasterOracle:
    @pytest.mark.parametrize("grid", [0, -5])
    def test_grid_below_one_raises(self, grid):
        q = axis_box(0, 0, 2, 2)
        with pytest.raises(ValueError, match="grid must be >= 1"):
            raster_iou_oracle(q, q, grid)

    def test_identical(self):
        q = rotated_rect(5, 5, 4, 2, 33)
        assert raster_iou_oracle(q, q, 500) == 1.0

    def test_disjoint(self):
        a = axis_box(0, 0, 1, 1)
        assert raster_iou_oracle(a, a.translated(7, 7), 200) == 0.0

    def test_agrees_with_exact_iou(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = random_rect(rng)
            b = random_rect(rng)
            if rng.random() < 0.5:
                b = a.translated(rng.uniform(-100, 100), rng.uniform(-100, 100))
            assert abs(polygon_iou(a, b) - raster_iou_oracle(a, b, 1000)) <= 0.01


class TestQuadFromOffsets:
    def test_plain_decode(self):
        q = quad_from_offsets(Point2(1, 1), (1, 1, 1, 1), (1, 1))
        assert q.as_flat() == (0, 1, 1, 0, 2, 1, 1, 2)

    def test_clamps_offsets(self):
        q = quad_from_offsets(Point2(2, 1), (2, 1, 2, 1), (100, 100))
        b = q.bounds()
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (0, 0, 4, 2)


def decode_rows(points, ltrb, wh):
    return quads_from_offsets(
        np.asarray(points, dtype=float), np.asarray(ltrb, dtype=float), np.asarray(wh, dtype=float)
    )


def oracle_rows(points, ltrb, wh):
    """Per-row scalar decode, or the ValueError the first bad row raises."""
    try:
        quads = [quad_from_offsets_oracle(Point2(*p), l, o) for p, l, o in zip(points, ltrb, wh)]
    except ValueError:
        return None
    return quad_arrays(quads)


offset_values = st.one_of(
    st.floats(-5, 40),
    st.sampled_from([0.0, -0.0, 1e-10, math.inf, -math.inf, math.nan]),
)


class TestQuadsFromOffsets:
    def test_plain_and_axis_aligned_rows(self):
        got = decode_rows([(1, 1), (2, 1)], [(1, 1, 1, 1), (2, 1, 2, 1)], [(1, 1), (0, 0)])
        assert got.shape == (2, 4, 2)
        assert got.reshape(2, 8).tolist() == [[0, 1, 1, 0, 2, 1, 1, 2], [0, 0, 4, 0, 4, 2, 0, 2]]

    def test_clamps_offsets(self):
        # above the extents, below zero, and infinite on either side
        wh = [(100, 100), (-3, 1), (math.inf, math.inf), (-math.inf, -math.inf)]
        got = decode_rows([(2, 1)] * 4, [(2, 1, 2, 1)] * 4, wh)
        assert got[1].reshape(8).tolist() == [0, 1, 4, 0, 4, 1, 0, 2]
        for k in (0, 2, 3):
            assert got[k].reshape(8).tolist() == [0, 0, 4, 0, 4, 2, 0, 2]

    @pytest.mark.parametrize("wh", [(0, 0), (1e-10, 1e-10), (4, 2), (4 - 1e-10, 2 - 1e-10)])
    def test_flat_corners_decode_axis_aligned(self, wh):
        got = decode_rows([(2, 1)], [(2, 1, 2, 1)], [wh])
        assert got[0].reshape(8).tolist() == [0, 0, 4, 0, 4, 2, 0, 2]

    def test_near_corner_keeps_rotation(self):
        got = decode_rows([(2, 1)], [(2, 1, 2, 1)], [(1e-6, 1e-6)])
        assert got[0, 1].tolist() == [4 - 1e-6, 0]

    @pytest.mark.parametrize(
        "ltrb, wh",
        [
            ((-3, 1, 1, 1), (0, 0)),  # inverted horizontally
            ((1, 1, 1, -3), (0, 0)),  # inverted vertically
            ((math.inf, 1, 1, 1), (0, 0)),
            ((1, math.nan, 1, 1), (0, 0)),
            ((1, 1, 1, 1), (math.nan, 0)),
            ((1, 1, 1, 1), (0, math.nan)),
        ],
    )
    def test_bad_row_raises(self, ltrb, wh):
        with pytest.raises(ValueError):
            decode_rows([(5, 5), (9, 9)], [(1, 1, 1, 1), ltrb], [(0, 0), wh])
        with pytest.raises(ValueError):
            quad_from_offsets(Point2(9, 9), ltrb, wh)

    def test_negative_zero_offset_keeps_scalar_bits(self):
        # Python's max(-0.0, 0.0) is -0.0 (np.clip would give 0.0), which
        # shows in v4.x = xmin + w when xmin is -0.0
        args = ([(-0.0, 1.0)], [(0.0, 1.0, 2.0, 1.0)], [(-0.0, 1.0)])
        got = decode_rows(*args)
        assert math.copysign(1.0, got[0, 3, 0]) == -1.0
        assert got.tobytes() == oracle_rows(*args).tobytes()

    def test_overflowing_width_decodes_quietly(self):
        # the width 2e308 overflows to inf, as in the scalar decode
        args = ([(4, 4)], [(1e308, 1, 1e308, 1)], [(0, 1)])
        got = decode_rows(*args)
        assert got[0].tolist() == [[-1e308, 4], [1e308, 3], [1e308, 4], [-1e308, 5]]
        assert got.tobytes() == oracle_rows(*args).tobytes()
        assert quad_from_offsets(Point2(4, 4), *(col[0] for col in args[1:])) == quad_list(got)[0]

    def test_empty(self):
        assert decode_rows(np.zeros((0, 2)), np.zeros((0, 4)), np.zeros((0, 2))).shape == (0, 4, 2)

    def test_quad_list_inverts_quad_arrays(self):
        quads = [axis_box(0, 0, 4, 2), rotated_rect(5, 5, 4, 2, 30)]
        assert quad_list(quad_arrays(quads)) == quads
        assert quad_list(np.zeros((0, 4, 2))) == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 64), st.integers(0, 64)),
                st.tuples(*[offset_values] * 4),
                st.tuples(offset_values, offset_values),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_scalar_decode_bit_for_bit(self, rows):
        points, ltrb, wh = (list(col) for col in zip(*rows))
        want = oracle_rows(points, ltrb, wh)
        if want is None:
            with pytest.raises(ValueError):
                decode_rows(points, ltrb, wh)
            return
        got = decode_rows(points, ltrb, wh)
        assert got.tobytes() == want.tobytes()
        for p, l, o, q in zip(points, ltrb, wh, quad_list(got)):
            assert quad_from_offsets(Point2(*p), l, o) == q
