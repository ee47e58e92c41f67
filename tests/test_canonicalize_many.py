"""canonicalize_many, and its one-row view canonicalize, against canonicalize_oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit.errors import DegenerateQuad
from obbkit.geometry import (
    AREA_TOLERANCE,
    NON_FINITE,
    NOT_CONVEX,
    SMALL_AREA,
    canonicalize,
    canonicalize_many,
)

from helpers import canonicalize_oracle

coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
permutation = st.permutations(range(4))


def _permuted(points, perm):
    return [points[i] for i in perm]


@st.composite
def rotated_rects(draw, size=st.floats(0.5, 500.0)):
    cx, cy = draw(coord), draw(coord)
    w, h = draw(size), draw(size)
    th = math.radians(draw(st.floats(-180.0, 180.0)))
    c, s = math.cos(th), math.sin(th)
    corners = [(-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)]
    points = [(cx + c * dx - s * dy, cy + s * dx + c * dy) for dx, dy in corners]
    return _permuted(points, draw(permutation))


@st.composite
def axis_boxes(draw):
    """Two vertices on the left edge of the horizontal box: the tie break decides."""
    x0, y0 = draw(coord), draw(coord)
    w, h = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    points = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
    return _permuted(points, draw(permutation))


@st.composite
def tiny_rects(draw):
    """Areas from a quarter to four times AREA_TOLERANCE, either side of the guard."""
    area = AREA_TOLERANCE * draw(st.floats(0.25, 4.0))
    if draw(st.booleans()):
        return draw(rotated_rects(size=st.just(math.sqrt(area))))
    w = math.sqrt(area * draw(st.floats(0.1, 10.0)))
    return _permuted([(0.0, 0.0), (w, 0.0), (w, area / w), (0.0, area / w)], draw(permutation))


@st.composite
def concave_quads(draw):
    """A triangle plus a point inside it."""
    a, b, c = ((draw(coord), draw(coord)) for _ in range(3))
    u, v = draw(st.floats(0.05, 0.9)), draw(st.floats(0.05, 0.9))
    u, v = (u, v) if u + v < 0.95 else (u / 2, v / 2)
    d = (a[0] + u * (b[0] - a[0]) + v * (c[0] - a[0]), a[1] + u * (b[1] - a[1]) + v * (c[1] - a[1]))
    return _permuted([a, b, c, d], draw(permutation))


@st.composite
def collinear_quads(draw):
    """Four points on one line, or three on a line and one off it."""
    px, py, dx, dy = draw(coord), draw(coord), draw(st.floats(-5, 5)), draw(st.floats(-5, 5))
    ts = draw(st.lists(st.floats(-100, 100), min_size=4, max_size=4))
    points = [(px + t * dx, py + t * dy) for t in ts]
    if draw(st.booleans()):
        points[3] = (draw(coord), draw(coord))
    return points


@st.composite
def huge_rects(draw):
    """Rotated rectangles scaled to coordinates near 1e154-1e304, where the sums overflow."""
    scale = draw(st.sampled_from([1e150, 1e154, 1e200, 1e300]))
    return [(x * scale, y * scale) for x, y in draw(rotated_rects())]


small_grid = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, 3.0, 0.5])
grid_quads = st.lists(st.tuples(small_grid, small_grid), min_size=4, max_size=4)
free_quads = st.lists(st.tuples(coord, coord), min_size=4, max_size=4)

any_quad = st.one_of(
    rotated_rects(), axis_boxes(), tiny_rects(), concave_quads(), collinear_quads(),
    huge_rects(), grid_quads, free_quads,
)


def _scalar(points):
    try:
        return np.array(canonicalize_oracle(points).as_flat()).reshape(4, 2)
    except DegenerateQuad:
        return None


def _assert_rowwise_equal(quads):
    raw = np.array(quads, dtype=float).reshape(-1, 4, 2)
    canon, fault = canonicalize_many(raw)
    assert canon.shape == raw.shape and fault.shape == (len(raw),)
    for k, points in enumerate(quads):
        expected = _scalar(points)
        assert bool(fault[k]) == (expected is None), points
        if expected is not None:
            # bit for bit, signed zeros included
            assert canon[k].tobytes() == expected.tobytes(), points
        assert sorted(map(tuple, canon[k].tolist())) == sorted(map(tuple, raw[k].tolist()))


@settings(max_examples=300, deadline=None)
@given(st.lists(any_quad, max_size=12))
def test_matches_scalar_row_by_row(quads):
    _assert_rowwise_equal(quads)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(grid_quads, axis_boxes()), min_size=1, max_size=20))
def test_left_edge_ties_match_scalar(quads):
    _assert_rowwise_equal(quads)


def test_empty_input():
    canon, fault = canonicalize_many(np.zeros((0, 4, 2)))
    assert canon.shape == (0, 4, 2) and fault.shape == (0,)


PINNED_ROWS = [
    [(4, 0), (4, 2), (0, 2), (0, 0)],  # axis-aligned: the top-left vertex starts
    [(1, 2), (2, 1), (1, 0), (0, 1)],
    [(0, 0), (1, 1), (2, 2), (3, 3)],  # collinear
    [(0, 0), (1, 0), (1, 1e-8), (0, 1e-8)],  # area below tolerance
    [(0, 0), (4, 0), (1, 1), (0, 4)],  # concave
]


def test_pinned_rows():
    canon, fault = canonicalize_many(np.array(PINNED_ROWS, dtype=float))
    assert fault.tolist() == [0, 0, SMALL_AREA, SMALL_AREA, NOT_CONVEX]
    assert canon[0].ravel().tolist() == [0, 0, 4, 0, 4, 2, 0, 2]
    assert canon[1].ravel().tolist() == [0, 1, 1, 0, 2, 1, 1, 2]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_rows_are_bad(value):
    raw = np.array([[(0, 0), (1, 0), (1, 1), (0, 1)]] * 2, dtype=float)
    raw[1, 2, 1] = value
    canon, fault = canonicalize_many(raw)
    assert fault.tolist() == [0, NON_FINITE]
    with pytest.raises(ValueError, match="non-finite vertex"):
        canonicalize(raw[1])


def test_huge_coordinates_match_scalar_without_warnings():
    # the centroid sum overflows to inf; the scalar code still returns a quad
    quads = [[(1.7e308, 0.0), (1.7e308, 1.0), (1.6e308, 1.0), (1.6e308, 0.0)],
             [(-1e308, -1e308), (1e308, -1e308), (1e308, 1e308), (-1e308, 1e308)]]
    _assert_rowwise_equal(quads)


@pytest.mark.parametrize("shape", [(4, 2), (2, 3, 2), (2, 4, 3)])
def test_rejects_wrong_shape(shape):
    with pytest.raises(ValueError, match="expected"):
        canonicalize_many(np.zeros(shape))


def _outcome(fn, points):
    """The quad's coordinate bits, or the type and message of the error raised."""
    try:
        return [x.hex() for x in fn(points).as_flat()]
    except (ValueError, DegenerateQuad) as exc:
        return type(exc), str(exc)


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
non_finite_quads = st.lists(
    st.tuples(st.one_of(coord, non_finite), st.one_of(coord, non_finite)), min_size=4, max_size=4
)
wrong_counts = st.lists(st.tuples(coord, coord), max_size=7).filter(lambda p: len(p) != 4)


@settings(max_examples=200, deadline=None)
@given(st.one_of(any_quad, non_finite_quads, wrong_counts, st.sampled_from(PINNED_ROWS)))
def test_view_raises_as_oracle(points):
    assert _outcome(canonicalize, points) == _outcome(canonicalize_oracle, points)
