"""The batched polygon-IoU kernel against polygon_iou_oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obbkit import geometry
from obbkit.errors import DegenerateQuad
from obbkit.geometry import (
    AREA_TOLERANCE,
    Point2,
    Quad,
    hbb_overlap,
    polygon_iou,
    polygon_iou_pairs,
    quad_arrays,
)

from helpers import (
    axis_box,
    canonicalize_oracle,
    polygon_iou_block,
    polygon_iou_oracle,
    random_rect,
    rotated_rect,
)

def _rect(cx, cy, w, h, angle):
    try:
        return rotated_rect(cx, cy, w, h, angle)
    except DegenerateQuad:
        assume(False)


rects = st.builds(
    _rect,
    st.floats(0, 200),
    st.floats(0, 200),
    st.floats(0.5, 120),
    st.floats(0.5, 120),
    st.floats(-90, 90),
)


def _scaled(q: Quad, f: float) -> Quad:
    v = q.as_array()
    c = v.mean(axis=0)
    return canonicalize_oracle(c + f * (v - c))


def _shifted_by_edge(q: Quad, k: int) -> Quad:
    """q moved by one edge vector (k < 4) or a diagonal (k >= 4)."""
    v = q.as_array()
    d = v[(k + 1) % 4] - v[k % 4] if k < 4 else v[(k + 2) % 4] - v[k % 4]
    return q.translated(float(d[0]), float(d[1]))


def _scaled_up(q: Quad, scale: float) -> Quad:
    try:
        return canonicalize_oracle((q.as_array() * scale).tolist())
    except DegenerateQuad:
        assume(False)


def _outcome(fn, a, b):
    """The IoU's bits (nan included), or the type and message of the error raised."""
    try:
        return float(fn(a, b)).hex()
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def pairs(draw):
    kind = draw(st.sampled_from(["random", "identical", "contained", "touching", "axis", "thin"]))
    if kind == "random":
        return draw(rects), draw(rects)
    if kind == "identical":
        q = draw(rects)
        return q, q
    if kind == "contained":
        q = draw(rects)
        inner = _scaled(q, draw(st.floats(0.05, 1.0)))
        return (q, inner) if draw(st.booleans()) else (inner, q)
    if kind == "touching":
        q = draw(rects)
        return q, _shifted_by_edge(q, draw(st.integers(0, 7)))
    if kind == "axis":
        x0, y0, x2, y2 = (draw(st.integers(0, 40)) for _ in range(4))
        w0, h0, w2, h2 = (draw(st.integers(1, 30)) for _ in range(4))
        return axis_box(x0, y0, x0 + w0, y0 + h0), axis_box(x2, y2, x2 + w2, y2 + h2)
    # thin: areas just above AREA_TOLERANCE, where the union guard decides
    cx, cy = draw(st.floats(0, 10)), draw(st.floats(0, 10))
    angle = draw(st.floats(-90, 90))
    length = draw(st.floats(1e-3, 10))
    width = AREA_TOLERANCE * draw(st.floats(1.0, 4.0)) / length
    a = _rect(cx, cy, length, width, angle)
    b = _rect(
        cx + draw(st.floats(-1e-3, 1e-3)),
        cy,
        length,
        width * draw(st.floats(1.0, 2.0)),
        angle + draw(st.floats(-1.0, 1.0)),
    )
    return a, b


def _check_block(a_list, b_list):
    block = polygon_iou_block(quad_arrays(a_list), quad_arrays(b_list))
    overlap = hbb_overlap(quad_arrays(a_list), quad_arrays(b_list))
    assert block.shape == (len(a_list), len(b_list))
    for i, a in enumerate(a_list):
        for j, b in enumerate(b_list):
            scalar = polygon_iou_oracle(a, b)
            if overlap[i, j]:
                assert block[i, j] == scalar, (a, b)
            else:
                assert block[i, j] == 0.0 and scalar == 0.0, (a, b, scalar)


class TestPairs:
    def test_hbb_disjoint_pairs_are_zero_without_clipping(self, monkeypatch):
        def no_clip(*args):
            raise AssertionError("clipped an HBB-disjoint pair")

        monkeypatch.setattr(geometry, "_clip_halfplanes", no_clip)
        a = quad_arrays([axis_box(0, 0, 1, 1), rotated_rect(0, 0, 4, 2, 30)])
        b = quad_arrays([axis_box(1, 0, 2, 1), rotated_rect(50, 0, 4, 2, 30)])
        assert polygon_iou_pairs(a, b).tolist() == [0.0, 0.0]


    @settings(max_examples=400, deadline=None)
    @given(st.lists(pairs(), min_size=1, max_size=6))
    def test_bit_identical_to_scalar_in_both_orders(self, drawn):
        a = quad_arrays([p[0] for p in drawn])
        b = quad_arrays([p[1] for p in drawn])
        forward = polygon_iou_pairs(a, b)
        backward = polygon_iou_pairs(b, a)
        for k, (qa, qb) in enumerate(drawn):
            assert forward[k] == polygon_iou_oracle(qa, qb), (qa, qb)
            assert backward[k] == polygon_iou_oracle(qb, qa), (qa, qb)

    def test_overflowing_union_is_nan_as_oracle(self):
        # the shoelace sums of a square near 1e200 overflow, so its union with itself is nan
        q = rotated_rect(1e200, 1e200, 1e200, 1e200, 30)
        arr = quad_arrays([q])
        assert math.isnan(polygon_iou_oracle(q, q))
        assert math.isnan(polygon_iou_pairs(arr, arr)[0])
        assert math.isnan(polygon_iou(q, q))

    @settings(max_examples=100, deadline=None)
    @given(pairs(), st.sampled_from([1e150, 1e154, 1e200, 1e300]))
    def test_huge_pairs_as_oracle(self, pair, scale):
        # the view and the kernel give the oracle's value, nan included, or raise its error
        a, b = (_scaled_up(q, scale) for q in pair)
        want = _outcome(polygon_iou_oracle, a, b)
        assert _outcome(polygon_iou, a, b) == want
        assert _outcome(lambda p, q: polygon_iou_pairs(quad_arrays([p]), quad_arrays([q]))[0], a, b) == want

    def test_overflowing_intersection_raises_as_oracle(self):
        # the clip's crossing points overflow to nan
        a, b = axis_box(0, 0, 1e200, 1e200), axis_box(1e199, 0, 1e200, 1e200)
        with pytest.raises(ValueError) as want:
            polygon_iou_oracle(a, b)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            polygon_iou_pairs(quad_arrays([a]), quad_arrays([b]))
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            polygon_iou(a, b)

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((3, 4, 2), (2, 4, 2)), ((2, 4, 2), (1, 4, 2)), ((4, 2), (4, 2)), ((0, 4, 2), (1, 4, 2))],
    )
    def test_rejects_mismatched_shapes(self, shape_a, shape_b):
        with pytest.raises(ValueError, match=re.escape(f"shapes {shape_a} and {shape_b}")):
            polygon_iou_pairs(np.zeros(shape_a), np.zeros(shape_b))

    def test_empty(self):
        empty = quad_arrays([])
        assert empty.shape == (0, 4, 2)
        assert polygon_iou_pairs(empty, empty).shape == (0,)
        assert polygon_iou_block(empty, quad_arrays([axis_box(0, 0, 1, 1)])).shape == (0, 1)

    def test_union_below_tolerance_is_zero(self):
        # built directly: canonicalize rejects quads this small
        tiny = Quad(Point2(0, 0), Point2(1e-4, 0), Point2(1e-4, 1e-4), Point2(0, 1e-4))
        assert polygon_iou_oracle(tiny, tiny) == 0.0
        arr = quad_arrays([tiny])
        assert polygon_iou_pairs(arr, arr)[0] == 0.0
        assert polygon_iou_block(arr, arr)[0, 0] == 0.0

    @pytest.mark.parametrize("chunk", [7, geometry.PAIRS_PER_CLIP])
    def test_random_rectangles(self, chunk, monkeypatch):
        # a chunk of 7 pairs clips the 300 pairs in 43 separate passes
        monkeypatch.setattr(geometry, "PAIRS_PER_CLIP", chunk)
        rng = np.random.default_rng(21)
        a = [random_rect(rng, 300, 2, 200) for _ in range(300)]
        b = [random_rect(rng, 300, 2, 200) for _ in range(300)]
        got = polygon_iou_pairs(quad_arrays(a), quad_arrays(b))
        want = np.array([polygon_iou_oracle(p, q) for p, q in zip(a, b)])
        assert (got > 0).sum() > 50
        assert np.array_equal(got, want)


class TestBlock:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(pairs(), min_size=1, max_size=4))
    def test_matches_scalar(self, drawn):
        quads = [q for p in drawn for q in p]
        _check_block(quads[::2], quads)

    def test_hbb_disjoint_pairs_are_exactly_zero(self):
        rng = np.random.default_rng(5)
        left = [random_rect(rng, 40, 1, 20) for _ in range(30)]
        right = [q.translated(200.0, float(rng.uniform(-50, 50))) for q in left]
        block = polygon_iou_block(quad_arrays(left), quad_arrays(right))
        assert not hbb_overlap(quad_arrays(left), quad_arrays(right)).any()
        assert np.all(block == 0.0) and not np.signbit(block).any()

    def test_sliver_across_a_gap_reads_zero(self):
        # the clip's absolute EDGE_EPS lets points 1e-10 outside an edge count
        # as inside; the HBB test every path starts with reads the pair as 0
        a, b = axis_box(0, 0, 1, 1), axis_box(1 + 1e-10, 0, 2, 1)
        assert polygon_iou_oracle(a, b) == 0.0
        assert polygon_iou_pairs(quad_arrays([a]), quad_arrays([b]))[0] == 0.0
        assert polygon_iou_block(quad_arrays([a]), quad_arrays([b]))[0, 0] == 0.0

    def test_diagonal_sliver_is_the_same_on_every_path(self):
        # turned 45 degrees, the same gap lies inside overlapping HBBs: the
        # clip's sliver remains, and all three paths report it alike
        a = rotated_rect(0, 0, 1, 1, 45)
        shift = (1 + 1e-10) / math.sqrt(2)
        b = rotated_rect(shift, shift, 1, 1, 45)
        scalar = polygon_iou_oracle(a, b)
        assert scalar == pytest.approx(5e-11, rel=1e-3)
        assert polygon_iou_pairs(quad_arrays([a]), quad_arrays([b]))[0] == scalar
        assert polygon_iou_block(quad_arrays([a]), quad_arrays([b]))[0, 0] == scalar

    def test_touching_hbbs_are_disjoint(self):
        a = axis_box(0, 0, 10, 10)
        assert not hbb_overlap(quad_arrays([a]), quad_arrays([axis_box(10, 0, 20, 10)]))[0, 0]
        assert not hbb_overlap(quad_arrays([a]), quad_arrays([axis_box(10, 10, 20, 20)]))[0, 0]
        assert hbb_overlap(quad_arrays([a]), quad_arrays([axis_box(9.5, 9.5, 20, 20)]))[0, 0]

    def test_fixture_values(self):
        a = axis_box(0, 0, 10, 10)
        quads = [a, axis_box(5, 0, 15, 10), axis_box(0, 0, 5, 5), rotated_rect(5, 5, 10, 10, 45)]
        block = polygon_iou_block(quad_arrays([a]), quad_arrays(quads))[0]
        assert block[0] == 1.0
        assert block[1] == pytest.approx(1 / 3, abs=1e-15)
        assert block[2] == pytest.approx(0.25, abs=1e-15)
        # square vs the same square turned 45 degrees: overlap 200 (sqrt 2 - 1)
        inter = 200 * (math.sqrt(2) - 1)
        assert block[3] == pytest.approx(inter / (200 - inter), abs=1e-12)

    def test_no_warning_on_parallel_edges(self):
        # collinear and parallel edges give denom == 0 lanes; the suite turns
        # any RuntimeWarning into an error
        quads = [axis_box(0, 0, 10, 10), axis_box(0, 0, 10, 10), axis_box(0, 5, 10, 15)]
        _check_block(quads, quads)
