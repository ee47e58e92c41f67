"""The channel-major positive-term kernel of the loss stack against the
row-by-row oracle, bit for bit: ties in every min, errors of exactly
delta, delta 0, unions at or below the tiny bound and zero-width inner
boxes are all drawn on purpose."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit.losses import LossWeights, _positive_terms, _truth

from helpers import positive_terms_oracle

# few distinct values, so mins tie, inner boxes collapse (l == w) and
# prediction - target hits delta exactly
OFFSETS = st.sampled_from([0.0, 1e-7, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.7, 3.0, 7.3, 11.9])
CENTERNESS = st.sampled_from([1e-9, 0.1, 0.5, 0.75, 1.0 - 1e-9])
TARGET_CENTERNESS = st.sampled_from([0.0, 0.3, 0.5, 1.0])


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def positives(draw):
    p = draw(st.integers(1, 12))
    pred = np.array(draw(st.lists(st.lists(OFFSETS, min_size=6, max_size=6),
                                  min_size=p, max_size=p)))
    target = np.array(draw(st.lists(st.lists(OFFSETS, min_size=6, max_size=6),
                                    min_size=p, max_size=p)))
    cent = np.array(draw(st.lists(CENTERNESS, min_size=p, max_size=p)))
    t_cent = np.array(draw(st.lists(TARGET_CENTERNESS, min_size=p, max_size=p)))
    weights = LossWeights(
        reg_weight=draw(st.sampled_from([0.0, 0.7, 1.0, 2.5])),
        ori_weight=draw(st.sampled_from([0.0, 1.0, 1.3])),
        reg_l1_weight=draw(st.sampled_from([0.0, 0.2, 1.0])),
        ori_l1_weight=draw(st.sampled_from([0.2, 0.45])),
        smooth_l1_delta=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    )
    return cent, pred, t_cent, target, weights, draw(st.sampled_from([1, 3, 7]))


@settings(max_examples=400, deadline=None)
@given(positives())
def test_kernel_matches_row_by_row_oracle(case):
    cent, pred, t_cent, target, weights, norm = case
    ltrb, wh, t_ltrb, t_wh = pred[:, :4], pred[:, 4:], target[:, :4], target[:, 4:]
    reg_sum, ori_sum, grad = _positive_terms(
        cent, np.ascontiguousarray(pred.T), _truth(t_cent, t_ltrb, t_wh), weights, norm
    )
    want = positive_terms_oracle(cent, ltrb, wh, (t_cent, t_ltrb, t_wh), weights, norm)
    assert hexes([reg_sum, ori_sum]) == hexes(want[:2])
    assert hexes(grad[0]) == hexes(want[2])
    assert hexes(grad[1:5].T) == hexes(want[3])
    assert hexes(grad[5:].T) == hexes(want[4])


def test_drawn_values_reach_the_edge_cases():
    # delta 1: 1.5 - 0.5 is an error of exactly delta; 1.0 - 1.0 ties a min and
    # collapses the inner box; all-zero offsets leave the union at 0
    weights = LossWeights()
    pred = np.array([[1.5, 1.0, 1.0, 1.0, 1.0, 1.0], [0.0] * 6])
    target = np.array([[0.5, 1.0, 2.0, 3.0, 1.0, 0.5], [0.0] * 6])
    cent, t_cent = np.array([0.5, 0.25]), np.array([1.0, 0.0])
    reg_sum, ori_sum, grad = _positive_terms(
        cent, np.ascontiguousarray(pred.T), _truth(t_cent, target[:, :4], target[:, 4:]),
        weights, 2,
    )
    want = positive_terms_oracle(cent, pred[:, :4], pred[:, 4:],
                                 (t_cent, target[:, :4], target[:, 4:]), weights, 2)
    assert hexes([reg_sum, ori_sum]) == hexes(want[:2])
    assert hexes(np.concatenate([grad[0], grad[1:5].T.ravel(), grad[5:].T.ravel()])) == hexes(
        np.concatenate([want[2], want[3].ravel(), want[4].ravel()]))
