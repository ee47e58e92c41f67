import dataclasses
import math

import numpy as np
import pytest

from obbkit.errors import Diverged, NonFiniteScore, ShapeMismatch
from obbkit.geometry import Point2, polygon_iou, quad_from_offsets, quad_list
from obbkit.losses import (
    LossWeights,
    PredictionBatch,
    bce,
    fit_demo,
    focal_loss,
    grad_check,
    inner_box,
    iou_hbb_loss,
    iou_obb_loss,
    smooth_l1,
    total_loss,
)
from obbkit.targets import TargetMaps

from helpers import target_maps

DEFAULT_WEIGHTS = LossWeights()  # alpha 0.3, beta 4.0, unit branch weights, 0.2 L1 scales


def rows(maps, index):
    """The locations maps[index] (a slice or index array) as a TargetMaps."""
    return TargetMaps(*(getattr(maps, f.name)[index] for f in dataclasses.fields(maps)))


class TestFocalLoss:
    def test_positive_branch_fixture(self):
        value, _ = focal_loss(np.array([0.5]), np.array([1.0]), 0.3, 4.0, 1.0)
        assert abs(value - 0.3 * 0.0625 * math.log(2)) < 1e-9

    def test_branch_symmetry_at_half(self):
        pos, _ = focal_loss(np.array([0.5]), np.array([1.0]), 0.3, 4.0, 1.0)
        neg, _ = focal_loss(np.array([0.5]), np.array([0.0]), 0.3, 4.0, 1.0)
        assert abs(pos - neg) < 1e-15

    def test_perfect_positive_vanishes(self):
        value, _ = focal_loss(np.array([1 - 1e-9]), np.array([1.0]), 0.3, 4.0, 1.0)
        assert value < 1e-30

    def test_boundary_score_rejected(self):
        with pytest.raises(NonFiniteScore):
            focal_loss(np.array([1.0]), np.array([1.0]), 0.3, 4.0, 1.0)
        with pytest.raises(NonFiniteScore):
            focal_loss(np.array([0.0]), np.array([0.0]), 0.3, 4.0, 1.0)

    def test_nan_score_rejected(self):
        with pytest.raises(NonFiniteScore):
            focal_loss(np.array([0.5, math.nan]), np.array([1.0, 0.0]), 0.3, 4.0, 1.0)
        with pytest.raises(NonFiniteScore):
            focal_loss(np.array([[math.nan]]), np.array([[0.0]]), 0.3, 4.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            focal_loss(np.zeros((2, 2)) + 0.5, np.zeros((2, 3)), 0.3, 4.0, 1.0)

    @pytest.mark.parametrize("target", [0.7, 2.0, math.nan, -1.0, 5e-324, math.inf])
    def test_non_binary_target_rejected(self, target):
        # such a target used to be scored as background, silently
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            focal_loss(np.array([0.5, 0.5]), np.array([1.0, target]), 0.3, 4.0, 1.0)
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            focal_loss(np.array([[0.2], [0.5]]), np.array([[target], [0.0]]), 0.3, 4.0, 1.0)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_score_map(self, shape):
        value, grad = focal_loss(np.empty(shape), np.empty(shape), 0.3, 4.0, 2.0)
        assert value == 0.0 and grad.shape == shape

    def test_signed_zero_target_is_background(self):
        neg, grad = focal_loss(np.array([0.5]), np.array([-0.0]), 0.3, 4.0, 1.0)
        ref, ref_grad = focal_loss(np.array([0.5]), np.array([0.0]), 0.3, 4.0, 1.0)
        assert neg == ref and np.array_equal(grad, ref_grad)

    def test_score_checked_before_target(self):
        with pytest.raises(NonFiniteScore):
            focal_loss(np.array([1.5]), np.array([0.7]), 0.3, 4.0, 1.0)

    def test_tiny_positive_score_overflows_the_gradient_quietly(self):
        value, grad = focal_loss(np.array([5e-324]), np.array([1.0]), 0.3, 4.0, 1.0)
        assert value == -0.3 * math.log(5e-324) and grad.tolist() == [-math.inf]

    def test_beta_zero_alpha_one_is_mean_bce(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(0.05, 0.95, 25)
        labels = (rng.random(25) < 0.4).astype(float)
        focal_val, _ = focal_loss(scores, labels, 1.0, 0.0, scores.size)
        bce_mean = np.mean([bce(float(s), float(t))[0] for s, t in zip(scores, labels)])
        assert abs(focal_val - bce_mean) < 1e-12


class TestBce:
    def test_half(self):
        value, _ = bce(0.5, 0.5)
        assert abs(value - math.log(2)) < 1e-15

    def test_near_perfect(self):
        value, _ = bce(1 - 1e-12, 1.0)
        assert value < 1e-11

    def test_point_nine(self):
        value, _ = bce(0.9, 1.0)
        assert abs(value + math.log(0.9)) < 1e-15

    def test_boundary_rejected(self):
        with pytest.raises(NonFiniteScore):
            bce(1.0, 1.0)
        with pytest.raises(NonFiniteScore):
            bce(math.nan, 0.5)
        with pytest.raises(ValueError):
            bce(0.5, 1.5)

    def test_tiny_pred_overflows_the_gradient_quietly(self):
        assert bce(5e-324, 1.0) == (-math.log(5e-324), -math.inf)

    def test_matches_scalar_formula(self):
        # bce runs on numpy's log, which may differ from math.log in the
        # last bit or two; the gradient uses no log and stays exact
        rng = np.random.default_rng(17)
        preds = rng.uniform(1e-6, 1 - 1e-6, 5000)
        targets = rng.uniform(0.0, 1.0, 5000)
        targets[::3] = np.round(targets[::3])
        for p, t in zip(preds.tolist(), targets.tolist()):
            value, grad = bce(p, t)
            assert type(value) is float and type(grad) is float
            expected = -(t * math.log(p) + (1.0 - t) * math.log(1.0 - p))
            assert value == pytest.approx(expected, rel=1e-15, abs=0.0)
            assert grad == (p - t) / (p * (1.0 - p))


class TestSmoothL1:
    def test_zero_error(self):
        value, grad = smooth_l1([1.0, 2.0], [1.0, 2.0])
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_quadratic_branch(self):
        value, _ = smooth_l1([0.5], [0.0], 1.0)
        assert abs(value - 0.125) < 1e-15

    def test_linear_branch(self):
        value, _ = smooth_l1([2.0], [0.0], 1.0)
        assert abs(value - 1.5) < 1e-15

    def test_huge_error_takes_the_linear_branch_quietly(self):
        # the discarded square of 1e200 overflows
        value, grad = smooth_l1([1e200, -1e155], [0.0, 0.0], 1.0)
        assert value == 1e200 and grad.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("error, delta", [
        (1e308, 0.2), (-1e308, 0.2), (1.0, 1e-310), (-1.0, 5e-324), (math.inf, 1.0),
    ])
    def test_error_over_delta_past_the_float_range_clips_quietly(self, error, delta):
        # error / delta overflows; the gradient is still sign(error)
        value, grad = smooth_l1([error], [0.0], delta)
        assert value == abs(error) - 0.5 * delta
        assert grad.tolist() == [math.copysign(1.0, error)]


class TestInnerBox:
    def test_zero_orientation_is_identity(self):
        assert np.array_equal(inner_box([1, 1, 1, 1], [0, 0]), np.array([1.0, 1, 1, 1]))

    def test_hand_value(self):
        assert np.array_equal(inner_box([3, 2, 3, 2], [1, 1]), np.array([2.0, 1, 2, 1]))

    def test_absolute_reflection(self):
        assert np.array_equal(inner_box([1, 1, 1, 1], [2, 2]), np.array([1.0, 1, 1, 1]))


class TestIouLosses:
    def test_hbb_equal_is_zero(self):
        assert iou_hbb_loss([1, 2, 3, 4], [1, 2, 3, 4])[0] == 0.0

    def test_hbb_nested(self):
        value, _ = iou_hbb_loss([2, 2, 2, 2], [1, 1, 1, 1])
        assert abs(value - 0.75) < 1e-15

    def test_hbb_huge_union_squares_quietly(self):
        # the union 2e200 squares to inf, so the gradient is 0
        value, grad = iou_hbb_loss([1e200, 1, 1, 1], [1, 1, 1, 1])
        assert value == 1.0 and grad.tolist() == [0.0] * 4

    @pytest.mark.parametrize("pred, target", [
        ([1e308, 1, 1, 1], [1, 1, 1, 1]),  # the predicted area overflows
        ([1e308, 1, 1e308, 1], [1, 1, 1, 1]),  # and the predicted width
        ([1, 1, 1, 1], [1e200, 1e200, 1e200, 1e200]),  # the target area overflows
        ([1e200] * 4, [1e200] * 4),  # and the overlap with it
    ])
    def test_hbb_infinite_union_scores_zero_quietly(self, pred, target):
        # IoU and gradient take their limit as the union grows: 0
        value, grad = iou_hbb_loss(pred, target)
        assert value == 1.0 and grad.tolist() == [0.0] * 4

    def test_obb_infinite_union_scores_zero_quietly(self):
        # the predicted inner box is 1e308 by 5
        value, grad = iou_obb_loss([1e308, 3, 1, 3, 0.5, 0.5], [1, 2, 1, 4, 3, 1])
        assert value == 1.0 and grad.tolist() == [0.0] * 6

    @pytest.mark.parametrize("pred, target", [
        ([math.nan, 1, 1, 1], [1, 1, 1, 1]), ([1, 1, 1, 1], [math.nan, 1, 1, 1]),
    ])
    def test_hbb_nan_union_keeps_a_zero_gradient(self, pred, target):
        value, grad = iou_hbb_loss(pred, target)
        assert value == 1.0 and grad.tolist() == [0.0] * 4

    def test_obb_equal_is_zero(self):
        assert iou_obb_loss([3, 2, 3, 2, 1, 1], [3, 2, 3, 2, 1, 1])[0] == 0.0

    def test_obb_nested_inner_boxes(self):
        # inner boxes 4x2 (area 8) and 6x4 (area 24), nested: IoU 8/24
        value, _ = iou_obb_loss([3, 2, 3, 2, 1, 1], [3, 2, 3, 2, 0, 0])
        assert abs(value - (1 - 8 / 24)) < 1e-15

    def test_obb_decomposes_through_inner_boxes(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pred = rng.uniform(0.2, 8.0, 6)
            target = rng.uniform(0.2, 8.0, 6)
            direct, _ = iou_obb_loss(pred, target)
            via_inner, _ = iou_hbb_loss(
                inner_box(pred[:4], pred[4:]), inner_box(target[:4], target[4:])
            )
            assert abs(direct - via_inner) < 1e-12

    def test_obb_degenerate_inner_box(self):
        # pred inner box collapses to a segment: loss pinned at 1
        value, grad = iou_obb_loss([1, 2, 1, 2, 1, 1], [3, 2, 3, 2, 0, 0])
        assert value == 1.0
        assert np.all(np.isfinite(grad))


def _sample_away_from_kinks(rng, target, scale=2.0, clearance=1e-3):
    while True:
        pred = target * rng.uniform(1 / scale, scale, target.shape)
        if np.all(np.abs(pred - target) > clearance):
            return pred


class TestGradChecks:
    def test_focal(self):
        rng = np.random.default_rng(101)
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        worst = 0.0
        for _ in range(30):
            point = rng.uniform(0.05, 0.95, 4)
            worst = max(
                worst, grad_check(lambda x: focal_loss(x, labels, 0.3, 4.0, 2.0), point)
            )
        assert worst <= 1e-4

    def test_bce(self):
        rng = np.random.default_rng(102)

        def fn(x):
            value, grad = bce(float(x[0]), 0.7)
            return value, np.array([grad])

        worst = max(grad_check(fn, rng.uniform(0.05, 0.95, 1)) for _ in range(30))
        assert worst <= 1e-4

    def test_smooth_l1_zero_gradient_at_minimum(self):
        err = grad_check(lambda x: smooth_l1(x, np.zeros(3)), np.zeros(3))
        assert err == 0.0

    def test_smooth_l1(self):
        rng = np.random.default_rng(103)
        target = np.array([0.5, -1.0, 2.0, 0.0])
        worst = 0.0
        for _ in range(30):
            pred = target + rng.uniform(-3, 3, 4)
            err = np.abs(pred - target)
            if np.any(np.abs(err - 1.0) < 1e-3) or np.any(err < 1e-3):
                continue
            worst = max(worst, grad_check(lambda x: smooth_l1(x, target), pred))
        assert worst <= 1e-4

    def test_iou_hbb(self):
        rng = np.random.default_rng(104)
        target = np.array([2.0, 3.0, 4.0, 1.5])
        worst = 0.0
        for _ in range(30):
            pred = _sample_away_from_kinks(rng, target)
            worst = max(worst, grad_check(lambda x: iou_hbb_loss(x, target), pred))
        assert worst <= 1e-4

    def test_iou_obb(self):
        rng = np.random.default_rng(105)
        target = np.array([3.0, 2.0, 3.0, 2.0, 1.0, 0.5])
        t_inner = np.abs(target[:4] - target[[4, 5, 4, 5]])
        worst = 0.0
        checked = 0
        while checked < 30:
            pred = target * rng.uniform(0.4, 2.0, 6)
            gap = np.abs(pred[:4] - pred[[4, 5, 4, 5]])
            if np.any(gap < 1e-2) or np.any(np.abs(gap - t_inner) < 1e-2):
                continue
            worst = max(worst, grad_check(lambda x: iou_obb_loss(x, target), pred))
            checked += 1
        assert worst <= 1e-4


def hand_total_fixture():
    """Two locations, two classes; every term small enough to hand-check."""
    targets = target_maps(
        [1, 0], ltrb=[(2.0, 1.0, 4.0, 3.0), (0, 0, 0, 0)], wh=[(1.0, 2.0), (0, 0)]
    )
    batch = PredictionBatch(
        class_scores=np.array([[0.7, 0.2], [0.3, 0.4]]),
        centerness=np.array([0.6, 0.5]),
        ltrb=np.array([[3.0, 2.0, 3.0, 2.0], [1.0, 1.0, 1.0, 1.0]]),
        wh=np.array([[0.5, 1.0], [0.0, 0.0]]),
    )
    return batch, targets


class TestTotalLoss:
    @pytest.mark.parametrize("field", ["class_scores", "centerness"])
    def test_nan_score_rejected(self, field):
        batch, targets = hand_total_fixture()
        values = getattr(batch, field).copy()
        values.flat[0] = math.nan
        with pytest.raises(NonFiniteScore):
            total_loss(dataclasses.replace(batch, **{field: values}), targets, DEFAULT_WEIGHTS)

    def test_matches_independent_hand_sum(self):
        batch, targets = hand_total_fixture()
        result = total_loss(batch, targets, DEFAULT_WEIGHTS)

        a, b_ = 0.3, 4.0
        cls_sum = -(
            a * (1 - 0.7) ** b_ * math.log(0.7)
            + a * 0.2**b_ * math.log(1 - 0.2)
            + a * 0.3**b_ * math.log(1 - 0.3)
            + a * 0.4**b_ * math.log(1 - 0.4)
        )
        cent_target = math.sqrt((2 / 4) * (1 / 3))
        bce_term = -(cent_target * math.log(0.6) + (1 - cent_target) * math.log(0.4))
        sl1_box = 4 * 0.5  # every coordinate off by exactly 1: linear branch
        iou_hbb_term = 1 - 15 / 33  # overlap (2+3)(1+2)=15 of two area-24 boxes
        reg_sum = bce_term + 0.2 * sl1_box + iou_hbb_term
        sl1_ori = 0.125 + 0.5  # errors 0.5 (quadratic) and 1.0 (linear)
        iou_obb_term = 1 - 7 / 11  # inner boxes 5x2 and 4x2, overlap (1+2.5)(1+1)=7
        ori_sum = 0.2 * sl1_ori + iou_obb_term

        assert abs(result.breakdown.cls_loss - cls_sum) < 1e-12
        assert abs(result.breakdown.reg_loss - reg_sum) < 1e-12
        assert abs(result.breakdown.ori_loss - ori_sum) < 1e-12
        assert result.breakdown.num_pos == 1
        assert abs(result.breakdown.total - (cls_sum + reg_sum + ori_sum)) < 1e-12

    def test_breakdown_combination_invariant(self):
        batch, targets = hand_total_fixture()
        weights = LossWeights(reg_weight=0.7, ori_weight=1.3)
        b = total_loss(batch, targets, weights).breakdown
        combined = (b.cls_loss + 0.7 * b.reg_loss + 1.3 * b.ori_loss) / b.normalizer
        assert abs(b.total - combined) < 1e-15

    def test_prediction_equal_to_target_leaves_cls_residual(self):
        cent = 1.0
        targets = target_maps([1], ltrb=[(3.0, 2.0, 3.0, 2.0)], wh=[(1.0, 1.0)], centerness=[cent])
        eps = 1e-12
        batch = PredictionBatch(
            class_scores=np.array([[1 - eps]]),
            centerness=np.array([1 - eps]),
            ltrb=np.array([[3.0, 2.0, 3.0, 2.0]]),
            wh=np.array([[1.0, 1.0]]),
        )
        result = total_loss(batch, targets, DEFAULT_WEIGHTS)
        assert result.breakdown.ori_loss == 0.0
        assert result.breakdown.reg_loss < 1e-9
        assert result.breakdown.total < 1e-9

    def test_zero_positives_clamps_normalizer(self):
        targets = target_maps([0, 0])
        batch = PredictionBatch(
            class_scores=np.array([[0.3], [0.2]]),
            centerness=np.array([0.5, 0.5]),
            ltrb=np.ones((2, 4)),
            wh=np.zeros((2, 2)),
        )
        result = total_loss(batch, targets, DEFAULT_WEIGHTS)
        assert result.breakdown.reg_loss == 0.0
        assert result.breakdown.ori_loss == 0.0
        assert result.breakdown.num_pos == 0
        assert result.breakdown.normalizer == 1
        assert abs(result.breakdown.total - result.breakdown.cls_loss) < 1e-15

    def test_location_permutation_invariance(self):
        batch, targets = hand_total_fixture()
        base = total_loss(batch, targets, DEFAULT_WEIGHTS).breakdown
        swapped = PredictionBatch(
            batch.class_scores[::-1].copy(),
            batch.centerness[::-1].copy(),
            batch.ltrb[::-1].copy(),
            batch.wh[::-1].copy(),
        )
        other = total_loss(swapped, rows(targets, slice(None, None, -1)), DEFAULT_WEIGHTS).breakdown
        assert abs(base.total - other.total) < 1e-15

    def test_misaligned_maps_rejected(self):
        batch, targets = hand_total_fixture()
        with pytest.raises(ShapeMismatch):
            total_loss(batch, rows(targets, slice(1)), DEFAULT_WEIGHTS)

    def test_class_id_beyond_scores_rejected(self):
        batch, _ = hand_total_fixture()
        targets = target_maps([3, 0], ltrb=[(1, 1, 1, 1), (0, 0, 0, 0)])
        with pytest.raises(ShapeMismatch):
            total_loss(batch, targets, DEFAULT_WEIGHTS)

    def test_composite_gradients_match_finite_differences(self):
        batch, targets = hand_total_fixture()

        def fn(x):
            candidate = PredictionBatch(
                x[:4].reshape(2, 2), x[4:6], x[6:14].reshape(2, 4), x[14:18].reshape(2, 2)
            )
            res = total_loss(candidate, targets, DEFAULT_WEIGHTS)
            grad = np.concatenate(
                [
                    res.class_score_grad.reshape(-1),
                    res.centerness_grad,
                    res.ltrb_grad.reshape(-1),
                    res.wh_grad.reshape(-1),
                ]
            )
            return res.breakdown.total, grad

        point = np.concatenate(
            [
                batch.class_scores.reshape(-1),
                batch.centerness,
                batch.ltrb.reshape(-1),
                batch.wh.reshape(-1),
            ]
        )
        # nudge off the |e| == delta kinks of the hand fixture
        point[6:14] += 0.13
        point[14:18] += 0.07
        assert grad_check(fn, point) <= 1e-4


class TestPredictionTypes:
    def test_batch_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            PredictionBatch(np.zeros((2, 2)) + 0.5, np.zeros(3), np.ones((2, 4)), np.zeros((2, 2)))


class TestFitDemo:
    def test_zero_learning_rate_constant_trajectory(self):
        targets = target_maps([1, 0], ltrb=[(4, 3, 2, 5), (0, 0, 0, 0)], wh=[(1, 2), (0, 0)])
        result = fit_demo(targets, DEFAULT_WEIGHTS, steps=10, lr=0.0)
        totals = {b.total for b in result.trajectory}
        assert len(result.trajectory) == 11
        assert len(totals) == 1

    def test_single_positive_converges(self):
        ltrb, wh = (12.0, 9.0, 8.0, 5.0), (4.0, 6.0)
        targets = target_maps(
            [1, 0, 0, 0], ltrb=[ltrb] + [(0, 0, 0, 0)] * 3, wh=[wh] + [(0, 0)] * 3,
            points=[(20, 15)] + [(0, 0)] * 3,
        )
        result = fit_demo(targets, DEFAULT_WEIGHTS, steps=2000, lr=0.05)
        truth = quad_from_offsets(Point2(20, 15), ltrb, wh)
        assert polygon_iou(quad_list(result.decoded_quads[[0]])[0], truth) >= 0.95
        totals = [b.total for b in result.trajectory]
        assert all(b <= a + 1e-15 for a, b in zip(totals, totals[1:]))

    def test_requires_a_positive(self):
        with pytest.raises(ValueError):
            fit_demo(target_maps([0]), DEFAULT_WEIGHTS, steps=1, num_classes=1)

    def test_non_finite_loss_raises(self):
        bad = target_maps([1], ltrb=[(math.nan, 1, 1, 1)], centerness=[0.5])
        with pytest.raises(Diverged):
            fit_demo(bad, DEFAULT_WEIGHTS, steps=1, lr=0.05)
