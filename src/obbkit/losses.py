"""Loss stack for oriented-box training, with analytic gradients.

Classification uses a focal loss over per-class probabilities in which
both branches carry the alpha weight:

    -1/M * sum( alpha * (1-p)^beta * log(p)        where y = 1
                alpha * p^beta     * log(1-p)      otherwise )

Box regression combines a binary cross entropy on centerness, a
smooth-L1 on the ltrb offsets and a (1 - IoU) term on the axis-aligned
boxes the offsets span. Orientation regression combines a smooth-L1 on
the (w, h) offsets with a (1 - IoU) term computed on the "inner" boxes
[|l-w|, |t-h|, |r-w|, |b-h|], a cheap stand-in for the rotated overlap.
The composite divides all three sums once by the clamped positive count.

Every operation returns (value, gradient with respect to predictions);
:func:`grad_check` verifies any of them against central differences and
:func:`fit_demo` drives free per-location predictions to ground truth by
backtracking gradient descent as an end-to-end check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import Diverged, NonFiniteScore, ShapeMismatch
from .geometry import Point2, Quad, quad_from_offsets
from .targets import RegressionTarget, TargetMaps

_UNION_TINY = 1e-12
# Raw parameter bound in fit_demo; keeps sigmoids strictly inside (0, 1)
# and exponentials finite in float64.
_RAW_BOUND = 30.0


@dataclass(frozen=True)
class LossWeights:
    """Scale coefficients of the composite loss.

    reg_weight / ori_weight scale the box and orientation sums in the
    composite; reg_l1_weight / ori_l1_weight scale the smooth-L1 terms
    inside those sums; focal_alpha / focal_beta parameterize the focal
    loss; smooth_l1_delta is the quadratic-to-linear switch point.
    """

    reg_weight: float = 1.0
    ori_weight: float = 1.0
    reg_l1_weight: float = 0.2
    ori_l1_weight: float = 0.2
    focal_alpha: float = 0.3
    focal_beta: float = 4.0
    smooth_l1_delta: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class LossBreakdown:
    """Composite loss and its unnormalized per-branch sums.

    total = (cls_loss + reg_weight * reg_loss + ori_weight * ori_loss)
            / normalizer, where normalizer = max(num_pos, 1).
    """

    total: float
    cls_loss: float
    reg_loss: float
    ori_loss: float
    num_pos: int
    normalizer: int


@dataclass
class PredictionBatch:
    """Dense per-location predictions as arrays.

    class_scores: (L, C), centerness: (L,), ltrb: (L, 4), wh: (L, 2).
    """

    class_scores: np.ndarray
    centerness: np.ndarray
    ltrb: np.ndarray
    wh: np.ndarray

    def __post_init__(self):
        self.class_scores = np.asarray(self.class_scores, dtype=float)
        self.centerness = np.asarray(self.centerness, dtype=float)
        self.ltrb = np.asarray(self.ltrb, dtype=float)
        self.wh = np.asarray(self.wh, dtype=float)
        n = self.class_scores.shape[0] if self.class_scores.ndim == 2 else -1
        if (
            self.class_scores.ndim != 2
            or self.centerness.shape != (n,)
            or self.ltrb.shape != (n, 4)
            or self.wh.shape != (n, 2)
        ):
            raise ShapeMismatch(
                "expected class_scores (L, C), centerness (L,), ltrb (L, 4), wh (L, 2)"
            )

    @property
    def num_locations(self) -> int:
        return self.class_scores.shape[0]

    @property
    def num_classes(self) -> int:
        return self.class_scores.shape[1]

def _require_open_unit(scores: np.ndarray) -> None:
    # written so that NaN fails the test too
    if not ((scores > 0.0) & (scores < 1.0)).all():
        raise NonFiniteScore("scores must lie strictly inside (0, 1)")


def _focal_sum(
    scores: np.ndarray, pos: np.ndarray, alpha: float, beta: float
) -> tuple[float, np.ndarray]:
    """Unnormalized focal loss and gradient; pos holds the flat indices of y = 1.

    The background branch is evaluated everywhere, then the positive
    branch overwrites the entries at pos only. The sum runs in C order
    whatever the memory layout of scores.
    """
    scores = np.ascontiguousarray(scores)
    om = 1.0 - scores
    log_om = np.log(om)
    s_beta = scores**beta
    branch = alpha * s_beta * log_om
    # d/ds of -branch, branch by branch
    grad = -alpha * (beta * scores ** (beta - 1.0) * log_om - s_beta / om)
    if pos.size:
        s = scores.flat[pos]
        om_p = om.flat[pos]
        log_s = np.log(s)
        om_beta = om_p**beta
        branch.flat[pos] = alpha * om_beta * log_s
        grad.flat[pos] = -alpha * (-beta * om_p ** (beta - 1.0) * log_s + om_beta / s)
    return -float(branch.sum()), grad


def focal_loss(
    scores,
    targets,
    alpha: float,
    beta: float,
    normalizer: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Focal loss over a score map and matching binary target map.

    Returns the loss and its gradient with respect to every score.
    normalizer is the keypoint count M dividing the sum (>= 1).
    """
    scores = np.asarray(scores, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if scores.shape != targets.shape:
        raise ShapeMismatch(f"scores {scores.shape} vs targets {targets.shape}")
    if normalizer < 1:
        raise ValueError(f"normalizer must be >= 1, got {normalizer}")
    _require_open_unit(scores)
    loss, grad = _focal_sum(np.atleast_1d(scores), np.flatnonzero(targets == 1.0), alpha, beta)
    return loss / normalizer, grad.reshape(scores.shape) / normalizer


def bce(pred: float, target: float) -> tuple[float, float]:
    """Binary cross entropy -(t log p + (1-t) log(1-p)) with d/dp."""
    if not (0.0 < pred < 1.0):
        raise NonFiniteScore(f"prediction must lie strictly in (0, 1), got {pred}")
    if not (0.0 <= target <= 1.0):
        raise ValueError(f"target must lie in [0, 1], got {target}")
    loss, grad = _bce_batch(np.float64(pred), np.float64(target))
    return float(loss), float(grad)


def _bce_batch(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _require_open_unit(pred)
    vals = -(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))
    grads = (pred - target) / (pred * (1.0 - pred))
    return vals, grads


def _smooth_l1_batch(e: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise smooth-L1 of errors e and its derivative."""
    small = np.abs(e) < delta
    vals = np.where(small, 0.5 * e * e / delta, np.abs(e) - 0.5 * delta)
    grad = np.where(small, e / delta, np.sign(e))
    return vals, grad


def smooth_l1(pred, target, delta: float = 1.0) -> tuple[float, np.ndarray]:
    """Summed smooth-L1: 0.5 e^2/delta below delta, |e| - 0.5 delta above."""
    pred = np.atleast_1d(np.asarray(pred, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    vals, grad = _smooth_l1_batch(pred - target, delta)
    return float(vals.sum()), grad


def _inner_diff(ltrb: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """ltrb - [w, h, w, h] (per row); the inner box is its absolute value."""
    return ltrb - wh[..., [0, 1, 0, 1]]


def inner_box(ltrb, wh) -> np.ndarray:
    """Inner-box offsets [|l-w|, |t-h|, |r-w|, |b-h|]."""
    ltrb, wh = np.asarray(ltrb, dtype=float).reshape(4), np.asarray(wh, dtype=float).reshape(2)
    return np.abs(_inner_diff(ltrb, wh))


def _offset_iou(
    pred: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """IoU of boxes given as (L, 4) [l, t, r, b] offsets around shared points.

    Both boxes contain their anchor point, so the overlap width/height are
    min(l, l') + min(r, r') and min(t, t') + min(b, b'). Returns per-row
    IoU and d IoU / d pred; ties in the mins take the gradient from the
    prediction side.
    """
    wi = np.minimum(pred[:, 0], target[:, 0]) + np.minimum(pred[:, 2], target[:, 2])
    hi = np.minimum(pred[:, 1], target[:, 1]) + np.minimum(pred[:, 3], target[:, 3])
    inter = wi * hi
    area_p = (pred[:, 0] + pred[:, 2]) * (pred[:, 1] + pred[:, 3])
    area_t = (target[:, 0] + target[:, 2]) * (target[:, 1] + target[:, 3])
    union = area_p + area_t - inter

    active = (pred <= target).astype(float)  # pred coordinate drives the min
    d_inter = active * np.stack([hi, wi, hi, wi], axis=1)
    d_area = np.stack(
        [
            pred[:, 1] + pred[:, 3],
            pred[:, 0] + pred[:, 2],
            pred[:, 1] + pred[:, 3],
            pred[:, 0] + pred[:, 2],
        ],
        axis=1,
    )
    safe = union > _UNION_TINY
    u = np.where(safe, union, 1.0)
    iou = np.where(safe, inter / u, 0.0)
    d_union = d_area - d_inter
    grad = np.where(
        safe[:, None], (d_inter * u[:, None] - inter[:, None] * d_union) / (u * u)[:, None], 0.0
    )
    return iou, grad


def iou_hbb_loss(pred_ltrb, target_ltrb) -> tuple[float, np.ndarray]:
    """1 - IoU of the axis-aligned boxes two ltrb offset vectors span."""
    p = np.asarray(pred_ltrb, dtype=float).reshape(1, 4)
    t = np.asarray(target_ltrb, dtype=float).reshape(1, 4)
    iou, grad = _offset_iou(p, t)
    return float(1.0 - iou[0]), -grad[0]


def _inner_iou(
    p_ltrb: np.ndarray, p_wh: np.ndarray, t_ltrb: np.ndarray, t_wh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row IoU of inner boxes with d(1 - IoU)/d p_ltrb (N, 4) and /d p_wh (N, 2).

    Absolute-value kinks contribute a zero subgradient (sign 0).
    """
    diff = _inner_diff(p_ltrb, p_wh)
    iou, d_iou = _offset_iou(np.abs(diff), np.abs(_inner_diff(t_ltrb, t_wh)))
    sign = np.sign(diff)
    d_wh = np.stack(
        [
            d_iou[:, 0] * sign[:, 0] + d_iou[:, 2] * sign[:, 2],
            d_iou[:, 1] * sign[:, 1] + d_iou[:, 3] * sign[:, 3],
        ],
        axis=1,
    )
    return iou, -d_iou * sign, d_wh


def iou_obb_loss(pred, target) -> tuple[float, np.ndarray]:
    """1 - IoU of the inner boxes of two [l, t, r, b, w, h] vectors.

    Returns the loss with its gradient w.r.t. the six prediction entries;
    absolute-value kinks contribute a zero subgradient, degenerate inner
    boxes yield loss 1 with the gradient of the surviving smooth branch.
    """
    p = np.asarray(pred, dtype=float).reshape(1, 6)
    t = np.asarray(target, dtype=float).reshape(1, 6)
    iou, d_ltrb, d_wh = _inner_iou(p[:, :4], p[:, 4:], t[:, :4], t[:, 4:])
    return float(1.0 - iou[0]), np.concatenate([d_ltrb[0], d_wh[0]])


@dataclass
class TotalLossResult:
    """Composite loss breakdown plus gradients for every prediction field."""

    breakdown: LossBreakdown
    class_score_grad: np.ndarray
    centerness_grad: np.ndarray
    ltrb_grad: np.ndarray
    wh_grad: np.ndarray


def total_loss(
    preds: PredictionBatch,
    targets: TargetMaps | Sequence[RegressionTarget],
    weights: LossWeights,
) -> TotalLossResult:
    """Composite loss over aligned prediction and target maps.

    Classification is scored on every location; centerness, box and
    orientation terms only on positives. The three sums are divided once
    by max(num_pos, 1). A RegressionTarget sequence is converted with
    TargetMaps.from_targets.
    """
    targets = TargetMaps.from_targets(targets)
    n = preds.num_locations
    if len(targets) != n:
        raise ShapeMismatch(f"{n} predictions vs {len(targets)} targets")
    num_classes = preds.num_classes
    labels = targets.class_id
    if labels.size and labels.max() > num_classes:
        raise ShapeMismatch(
            f"target class id {labels.max()} exceeds {num_classes} prediction classes"
        )

    pos_idx = np.flatnonzero(labels > 0)
    num_pos = int(pos_idx.size)
    norm = max(num_pos, 1)

    _require_open_unit(preds.class_scores)
    onehot = pos_idx * num_classes + labels[pos_idx] - 1  # flat indices of the y = 1 scores
    cls_sum, cls_grad = _focal_sum(
        preds.class_scores, onehot, weights.focal_alpha, weights.focal_beta
    )

    centerness_grad = np.zeros(n)
    ltrb_grad = np.zeros((n, 4))
    wh_grad = np.zeros((n, 2))
    reg_sum = 0.0
    ori_sum = 0.0
    if num_pos:
        t_ltrb = targets.ltrb[pos_idx]
        p_ltrb = preds.ltrb[pos_idx]
        p_wh = preds.wh[pos_idx]

        bce_vals, bce_grads = _bce_batch(preds.centerness[pos_idx], targets.centerness[pos_idx])
        sl1_b, sl1_b_grad = _smooth_l1_batch(p_ltrb - t_ltrb, weights.smooth_l1_delta)
        iou_h, d_iou_h = _offset_iou(p_ltrb, t_ltrb)
        reg_sum = float(bce_vals.sum() + weights.reg_l1_weight * sl1_b.sum() + (1.0 - iou_h).sum())

        t_wh = targets.wh[pos_idx]
        sl1_o, sl1_o_grad = _smooth_l1_batch(p_wh - t_wh, weights.smooth_l1_delta)
        iou_o, d_ori_ltrb, d_ori_wh = _inner_iou(p_ltrb, p_wh, t_ltrb, t_wh)
        ori_sum = float(weights.ori_l1_weight * sl1_o.sum() + (1.0 - iou_o).sum())

        centerness_grad[pos_idx] = weights.reg_weight * bce_grads / norm
        d_reg_ltrb = weights.reg_l1_weight * sl1_b_grad - d_iou_h
        ltrb_grad[pos_idx] = (
            weights.reg_weight * d_reg_ltrb + weights.ori_weight * d_ori_ltrb
        ) / norm
        wh_grad[pos_idx] = (
            weights.ori_weight * (weights.ori_l1_weight * sl1_o_grad + d_ori_wh) / norm
        )

    total = (cls_sum + weights.reg_weight * reg_sum + weights.ori_weight * ori_sum) / norm
    breakdown = LossBreakdown(
        total=float(total),
        cls_loss=float(cls_sum),
        reg_loss=reg_sum,
        ori_loss=ori_sum,
        num_pos=num_pos,
        normalizer=norm,
    )
    return TotalLossResult(breakdown, cls_grad / norm, centerness_grad, ltrb_grad, wh_grad)


def grad_check(
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn maps a parameter vector to (value, gradient). Coordinates
    where both gradients are below 1e-7 in magnitude count as agreeing
    zeros. The caller is responsible for keeping `point` away from kinks
    of the loss.
    """
    point = np.asarray(point, dtype=float)
    _, analytic = loss_fn(point)
    analytic = np.asarray(analytic, dtype=float)
    if analytic.shape != point.shape:
        raise ShapeMismatch(f"gradient {analytic.shape} vs point {point.shape}")
    worst = 0.0
    for i in range(point.size):
        step = np.zeros_like(point)
        step.flat[i] = eps
        f_plus, _ = loss_fn(point + step)
        f_minus, _ = loss_fn(point - step)
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic.flat[i])
        denom = max(abs(a), abs(numeric))
        if denom < 1e-7:
            continue
        worst = max(worst, abs(a - numeric) / denom)
    return worst


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class FitDemoResult:
    """Gradient-descent fit over free per-location predictions."""

    trajectory: list[LossBreakdown]
    positive_indices: list[int]
    decoded_quads: list[Quad]
    fused_scores: list[float]
    final_batch: PredictionBatch


def _fit_params_to_batch(raw: np.ndarray, num_classes: int) -> PredictionBatch:
    """Raw (L, C + 7) parameter block -> predictions.

    Columns: class logits (C), centerness logit, log ltrb (4), log wh (2).
    """
    c = num_classes
    return PredictionBatch(
        _sigmoid(raw[:, :c]),
        _sigmoid(raw[:, c]),
        np.exp(raw[:, c + 1 : c + 5]),
        np.exp(raw[:, c + 5 :]),
    )


def fit_demo(
    targets: TargetMaps | Sequence[RegressionTarget],
    weights: LossWeights,
    steps: int = 2000,
    lr: float = 0.05,
    num_classes: int | None = None,
) -> FitDemoResult:
    """Drive free predictions to the targets by gradient descent.

    Per-location predictions are parameterized unconstrained (logits for
    the scores, log-space for the offsets, so probabilities stay inside
    (0, 1) and offsets stay positive) and initialized at zero. Each step
    moves along the negative gradient with an adaptive step size seeded
    by lr: the step doubles after an accepted move and halves until the
    loss does not increase (backtracking), which keeps the trajectory
    non-increasing even across the kinks of the L1-style terms and
    independent of how many positives share the normalizer. Returns the
    loss trajectory (steps + 1 entries) and, for every positive
    location, the quad decoded from the final offsets around that
    location's image point. A RegressionTarget sequence is converted
    with TargetMaps.from_targets.

    Raises Diverged if the loss ever becomes non-finite.
    """
    targets = TargetMaps.from_targets(targets)
    if num_classes is None:
        num_classes = int(targets.class_id.max(initial=0))
    if num_classes < 1:
        raise ValueError("at least one class required")
    pos = np.flatnonzero(targets.class_id > 0)
    if not pos.size:
        raise ValueError("fit_demo needs at least one positive target")

    raw = np.zeros((len(targets), num_classes + 7))

    def evaluate(params: np.ndarray) -> tuple[PredictionBatch, TotalLossResult]:
        batch = _fit_params_to_batch(params, num_classes)
        return batch, total_loss(batch, targets, weights)

    batch, result = evaluate(raw)
    if not math.isfinite(result.breakdown.total):
        raise Diverged("loss non-finite at initialization")
    trajectory: list[LossBreakdown] = [result.breakdown]
    frozen = lr == 0.0
    step_size = lr
    for _ in range(steps):
        if not frozen:
            # chain rule through the sigmoid / exp parameterizations
            grad = np.concatenate(
                [
                    result.class_score_grad * batch.class_scores * (1.0 - batch.class_scores),
                    (result.centerness_grad * batch.centerness * (1.0 - batch.centerness))[:, None],
                    result.ltrb_grad * batch.ltrb,
                    result.wh_grad * batch.wh,
                ],
                axis=1,
            )
            trial = min(step_size * 2.0, 1e4)
            accepted = False
            for _try in range(60):
                candidate = np.clip(raw - trial * grad, -_RAW_BOUND, _RAW_BOUND)
                cand_batch, cand_result = evaluate(candidate)
                if (
                    math.isfinite(cand_result.breakdown.total)
                    and cand_result.breakdown.total <= result.breakdown.total
                ):
                    accepted = not np.array_equal(candidate, raw)
                    raw, batch, result = candidate, cand_batch, cand_result
                    step_size = trial
                    break
                trial *= 0.5
            # no step along the subgradient improves: the iteration is a
            # fixed point, so later steps would reproduce it exactly
            frozen = not accepted
        trajectory.append(result.breakdown)

    decoded = [
        quad_from_offsets(Point2(*point), batch.ltrb[i], batch.wh[i])
        for point, i in zip(targets.points[pos].tolist(), pos)
    ]
    fused = (batch.class_scores[pos, targets.class_id[pos] - 1] * batch.centerness[pos]).tolist()
    return FitDemoResult(trajectory, pos.tolist(), decoded, fused, batch)
