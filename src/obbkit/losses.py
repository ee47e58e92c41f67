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
from typing import Callable

import numpy as np

from .errors import Diverged, NonFiniteScore, ShapeMismatch
from .geometry import quads_from_offsets
from .targets import TargetMaps

_UNION_TINY = 1e-12
# Bound on fit_demo's raw parameters (group logits, log offsets); keeps
# sigmoids strictly inside (0, 1) and exponentials finite in float64.
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

    @classmethod
    def of(
        cls, cls_sum: float, reg_sum: float, ori_sum: float, num_pos: int, weights: "LossWeights"
    ) -> "LossBreakdown":
        norm = max(num_pos, 1)
        total = (cls_sum + weights.reg_weight * reg_sum + weights.ori_weight * ori_sum) / norm
        return cls(float(total), float(cls_sum), reg_sum, ori_sum, num_pos, norm)


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
    # min and max propagate NaN, which then fails the test; an empty array passes
    if scores.size and not (scores.min() > 0.0 and scores.max() < 1.0):
        raise NonFiniteScore("scores must lie strictly inside (0, 1)")


def _focal_branch(
    scores: np.ndarray, pos: np.ndarray, alpha: float, beta: float, normalizer: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry focal branch values (the loss is minus their sum) and the
    gradient divided by normalizer, C-contiguous in the shape of scores.

    pos holds the flat indices of y = 1. The background branch is
    evaluated everywhere, then the positive branch overwrites pos.
    """
    scores = np.ascontiguousarray(scores)
    om = np.subtract(1.0, scores)
    log_om = np.log(om)
    branch = np.power(scores, beta)  # s_beta until it is scaled below
    # d/ds of -branch, in place:
    # grad = -alpha * (beta * s ** (beta - 1.0) * log_om - s_beta / om)
    grad = np.power(scores, beta - 1.0)
    grad *= beta
    grad *= log_om
    grad -= np.divide(branch, om, out=om)
    grad *= -alpha
    grad /= normalizer
    # branch = alpha * s_beta * log_om, in place
    branch *= alpha
    branch *= log_om
    if pos.size:
        s = scores.flat[pos]
        om_p = 1.0 - s
        log_s = np.log(s)
        om_beta = om_p**beta
        branch.flat[pos] = alpha * om_beta * log_s
        grad.flat[pos] = -alpha * (-beta * om_p ** (beta - 1.0) * log_s + om_beta / s) / normalizer
    return branch, grad


def _focal_sum(
    scores: np.ndarray, pos: np.ndarray, alpha: float, beta: float, normalizer: float = 1.0
) -> tuple[float, np.ndarray]:
    """Unnormalized focal loss and its gradient divided by normalizer; pos
    holds the flat indices of y = 1. The sum runs in C order whatever the
    memory layout of scores."""
    branch, grad = _focal_branch(scores, pos, alpha, beta, normalizer)
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
    bad = targets[(targets != 0.0) & (targets != 1.0)]
    if bad.size:
        raise ValueError(f"targets must be exactly 0 or 1, got {bad[0]}")
    loss, grad = _focal_sum(
        np.atleast_1d(scores), np.flatnonzero(targets == 1.0), alpha, beta, normalizer
    )
    return loss / normalizer, grad.reshape(scores.shape)


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


def _require_classes(class_id: np.ndarray, num_classes: int) -> None:
    """Raise ShapeMismatch for a class id above num_classes."""
    if class_id.size and class_id.max() > num_classes:
        raise ShapeMismatch(
            f"target class id {class_id.max()} exceeds {num_classes} prediction classes"
        )


def _label_positions(class_id: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive rows and the flat (L, C) indices of their y = 1 entries; raises
    ShapeMismatch for a class id above num_classes."""
    _require_classes(class_id, num_classes)
    pos = np.flatnonzero(class_id > 0)
    return pos, pos * num_classes + class_id[pos] - 1


def _positive_terms(
    centerness: np.ndarray,
    ltrb: np.ndarray,
    wh: np.ndarray,
    truth: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: LossWeights,
    norm: int,
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """reg_sum, ori_sum and the composite's gradients (divided by norm) with
    respect to the predicted centerness (P,), ltrb (P, 4) and wh (P, 2)
    of P positive rows; truth holds the rows' target centerness, ltrb, wh."""
    t_centerness, t_ltrb, t_wh = truth
    bce_vals, bce_grads = _bce_batch(centerness, t_centerness)
    sl1_b, sl1_b_grad = _smooth_l1_batch(ltrb - t_ltrb, weights.smooth_l1_delta)
    iou_h, d_iou_h = _offset_iou(ltrb, t_ltrb)
    reg_sum = float(bce_vals.sum() + weights.reg_l1_weight * sl1_b.sum() + (1.0 - iou_h).sum())

    sl1_o, sl1_o_grad = _smooth_l1_batch(wh - t_wh, weights.smooth_l1_delta)
    iou_o, d_ori_ltrb, d_ori_wh = _inner_iou(ltrb, wh, t_ltrb, t_wh)
    ori_sum = float(weights.ori_l1_weight * sl1_o.sum() + (1.0 - iou_o).sum())

    d_reg_ltrb = weights.reg_l1_weight * sl1_b_grad - d_iou_h
    return (
        reg_sum,
        ori_sum,
        weights.reg_weight * bce_grads / norm,
        (weights.reg_weight * d_reg_ltrb + weights.ori_weight * d_ori_ltrb) / norm,
        weights.ori_weight * (weights.ori_l1_weight * sl1_o_grad + d_ori_wh) / norm,
    )


def total_loss(
    preds: PredictionBatch, targets: TargetMaps, weights: LossWeights
) -> TotalLossResult:
    """Composite loss over aligned prediction and target maps.

    Classification is scored on every location; centerness, box and
    orientation terms only on positives. The three sums are divided once
    by max(num_pos, 1).
    """
    n = preds.num_locations
    if len(targets) != n:
        raise ShapeMismatch(f"{n} predictions vs {len(targets)} targets")
    pos, onehot = _label_positions(targets.class_id, preds.num_classes)
    num_pos = int(pos.size)
    norm = max(num_pos, 1)

    _require_open_unit(preds.class_scores)
    cls_sum, cls_grad = _focal_sum(
        preds.class_scores, onehot, weights.focal_alpha, weights.focal_beta, norm
    )

    centerness_grad = np.zeros(n)
    ltrb_grad = np.zeros((n, 4))
    wh_grad = np.zeros((n, 2))
    reg_sum = ori_sum = 0.0
    if num_pos:
        truth = (targets.centerness[pos], targets.ltrb[pos], targets.wh[pos])
        reg_sum, ori_sum, centerness_grad[pos], ltrb_grad[pos], wh_grad[pos] = _positive_terms(
            preds.centerness[pos], preds.ltrb[pos], preds.wh[pos], truth, weights, norm
        )
    breakdown = LossBreakdown.of(cls_sum, reg_sum, ori_sum, num_pos, weights)
    return TotalLossResult(breakdown, cls_grad, centerness_grad, ltrb_grad, wh_grad)


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


def _count_sum(counts: tuple[int, ...], values: np.ndarray) -> float:
    """The sum of counts[i] copies of values[i], exact and rounded once: the
    math.fsum of those copies, without forming them. values must be finite."""
    num, den = 0, 1
    for n, v in zip(counts, values.tolist()):
        p, q = v.as_integer_ratio()
        num, den = num * q + n * p * den, den * q
    return num / den  # int true division rounds correctly


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function: 1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere, e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)  # e <= 1, so 1 where z >= 0


@dataclass
class FitDemoResult:
    """Gradient-descent fit over free per-location predictions."""

    trajectory: list[LossBreakdown]
    positive_indices: list[int]
    decoded_quads: np.ndarray
    fused_scores: list[float]
    final_batch: PredictionBatch


def _check_fit_args(steps: int, lr: float) -> None:
    """Raise ValueError unless steps >= 0 and lr is finite and >= 0."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")


def fit_demo(
    targets: TargetMaps,
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
    location, the (4, 2) vertices decoded from the final offsets around
    that location's image point, as one (P, 4, 2) array.

    Every class logit starts at 0 and each step treats an entry by its
    logit and label alone, so all y = 0 entries share one logit and all
    y = 1 entries another: the fit keeps these two group logits (a group
    with no entry does not count when telling whether a step moved). The
    focal sum is n0 * b0 + n1 * b1, each group's entry count times its
    branch value, added exactly and rounded once. That is the math.fsum
    of the (L, C) per-entry values (a group with no entry adds exactly 0);
    numpy's pairwise .sum() of them can differ in the last bits. The
    centerness logit, log ltrb and log wh are kept only at the positives;
    their gradient is 0 on background, where the predictions stay at the
    constants 0.5 and 1.0 of a zero parameter. The fit itself reads only
    the positive rows; the (L, C) class scores are formed once, for
    final_batch.

    Raises ValueError unless steps >= 0 and lr is finite and >= 0, and
    Diverged if the loss ever becomes non-finite.
    """
    _check_fit_args(steps, lr)
    if num_classes is None:
        num_classes = int(targets.class_id.max(initial=0))
    n = len(targets)
    pos = np.flatnonzero(targets.class_id > 0)
    class_id = targets.class_id[pos]
    truth = (targets.centerness[pos], targets.ltrb[pos], targets.wh[pos])
    trajectory, scores, (cent, ltrb, wh), decoded, fused = _fit_positives(
        n, class_id, truth, targets.points[pos], weights, steps, lr, num_classes
    )
    centerness, full_ltrb, full_wh = np.full(n, 0.5), np.ones((n, 4)), np.ones((n, 2))
    centerness[pos], full_ltrb[pos], full_wh[pos] = cent, ltrb, wh
    class_scores = np.full((n, num_classes), scores[0])
    class_scores[pos, class_id - 1] = scores[1]
    batch = PredictionBatch(class_scores, centerness, full_ltrb, full_wh)
    return FitDemoResult(trajectory, pos.tolist(), decoded, fused.tolist(), batch)


def _fit_positives(
    n: int,
    class_id: np.ndarray,
    truth: tuple[np.ndarray, np.ndarray, np.ndarray],
    points: np.ndarray,
    weights: LossWeights,
    steps: int,
    lr: float,
    num_classes: int,
):
    """The fit of :func:`fit_demo` on the P positives of n locations, from
    their 1-based class_id (P,), truth (target centerness (P,), ltrb (P, 4),
    wh (P, 2)) and image points (P, 2); steps and lr are not checked.

    Returns the trajectory, the final scores of the y = 0 and y = 1 groups
    (2,), the positives' final centerness, ltrb and wh, their decoded
    quads (P, 4, 2) and their fused scores (P,).
    """
    if num_classes < 1:
        raise ValueError("at least one class required")
    _require_classes(class_id, num_classes)
    norm = class_id.size
    if not norm:
        raise ValueError("fit_demo needs at least one positive target")
    # entries per label group: y = 0, y = 1
    counts = (n * num_classes - norm, norm)
    # the group logits that have entries: both, or only y = 1
    live = slice(0 if counts[0] else 1, 2)

    def evaluate(logits: np.ndarray, reg: np.ndarray):
        """Loss breakdown, parameter gradients and predictions at one point."""
        scores = _sigmoid(logits)
        branch, score_grad = _focal_branch(
            scores, np.array([1]), weights.focal_alpha, weights.focal_beta, norm
        )
        cent, ltrb, wh = preds = (_sigmoid(reg[:, 0]), np.exp(reg[:, 1:5]), np.exp(reg[:, 5:]))
        reg_sum, ori_sum, cent_grad, ltrb_grad, wh_grad = _positive_terms(
            *preds, truth, weights, norm
        )
        # chain rule through the sigmoid / exp parameterizations
        grads = (score_grad * scores * (1.0 - scores), np.concatenate(
            [(cent_grad * cent * (1.0 - cent))[:, None], ltrb_grad * ltrb, wh_grad * wh], axis=1))
        breakdown = LossBreakdown.of(-_count_sum(counts, branch), reg_sum, ori_sum, norm, weights)
        return breakdown, grads, (scores, preds)

    # y = 0 and y = 1 group logits; positives' centerness logit, log ltrb, log wh
    params = (np.zeros(2), np.zeros((norm, 7)))
    breakdown, grads, preds = evaluate(*params)
    if not math.isfinite(breakdown.total):
        raise Diverged("loss non-finite at initialization")
    trajectory: list[LossBreakdown] = [breakdown]
    frozen = lr == 0.0
    step_size = lr
    for _ in range(steps):
        if not frozen:
            trial = min(step_size * 2.0, 1e4)
            accepted = False
            for _try in range(60):
                cand = tuple(
                    np.clip(p - g * trial, -_RAW_BOUND, _RAW_BOUND) for p, g in zip(params, grads)
                )
                result = evaluate(*cand)
                if math.isfinite(result[0].total) and result[0].total <= breakdown.total:
                    accepted = not (
                        np.array_equal(cand[0][live], params[0][live])
                        and np.array_equal(cand[1], params[1])
                    )
                    params, (breakdown, grads, preds) = cand, result
                    step_size = trial
                    break
                trial *= 0.5
            # no step along the subgradient improves: the iteration is a
            # fixed point, so later steps would reproduce it exactly
            frozen = not accepted
        trajectory.append(breakdown)

    scores, (cent, ltrb, wh) = preds
    decoded = quads_from_offsets(points, ltrb, wh)
    return trajectory, scores, (cent, ltrb, wh), decoded, scores[1] * cent
