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
The positive terms are formed channel-major, one row per quantity over
the P positives, by one kernel that scores the HBB and inner boxes in a
single offset-IoU call; every value and sum matches a row-by-row
evaluation bit for bit.

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
    # two allocations: 1 - s, its log and the branch values in one block, then the gradient
    om, log_om, branch = np.empty((3, *scores.shape))
    np.subtract(1.0, scores, out=om)
    np.log(om, out=log_om)
    np.power(scores, beta, out=branch)  # s_beta until it is scaled below
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
        with np.errstate(over="ignore"):  # a tiny s overflows to inf, as in float arithmetic
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
    loss, grad = _bce_batch(np.float64(pred), np.float64(target), 1.0 - np.float64(target))
    return float(loss), float(grad)


def _bce_batch(pred: np.ndarray, target: np.ndarray, target_c: np.ndarray) -> tuple:
    """Elementwise binary cross entropy and its derivative; target_c is 1 - target."""
    _require_open_unit(pred)
    pred_c = 1.0 - pred
    vals = -(target * np.log(pred) + target_c * np.log(pred_c))
    with np.errstate(over="ignore"):  # a tiny pred overflows to inf, as in float arithmetic
        grads = (pred - target) / (pred * pred_c)
    return vals, grads


def _smooth_l1_batch(e: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise smooth-L1 of errors e and its derivative; e clipped to
    [-delta, delta] is divided, so no quotient leaves [-1, 1] or overflows.
    delta = 0 is plain L1 and divides nothing."""
    if not delta:
        return np.abs(e), np.sign(e)
    size = np.abs(e)
    with np.errstate(over="ignore"):  # the square np.where discards may overflow
        vals = np.where(size < delta, 0.5 * e * e / delta, size - 0.5 * delta)
    return vals, np.clip(e, -delta, delta) / delta


def smooth_l1(pred, target, delta: float = 1.0) -> tuple[float, np.ndarray]:
    """Summed smooth-L1: 0.5 e^2/delta below delta, |e| - 0.5 delta above."""
    pred = np.atleast_1d(np.asarray(pred, dtype=float))
    target = np.atleast_1d(np.asarray(target, dtype=float))
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    vals, grad = _smooth_l1_batch(pred - target, delta)
    return float(vals.sum()), grad


def _inner_signed(offsets: np.ndarray) -> np.ndarray:
    """[l-w, t-h, r-w, b-h] (4, N) of (6, N) rows l t r b w h; the inner box is its abs."""
    return (offsets[:4].reshape(2, 2, -1) - offsets[4:]).reshape(4, -1)


def inner_box(ltrb, wh) -> np.ndarray:
    """Inner-box offsets [|l-w|, |t-h|, |r-w|, |b-h|]."""
    offsets = np.append(np.asarray(ltrb, dtype=float).reshape(4), np.asarray(wh, dtype=float))
    return np.abs(_inner_signed(offsets.reshape(6, 1)))[:, 0]


def _area(boxes: np.ndarray) -> np.ndarray:
    """(l + r)(t + b) of (4, N) rows l, t, r, b; inf past the float range."""
    with np.errstate(over="ignore"):
        return (boxes[0] + boxes[2]) * (boxes[1] + boxes[3])


def _offset_iou(pred: np.ndarray, target: np.ndarray, area_t: np.ndarray) -> tuple:
    """IoU (N,) of boxes given as (4, N) rows of l, t, r, b offsets around
    shared points, target areas area_t (N,), and d IoU / d pred (4, N).

    Both boxes contain their anchor point, so the overlap width/height are
    min(l, l') + min(r, r') and min(t, t') + min(b, b'); ties in the mins
    take the gradient from the prediction side. A tiny, NaN or infinite
    union (its limit) gives IoU 0 and gradient 0."""
    low = np.minimum(pred, target).reshape(2, 2, -1)
    sides = pred.reshape(2, 2, -1)
    with np.errstate(over="ignore"):  # a side or area past the float range is inf
        span = low[0] + low[1]  # overlap width, height
        size = sides[0] + sides[1]  # predicted width, height
        union = size[0] * size[1]
        union += area_t
    huge = np.isinf(union)  # zeroed, its columns put no inf into the products below
    span[:, huge] = size[:, huge] = 0.0
    inter = span[0] * span[1]
    union -= inter
    # the pred side drives the min: l and r scale with the height, t and b with the width
    d_inter = np.multiply((pred <= target).reshape(low.shape), span[::-1], out=low)
    d_union = np.subtract(size[::-1], d_inter)
    unsafe = ~(union > _UNION_TINY) | huge
    union[unsafe] = 1.0
    d_inter *= union
    d_union *= inter
    d_inter -= d_union
    iou = inter / union
    with np.errstate(over="ignore"):  # a huge union squares to inf, as in float arithmetic
        d_inter /= np.multiply(union, union, out=union)
    iou[unsafe] = 0.0
    d_inter[:, :, unsafe] = 0.0
    return iou, d_inter.reshape(4, -1)


def iou_hbb_loss(pred_ltrb, target_ltrb) -> tuple[float, np.ndarray]:
    """1 - IoU of the axis-aligned boxes two ltrb offset vectors span."""
    p = np.asarray(pred_ltrb, dtype=float).reshape(4, 1)
    t = np.asarray(target_ltrb, dtype=float).reshape(4, 1)
    iou, grad = _offset_iou(p, t, _area(t))
    return float(1.0 - iou[0]), -grad[:, 0]


def iou_obb_loss(pred, target) -> tuple[float, np.ndarray]:
    """1 - IoU of the inner boxes of two [l, t, r, b, w, h] vectors.

    Returns the loss with its gradient w.r.t. the six prediction entries;
    absolute-value kinks contribute a zero subgradient, degenerate inner
    boxes yield loss 1 with the gradient of the surviving smooth branch.
    """
    p = np.asarray(pred, dtype=float).reshape(6, 1)
    t = np.abs(_inner_signed(np.asarray(target, dtype=float).reshape(6, 1)))
    signed = _inner_signed(p)
    iou, d_iou = _offset_iou(np.abs(signed), t, _area(t))
    d_iou *= np.sign(signed)  # the zero subgradient at a kink: sign 0
    return float(1.0 - iou[0]), np.concatenate([-d_iou, d_iou[:2] + d_iou[2:]])[:, 0]


def _truth(centerness: np.ndarray, ltrb: np.ndarray, wh: np.ndarray) -> tuple[np.ndarray, ...]:
    """The target side of :func:`_positive_terms`, formed once: centerness (P,),
    1 - centerness, offsets l t r b w h (6, P), the HBB and then the inner
    boxes (4, 2P) and their areas (2P,), from centerness, ltrb (P, 4), wh (P, 2)."""
    offsets = np.concatenate([ltrb.T, wh.T])
    boxes = np.concatenate([offsets[:4], np.abs(_inner_signed(offsets))], axis=1)
    return centerness, 1.0 - centerness, offsets, boxes, _area(boxes)


def _positive_terms(
    centerness: np.ndarray, offsets: np.ndarray, truth: tuple, weights: LossWeights, norm: int
) -> tuple[float, float, np.ndarray]:
    """reg_sum, ori_sum and the composite's (7, P) gradient, divided by norm,
    with respect to the predicted centerness (P,) and C-contiguous offsets
    l t r b w h (6, P) of P positives whose :func:`_truth` is truth.

    One offset-IoU call scores the HBB and the inner boxes side by side.
    Entries and sums are those of a row-by-row evaluation: the smooth-L1
    values are summed as row-major (P, 4) and (P, 2) copies."""
    t_cent, t_cent_c, t_offsets, t_boxes, t_area = truth
    p = centerness.size
    grad = np.empty((7, p))
    bce_vals, grad[0] = _bce_batch(centerness, t_cent, t_cent_c)
    sl1, sl1_grad = _smooth_l1_batch(offsets - t_offsets, weights.smooth_l1_delta)
    sl1_ltrb, sl1_wh = sl1[:4].T.copy().sum(), sl1[4:].T.copy().sum()
    ltrb, wh = grad[1:5], grad[5:]
    np.multiply(weights.reg_l1_weight, sl1_grad[:4], out=ltrb)
    np.multiply(weights.ori_l1_weight, sl1_grad[4:], out=wh)

    boxes = np.empty((4, 2 * p))
    boxes[:, :p] = offsets[:4]
    signed = _inner_signed(offsets)
    np.abs(signed, out=boxes[:, p:])
    iou, d_iou = _offset_iou(boxes, t_boxes, t_area)
    iou_c = np.subtract(1.0, iou, out=iou)
    reg_sum = float(bce_vals.sum() + weights.reg_l1_weight * sl1_ltrb + iou_c[:p].sum())
    ori_sum = float(weights.ori_l1_weight * sl1_wh + iou_c[p:].sum())

    # d(1 - IoU) of the inner boxes: -d_inner * sign, a zero subgradient at a kink
    ltrb -= d_iou[:, :p]
    grad[:5] *= weights.reg_weight
    d_inner = d_iou[:, p:]
    d_inner *= np.sign(signed)
    wh += d_inner[:2] + d_inner[2:]
    wh *= weights.ori_weight
    d_inner *= weights.ori_weight
    ltrb -= d_inner
    grad /= norm
    return reg_sum, ori_sum, grad


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
        truth = _truth(targets.centerness[pos], targets.ltrb[pos], targets.wh[pos])
        offsets = np.concatenate([preds.ltrb[pos].T, preds.wh[pos].T])
        reg_sum, ori_sum, grad = _positive_terms(
            preds.centerness[pos], offsets, truth, weights, norm
        )
        centerness_grad[pos], ltrb_grad[pos], wh_grad[pos] = grad[0], grad[1:5].T, grad[5:].T
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
    # the parameters with entries: both group logits (or only y = 1's) and the positives'
    live = slice(0 if counts[0] else 1, None)
    truth, y1 = _truth(*truth), np.array([1])  # y1: the flat index of the y = 1 group

    def evaluate(params: np.ndarray):
        """Loss breakdown, parameter gradient and predictions at one point."""
        logits, reg = params[:2], params[2:].reshape(7, norm)
        scores = _sigmoid(logits)
        branch, score_grad = _focal_branch(scores, y1, weights.focal_alpha, weights.focal_beta, norm)
        cent, offsets = _sigmoid(reg[0]), np.exp(reg[1:])
        reg_sum, ori_sum, reg_grad = _positive_terms(cent, offsets, truth, weights, norm)
        # chain rule through the sigmoid / exp parameterizations
        grad = np.empty_like(params)
        grad[:2] = score_grad * scores * (1.0 - scores)
        chained = grad[2:].reshape(7, norm)
        np.multiply(reg_grad[0], cent, out=chained[0])
        chained[0] *= 1.0 - cent
        np.multiply(reg_grad[1:], offsets, out=chained[1:])
        breakdown = LossBreakdown.of(-_count_sum(counts, branch), reg_sum, ori_sum, norm, weights)
        return breakdown, grad, (scores, (cent, offsets))

    # y = 0 and y = 1 group logits; positives' centerness logit, log l t r b w h (7, P)
    params = np.zeros(2 + 7 * norm)
    breakdown, grad, preds = evaluate(params)
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
                cand = params - grad * trial
                np.clip(cand, -_RAW_BOUND, _RAW_BOUND, out=cand)
                result = evaluate(cand)
                if math.isfinite(result[0].total) and result[0].total <= breakdown.total:
                    accepted = not np.array_equal(cand[live], params[live])
                    params, (breakdown, grad, preds) = cand, result
                    step_size = trial
                    break
                trial *= 0.5
            # no step along the subgradient improves: the iteration is a
            # fixed point, so later steps would reproduce it exactly
            frozen = not accepted
        trajectory.append(breakdown)

    scores, (cent, offsets) = preds
    ltrb, wh = offsets[:4].T, offsets[4:].T
    decoded = quads_from_offsets(points, ltrb, wh)
    return trajectory, scores, (cent, ltrb, wh), decoded, scores[1] * cent
