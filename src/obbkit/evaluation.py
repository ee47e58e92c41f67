"""VOC-style AP / mAP over rotated-IoU matching.

Detections are matched per class in descending score order with the
rule of VOC and the DOTA devkit (``voc_eval``): each detection takes the
same-class, same-image ground-truth quad with the highest polygon IoU,
matched or not. An IoU strictly above the threshold on an unmatched
ground truth is a true positive and claims it; on an already-matched one
it is a false positive, and so is a best IoU at or below the threshold.
Difficult ground truth is ignored on both sides: it never counts toward
recall, and a detection whose best match it is counts as neither TP nor
FP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import UnknownCategory, UnknownClass
from .geometry import hbb_overlap, polygon_iou_pairs, quad_arrays
from .inference import Detection
from .targets import GroundTruthObject

MODE_11POINT = "11point"
MODE_ALLPOINT = "allpoint"

# Per-detection match flags.
TP = 1
FP = 0
IGNORED = -1


@dataclass(frozen=True)
class ClassTable:
    """Dense 1-based class ids <-> category names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate category names")

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise UnknownCategory(f"unknown category {name!r}") from None

    def name_of(self, class_id: int) -> str:
        if not 1 <= class_id <= len(self.names):
            raise UnknownClass(f"class id {class_id} outside table of {len(self.names)}")
        return self.names[class_id - 1]

    def __len__(self) -> int:
        return len(self.names)


@dataclass
class GtIndex:
    """Ground-truth objects grouped by image id, plus the class table."""

    images: dict[str, list[GroundTruthObject]]
    classes: ClassTable

    def __post_init__(self):
        for image_id, objs in self.images.items():
            for obj in objs:
                if not 1 <= obj.class_id <= len(self.classes):
                    raise UnknownClass(
                        f"image {image_id}: class id {obj.class_id} outside table"
                    )

    def num_ground_truth(self, class_id: int) -> int:
        total = 0
        for objs in self.images.values():
            for obj in objs:
                if obj.class_id == class_id and not obj.difficult:
                    total += 1
        return total


@dataclass
class ClassMatches:
    """Score-sorted detections of one class with their match flags."""

    class_id: int
    scores: np.ndarray
    flags: np.ndarray  # TP / FP / IGNORED per detection
    num_gt: int  # non-difficult ground truth count


@dataclass
class PRCurve:
    """Cumulative precision/recall sweep over score-sorted detections."""

    recalls: np.ndarray
    precisions: np.ndarray
    num_gt: int
    tp_total: int
    fp_total: int


@dataclass
class APReport:
    per_class: dict[str, float]
    mean_ap: float
    iou_threshold: float
    mode: str


def _match_flags(
    dets_per_image: Mapping[str, Sequence[Detection]], gt: GtIndex, iou_thresh: float
) -> dict[str, np.ndarray]:
    """TP / FP / IGNORED of every detection, per image in input order.

    Within one image and class the visit order is descending score, ties
    by input order. One batched call computes the IoU of every
    same-class (detection, ground truth) pair whose horizontal boxes
    overlap; every other pair counts as IoU 0.
    """
    orders: dict[str, list[int]] = {}
    det_quads, gt_quads, pair_det, pair_gt = [], [], [], []
    difficult: list[bool] = []
    num_dets = 0
    for image_id, dets in dets_per_image.items():
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        objs = gt.images.get(image_id, [])
        if order and objs:
            dq = quad_arrays([dets[i].quad for i in order])
            gq = quad_arrays([obj.quad for obj in objs])
            det_class = np.array([dets[i].class_id for i in order])
            same = det_class[:, None] == np.array([obj.class_id for obj in objs])
            k, g = np.nonzero(hbb_overlap(dq, gq) & same)
            det_quads.append(dq[k])
            gt_quads.append(gq[g])
            pair_det.append(k + num_dets)
            pair_gt.append(g + len(difficult))
        orders[image_id] = order
        num_dets += len(order)
        difficult.extend(obj.difficult for obj in objs)

    flags = np.full(num_dets, FP)
    if pair_det:
        k, g = np.concatenate(pair_det), np.concatenate(pair_gt)
        iou = polygon_iou_pairs(np.concatenate(det_quads), np.concatenate(gt_quads))
        # each detection's best ground truth, the first one on a tie
        best = np.lexsort((g, -iou, k))
        best = best[np.diff(k[best], prepend=-1) != 0]
        k, g, hit = k[best], g[best], iou[best] > iou_thresh
        hard = np.array(difficult)[g]
        flags[k[hit & hard]] = IGNORED
        # k ascends in visit order, so the first claim on a ground truth wins
        claims = np.flatnonzero(hit & ~hard)
        _, first = np.unique(g[claims], return_index=True)
        flags[k[claims[first]]] = TP

    out: dict[str, np.ndarray] = {}
    start = 0
    for image_id, order in orders.items():
        out[image_id] = np.empty(len(order), dtype=int)
        out[image_id][order] = flags[start : start + len(order)]
        start += len(order)
    return out


def match_detections(
    dets_per_image: Mapping[str, Sequence[Detection]],
    gt: GtIndex,
    iou_thresh: float = 0.5,
) -> dict[int, ClassMatches]:
    """Greedy TP/FP matching per class across all images.

    Within a class, detections are visited in descending score (ties by
    image id, then input order); each one takes the same-class,
    same-image ground truth with the highest polygon IoU (the first on
    a tie), whether matched before or not. An IoU strictly above the
    threshold is a TP if that ground truth is still unmatched, ignored
    if it is difficult, and a FP if it was matched already; a best IoU
    at or below the threshold, or no same-class ground truth, is a FP.
    The threshold must lie in [0, 1].
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"match IoU threshold must lie in [0, 1], got {iou_thresh}")
    num_classes = len(gt.classes)
    pool: dict[int, list[tuple[float, str, int]]] = {c: [] for c in range(1, num_classes + 1)}
    for image_id in sorted(dets_per_image):
        for i, det in enumerate(dets_per_image[image_id]):
            if not 1 <= det.class_id <= num_classes:
                raise UnknownClass(f"detection class id {det.class_id} outside table")
            pool[det.class_id].append((det.score, image_id, i))

    flags = _match_flags(dets_per_image, gt, iou_thresh)
    matches = {}
    for c, entries in sorted(pool.items()):
        entries.sort(key=lambda e: (-e[0], e[1], e[2]))
        matches[c] = ClassMatches(
            c,
            np.array([score for score, _, _ in entries], dtype=float),
            np.array([flags[image_id][i] for _, image_id, i in entries], dtype=int),
            gt.num_ground_truth(c),
        )
    return matches


def pr_curve(flags: Sequence[int], scores: Sequence[float], num_gt: int) -> PRCurve:
    """Precision/recall points from score-sorted match flags.

    Ignored detections drop out of the sweep. With zero ground truth
    the curve is empty (and AP is defined as 0).
    """
    if num_gt < 0:
        raise ValueError("num_gt must be >= 0")
    flags = np.asarray(flags, dtype=int)
    scores = np.asarray(scores, dtype=float)
    if flags.shape != scores.shape:
        raise ValueError("flags and scores must be aligned")
    order = np.argsort(-scores, kind="stable")
    flags = flags[order]
    flags = flags[flags != IGNORED]
    if flags.size == 0 or num_gt == 0:
        return PRCurve(np.empty(0), np.empty(0), num_gt, 0, 0)
    tp_cum = np.cumsum(flags == TP)
    fp_cum = np.cumsum(flags == FP)
    recalls = tp_cum / num_gt
    precisions = tp_cum / np.maximum(tp_cum + fp_cum, 1)
    return PRCurve(recalls, precisions, num_gt, int(tp_cum[-1]), int(fp_cum[-1]))


def average_precision(curve: PRCurve, mode: str = MODE_11POINT) -> float:
    """AP from a PR curve.

    11-point mode averages the maximum precision at recall >= 0, 0.1,
    ..., 1.0; all-point mode integrates the precision envelope over
    recall.
    """
    if curve.recalls.size == 0:
        return 0.0
    if mode == MODE_11POINT:
        ap = 0.0
        for t in np.arange(0.0, 1.1, 0.1):
            mask = curve.recalls >= t - 1e-12
            ap += float(curve.precisions[mask].max()) if mask.any() else 0.0
        return ap / 11.0
    if mode == MODE_ALLPOINT:
        mrec = np.concatenate(([0.0], curve.recalls, [1.0]))
        mpre = np.concatenate(([0.0], curve.precisions, [0.0]))
        mpre = np.maximum.accumulate(mpre[::-1])[::-1]
        changed = np.flatnonzero(mrec[1:] != mrec[:-1])
        return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))
    raise ValueError(f"unknown AP mode {mode!r}")


def evaluate(
    dets_per_image: Mapping[str, Sequence[Detection]],
    gt: GtIndex,
    iou_threshold: float = 0.5,
    mode: str = MODE_11POINT,
) -> APReport:
    """Per-class AP and mAP at one rotated-IoU threshold.

    Classes with no non-difficult ground truth are reported with AP 0
    but excluded from the mAP mean.
    """
    matches = match_detections(dets_per_image, gt, iou_threshold)
    per_class: dict[str, float] = {}
    aps: list[float] = []
    for class_id in range(1, len(gt.classes) + 1):
        m = matches[class_id]
        curve = pr_curve(m.flags, m.scores, m.num_gt)
        ap = average_precision(curve, mode)
        per_class[gt.classes.name_of(class_id)] = ap
        if m.num_gt > 0:
            aps.append(ap)
    mean_ap = float(np.mean(aps)) if aps else 0.0
    return APReport(per_class, mean_ap, iou_threshold, mode)
