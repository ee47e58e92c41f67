"""VOC-style AP / mAP over rotated-IoU matching.

Detections are matched per class in descending score order to the
unmatched ground-truth quad with the highest polygon IoU; matches below
the threshold are false positives, each ground truth matches at most
once, and difficult ground truth is ignored on both sides (it neither
counts toward recall nor turns a detection into a TP or FP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import UnknownCategory, UnknownClass
from .geometry import polygon_iou
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


def _match_class(
    class_id: int,
    entries: list[tuple[float, str, int, Detection]],
    gt: GtIndex,
    iou_thresh: float,
) -> ClassMatches:
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    matched: dict[str, set[int]] = {}
    flags = np.empty(len(entries), dtype=int)
    scores = np.empty(len(entries), dtype=float)
    for k, (score, image_id, _i, det) in enumerate(entries):
        scores[k] = score
        used = matched.setdefault(image_id, set())
        best_j = -1
        best_iou = 0.0
        best_difficult = False
        for j, obj in enumerate(gt.images.get(image_id, [])):
            if obj.class_id != class_id or j in used:
                continue
            iou = polygon_iou(det.quad, obj.quad)
            if iou > best_iou:
                best_iou = iou
                best_j = j
                best_difficult = obj.difficult
        if best_j >= 0 and best_iou >= iou_thresh:
            if best_difficult:
                # difficult ground truth absorbs matches without limit
                flags[k] = IGNORED
            else:
                used.add(best_j)
                flags[k] = TP
        else:
            flags[k] = FP
    return ClassMatches(class_id, scores, flags, gt.num_ground_truth(class_id))


def match_detections(
    dets_per_image: Mapping[str, Sequence[Detection]],
    gt: GtIndex,
    iou_thresh: float = 0.5,
) -> dict[int, ClassMatches]:
    """Greedy TP/FP matching per class across all images.

    Within a class, detections are visited in descending score (ties by
    image id, then input order); each one matches the unmatched
    same-class, same-image ground truth with the highest polygon IoU.
    An IoU at or above the threshold is a TP unless that ground truth is
    difficult, in which case the detection is ignored; anything else is
    a FP. The threshold must lie in [0, 1].
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"match IoU threshold must lie in [0, 1], got {iou_thresh}")
    num_classes = len(gt.classes)
    pool: dict[int, list[tuple[float, str, int, Detection]]] = {
        c: [] for c in range(1, num_classes + 1)
    }
    for image_id in sorted(dets_per_image):
        for i, det in enumerate(dets_per_image[image_id]):
            if not 1 <= det.class_id <= num_classes:
                raise UnknownClass(f"detection class id {det.class_id} outside table")
            pool[det.class_id].append((det.score, image_id, i, det))

    return {c: _match_class(c, entries, gt, iou_thresh) for c, entries in sorted(pool.items())}


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
