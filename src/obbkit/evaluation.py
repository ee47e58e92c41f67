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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ShapeMismatch, UnknownCategory, UnknownClass
from .geometry import _band_pairs, polygon_iou_pairs, quad_arrays, quad_list
from .inference import DetectionSet, check_image_index
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


def _first_outside(class_id: np.ndarray, image: np.ndarray, classes: ClassTable) -> int | None:
    """The first row (by image, then row) whose class id is outside the table, or None."""
    outside = np.flatnonzero((class_id < 1) | (class_id > len(classes)))
    return outside[np.argmin(image[outside])] if len(outside) else None


@dataclass(frozen=True, eq=False)
class GtIndex:
    """Ground truth of many images as parallel arrays, plus the class table.

    Row k is one object: canonical vertices quads[k] (N, 4, 2), 1-based
    class_id[k], difficult[k], and image[k], an index into image_ids
    (sorted, unique; an image may have no rows). An image's file order is
    the order of its rows. :meth:`from_mapping` and :attr:`images` convert
    from and to GroundTruthObject lists per image id.
    """

    image_ids: tuple[str, ...]
    image: np.ndarray
    quads: np.ndarray
    class_id: np.ndarray
    difficult: np.ndarray
    classes: ClassTable

    def __post_init__(self):
        n = len(self.image)
        if self.quads.shape != (n, 4, 2) or len(self.class_id) != n or len(self.difficult) != n:
            raise ShapeMismatch("ground truth arrays are not aligned")
        check_image_index(self.image_ids, self.image)
        first = _first_outside(self.class_id, self.image, self.classes)
        if first is not None:
            image_id = self.image_ids[self.image[first]]
            raise UnknownClass(f"image {image_id}: class id {self.class_id[first]} outside table")

    @classmethod
    def from_mapping(
        cls, images: Mapping[str, Sequence[GroundTruthObject]], classes: ClassTable
    ) -> "GtIndex":
        image_ids = tuple(sorted(images))
        objs = [obj for image_id in image_ids for obj in images[image_id]]
        return cls(
            image_ids,
            np.repeat(np.arange(len(image_ids)), [len(images[i]) for i in image_ids]),
            quad_arrays([obj.quad for obj in objs]),
            np.array([obj.class_id for obj in objs], dtype=int),
            np.array([obj.difficult for obj in objs], dtype=bool),
            classes,
        )

    @cached_property
    def images(self) -> dict[str, list[GroundTruthObject]]:
        """GroundTruthObject lists by image id, each in file order (built on first use)."""
        out: dict[str, list[GroundTruthObject]] = {image_id: [] for image_id in self.image_ids}
        for image, quad, class_id, difficult in zip(
            self.image.tolist(), quad_list(self.quads), self.class_id.tolist(), self.difficult.tolist()
        ):
            out[self.image_ids[image]].append(GroundTruthObject(quad, class_id, difficult))
        return out

    def num_ground_truth(self, class_id: int) -> int:
        return int(((self.class_id == class_id) & ~self.difficult).sum())


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
    tp: dict[str, int]  # TP detections per class; ignored ones count in neither tp nor fp
    fp: dict[str, int]


def _match_flags(dets: DetectionSet, gt: GtIndex, iou_thresh: float) -> np.ndarray:
    """TP / FP / IGNORED of every detection row.

    Detections are visited in descending score, ties by row. The
    candidate pairs come from :func:`geometry._band_pairs`, with the
    ground truth as partners and (image, class) keys as groups (image -1
    for a detection whose image has no annotation file). One batched call
    computes the IoU of every pair of every band; every other pair counts
    as IoU 0.
    """
    visit = np.argsort(-dets.score, kind="stable")
    gt_image = {image_id: i for i, image_id in enumerate(gt.image_ids)}
    det_image = np.array([gt_image.get(i, -1) for i in dets.image_ids], dtype=int)
    ids, rank = np.unique(np.concatenate([gt.class_id, dets.class_id[visit]]), return_inverse=True)
    groups = np.concatenate([gt.image, det_image[dets.image[visit]]]) * len(ids) + rank
    n_gt, quads = len(gt.image), dets.quads[visit]
    bands = _band_pairs(quads, groups[n_gt:], (gt.quads, groups[:n_gt]))
    pairs = [(np.zeros(0, dtype=int),) * 2] + [band[2:] for band in bands]
    k, g = (np.concatenate(x) for x in zip(*pairs))
    iou = polygon_iou_pairs(quads[k], gt.quads[g])

    flags = np.full(len(visit), FP)
    # each detection's best ground truth, the first one on a tie
    best = np.lexsort((g, -iou, k))
    best = best[np.diff(k[best], prepend=-1) != 0]
    k, g, hit = k[best], g[best], iou[best] > iou_thresh
    hard = gt.difficult[g]
    flags[k[hit & hard]] = IGNORED
    # k ascends in visit order, so the first claim on a ground truth wins
    claims = np.flatnonzero(hit & ~hard)
    _, first = np.unique(g[claims], return_index=True)
    flags[k[claims[first]]] = TP

    out = np.empty(len(dets), dtype=int)
    out[visit] = flags
    return out


def check_detection_classes(dets: DetectionSet, classes: ClassTable) -> None:
    """Raise UnknownClass for the first detection (by image, then row) outside the table."""
    first = _first_outside(dets.class_id, dets.image, classes)
    if first is not None:
        raise UnknownClass(f"detection class id {dets.class_id[first]} outside table")


def match_detections(
    dets: DetectionSet,
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
    check_detection_classes(dets, gt.classes)

    flags = _match_flags(dets, gt, iou_thresh)
    ranked = np.lexsort((np.arange(len(dets)), dets.image, -dets.score))
    matches = {}
    for c in range(1, len(gt.classes) + 1):
        sel = ranked[dets.class_id[ranked] == c]
        matches[c] = ClassMatches(c, dets.score[sel], flags[sel], gt.num_ground_truth(c))
    return matches


def pr_curve(flags: Sequence[int], scores: Sequence[float], num_gt: int) -> PRCurve:
    """Precision/recall points from score-sorted match flags.

    Ignored detections drop out of the sweep and out of the TP/FP totals.
    With zero ground truth the curve is empty (and AP is defined as 0),
    while the totals still count every TP and FP.
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
    totals = int(np.count_nonzero(flags == TP)), int(np.count_nonzero(flags == FP))
    if flags.size == 0 or num_gt == 0:
        return PRCurve(np.empty(0), np.empty(0), num_gt, *totals)
    tp_cum = np.cumsum(flags == TP)
    fp_cum = np.cumsum(flags == FP)
    recalls = tp_cum / num_gt
    precisions = tp_cum / np.maximum(tp_cum + fp_cum, 1)
    return PRCurve(recalls, precisions, num_gt, *totals)


def average_precision(curve: PRCurve, mode: str = MODE_11POINT) -> float:
    """AP from a PR curve.

    11-point mode averages the maximum precision at recall >= 0, 0.1,
    ..., 1.0; all-point mode integrates the precision envelope over
    recall. The recalls never decrease (as :func:`pr_curve` makes them),
    so the points at recall >= t are a suffix of the curve.
    """
    if curve.recalls.size == 0:
        return 0.0
    if mode == MODE_11POINT:
        # the maximum precision of every suffix, and 0 for the empty one
        suffix_max = np.append(np.maximum.accumulate(curve.precisions[::-1])[::-1], 0.0)
        first = np.searchsorted(curve.recalls, np.arange(0.0, 1.1, 0.1) - 1e-12)
        ap = 0.0
        for precision in suffix_max[first].tolist():
            ap += precision
        return ap / 11.0
    if mode == MODE_ALLPOINT:
        mrec = np.concatenate(([0.0], curve.recalls, [1.0]))
        mpre = np.concatenate(([0.0], curve.precisions, [0.0]))
        mpre = np.maximum.accumulate(mpre[::-1])[::-1]
        changed = np.flatnonzero(mrec[1:] != mrec[:-1])
        return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))
    raise ValueError(f"unknown AP mode {mode!r}")


def evaluate(
    dets: DetectionSet,
    gt: GtIndex,
    iou_threshold: float = 0.5,
    mode: str = MODE_11POINT,
) -> APReport:
    """Per-class AP, TP and FP counts, and mAP at one rotated-IoU threshold.

    Classes with no non-difficult ground truth are reported with AP 0
    but excluded from the mAP mean.
    """
    matches = match_detections(dets, gt, iou_threshold)
    curves = {gt.classes.name_of(c): pr_curve(m.flags, m.scores, m.num_gt)
              for c, m in matches.items()}
    per_class = {name: average_precision(curve, mode) for name, curve in curves.items()}
    aps = [per_class[name] for name, curve in curves.items() if curve.num_gt > 0]
    return APReport(
        per_class, float(np.mean(aps)) if aps else 0.0, iou_threshold, mode,
        {name: curve.tp_total for name, curve in curves.items()},
        {name: curve.fp_total for name, curve in curves.items()},
    )
