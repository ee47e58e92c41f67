"""Turn raw per-location predictions into final detections.

Class scores are multiplied by centerness, thresholded, capped to the
best PRE_NMS_TOP_N candidates per level, decoded to oriented quads around
their grid locations, and cleaned up by per-class greedy rotated NMS. The
whole path runs on arrays; Detection objects are built only for the
detections that survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ShapeMismatch
from .geometry import (
    Quad,
    _band_pairs,
    polygon_iou_pairs,
    quad_arrays,
    quad_list,
    quads_from_offsets,
)
from .losses import PredictionBatch
from .targets import FeatureGridSpec, _grid_coords


# Batched clipping rounds per NMS band before the undecided rows fall back
# to one clip of all their pairs.
_NMS_ROUNDS = 4
# run_inference's fixed post-processing: the fused score a candidate must
# reach, the candidates per pyramid level kept for NMS (best fused scores
# first, as in FCOS), the NMS IoU threshold and the detections returned.
SCORE_THRESHOLD = 0.05
PRE_NMS_TOP_N = 1000
NMS_IOU_THRESHOLD = 0.5
MAX_DETECTIONS = 2000


@dataclass(frozen=True)
class Detection:
    """A decoded detection: canonical quad, 1-based class id, fused score."""

    quad: Quad
    class_id: int
    score: float

    def __post_init__(self):
        if self.class_id < 1:
            raise ValueError("class_id must be >= 1")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


def check_image_index(image_ids: Sequence[str], image: np.ndarray) -> None:
    """Raise ValueError unless image_ids is sorted and unique and every
    entry of image indexes into it."""
    if list(image_ids) != sorted(set(image_ids)):
        raise ValueError("image_ids must be sorted and unique")
    if len(image) and not 0 <= image.min() <= image.max() < len(image_ids):
        raise ValueError("image index outside image_ids")


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """Detections of many images as parallel arrays (struct of arrays).

    Row k is one detection: canonical vertices quads[k] (N, 4, 2), 1-based
    class_id[k], score[k], and image[k], an index into image_ids (sorted,
    unique). An image's input order is the order of its rows.
    :meth:`from_mapping` and :meth:`per_image` convert from and to
    Detection lists per image id.
    """

    image_ids: tuple[str, ...]
    image: np.ndarray
    quads: np.ndarray
    class_id: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        n = len(self.image)
        if self.quads.shape != (n, 4, 2) or len(self.class_id) != n or len(self.score) != n:
            raise ShapeMismatch("detection set arrays are not aligned")
        check_image_index(self.image_ids, self.image)

    def __len__(self) -> int:
        return len(self.image)

    @classmethod
    def from_mapping(cls, dets_per_image: Mapping[str, Sequence[Detection]]) -> "DetectionSet":
        image_ids = tuple(sorted(dets_per_image))
        dets = [d for image_id in image_ids for d in dets_per_image[image_id]]
        counts = [len(dets_per_image[image_id]) for image_id in image_ids]
        return cls(
            image_ids,
            np.repeat(np.arange(len(image_ids)), counts),
            quad_arrays([d.quad for d in dets]),
            np.array([d.class_id for d in dets], dtype=int),
            np.array([d.score for d in dets], dtype=float),
        )

    def per_image(self) -> dict[str, list[Detection]]:
        """Detection lists by image id, each in input order."""
        out: dict[str, list[Detection]] = {image_id: [] for image_id in self.image_ids}
        for image, quad, class_id, score in zip(
            self.image.tolist(), quad_list(self.quads), self.class_id.tolist(), self.score.tolist()
        ):
            out[self.image_ids[image]].append(Detection(quad, class_id, score))
        return out

    def take(self, rows: np.ndarray) -> "DetectionSet":
        """The given rows, in the given order, over the same image ids."""
        return DetectionSet(
            self.image_ids, self.image[rows], self.quads[rows], self.class_id[rows], self.score[rows]
        )


def _nms_keep(
    quads: np.ndarray, groups: np.ndarray, scores: np.ndarray, iou_thresh: float
) -> np.ndarray:
    """Indices that per-group greedy NMS keeps, in visit order.

    A group is a class for :func:`run_inference` and an (image, class)
    key for :func:`nms_per_image`. Rows are visited in descending score,
    ties broken by row index; one is kept iff its IoU with every kept row
    of the same group stays at or below the threshold, so a threshold of
    1 keeps every row without computing any IoU. Only same-group pairs
    whose horizontal boxes overlap can suppress (all others count as IoU
    0), and a pair is clipped with the later (lower-scored) row as the
    first argument of :func:`polygon_iou_pairs` only once its earlier row
    is known to be kept. The threshold must lie in [0, 1], rows or not.

    Candidate pairs come band by band, in visit order, from
    :func:`geometry._band_pairs` (each band expands at most
    max(PAIRS_PER_BAND, largest group) pairs). Rows of earlier bands are
    final when a band starts, and a pair with a suppressed earlier row is
    never clipped. Within a band, each of up to _NMS_ROUNDS rounds clips, in
    one batch, the pairs not yet clipped whose earlier row is kept and
    whose later row is undecided; a row with an IoU above the threshold
    is suppressed, then every undecided row left without an undecided
    earlier partner is kept. Each round decides at least the first
    undecided row. Rows still undecided after the rounds fall back to one
    clip of all their remaining pairs and a walk over the pairs above the
    threshold in visit order, so a band makes at most _NMS_ROUNDS + 1
    kernel calls.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"NMS IoU threshold must lie in [0, 1], got {iou_thresh}")
    order = np.argsort(-scores, kind="stable")
    if iou_thresh == 1.0:
        return order
    quads = quads[order]
    kept = np.zeros(len(order), dtype=bool)
    live = np.ones(len(order), dtype=bool)  # kept or undecided
    for top, bottom, later, earlier in _band_pairs(quads, groups[order]):
        _resolve_band(quads, later, earlier, top, bottom, kept, live, iou_thresh)
    return order[kept]


def _resolve_band(
    quads: np.ndarray, later: np.ndarray, earlier: np.ndarray, top: int, bottom: int,
    kept: np.ndarray, live: np.ndarray, iou_thresh: float,
) -> None:
    """Decide rows top..bottom-1 in place: kept, or not live (suppressed)."""
    clipped = np.zeros(len(later), dtype=bool)
    for _ in range(_NMS_ROUNDS):
        todo = np.flatnonzero(kept[earlier] & ~kept[later] & live[later] & ~clipped)
        if len(todo):
            clipped[todo] = True
            over = polygon_iou_pairs(quads[later[todo]], quads[earlier[todo]]) > iou_thresh
            live[later[todo[over]]] = False
        undecided = live[top:bottom] & ~kept[top:bottom]
        undecided[later[live[earlier] & ~kept[earlier]] - top] = False  # still waiting
        kept[top:bottom] |= undecided
        if not (live[top:bottom] & ~kept[top:bottom]).any():
            return
    todo = np.flatnonzero(live[earlier] & live[later] & ~kept[later] & ~clipped)
    over = todo[polygon_iou_pairs(quads[later[todo]], quads[earlier[todo]]) > iou_thresh]
    alive = live[:bottom].tolist()  # a list: the loop below reads it once per pair
    # pairs come row by row, so an earlier row is final before it is read
    for row, col in zip(later[over].tolist(), earlier[over].tolist()):
        if alive[col]:
            alive[row] = False
    live[top:bottom] = alive[top:]
    kept[top:bottom] = live[top:bottom]


def nms_per_image(dets: DetectionSet, iou_thresh: float) -> DetectionSet:
    """Per-class greedy suppression by polygon IoU within each image.

    An image's detections are visited in descending score (ties broken by
    input order); one is kept iff its IoU with every kept detection of the
    same class stays at or below the threshold, so a threshold of 1 keeps
    every detection. The kept rows come image by image in image_ids
    order, each image's in visit order. The threshold must lie in [0, 1].

    All images go through one :func:`_nms_keep` call whose groups are
    (image, class) keys, so boxes of different images never meet: the
    candidate pairs come in bands from :func:`geometry._band_pairs` and
    are clipped in a few batched rounds once their earlier row is kept.
    """
    classes, rank = np.unique(dets.class_id, return_inverse=True)
    keep = _nms_keep(dets.quads, dets.image * len(classes) + rank, dets.score, iou_thresh)
    return dets.take(keep[np.argsort(dets.image[keep], kind="stable")])


def _in_unit_interval(values: np.ndarray) -> bool:
    # min and max propagate NaN, so NaN fails the test too
    return values.size == 0 or bool(values.min() >= 0.0 and values.max() <= 1.0)


def run_inference(
    preds_per_level: Sequence[PredictionBatch],
    specs: Sequence[FeatureGridSpec],
) -> list[Detection]:
    """Full post-processing over all pyramid levels.

    Each batch holds row-major (y_s outer, x_s inner) locations for its
    grid; every class score and centerness must lie in [0, 1]. Every
    (location, class) pair whose fused score (class score x centerness)
    reaches SCORE_THRESHOLD is a candidate. Per level, the PRE_NMS_TOP_N
    highest-scored candidates (ties broken by candidate order) are decoded
    to quads around their grid points; candidates in (level, location,
    class) order then pass through rotated NMS at NMS_IOU_THRESHOLD, and
    the best MAX_DETECTIONS survive. A decode error (an inverted or
    non-finite box, NaN wh) raises ValueError only at a location that is
    decoded.
    """
    if len(preds_per_level) != len(specs):
        raise ShapeMismatch(f"{len(preds_per_level)} batches vs {len(specs)} grid specs")
    quads, classes, scores = [], [], []
    for batch, spec in zip(preds_per_level, specs):
        if batch.num_locations != spec.width * spec.height:
            raise ShapeMismatch(
                f"batch of {batch.num_locations} locations on a "
                f"{spec.width}x{spec.height} grid"
            )
        if not (_in_unit_interval(batch.class_scores) and _in_unit_interval(batch.centerness)):
            raise ValueError("scores must lie in [0, 1]")
        fused = batch.class_scores * batch.centerness[:, None]
        # flat (location, class) indices of the candidates, in C order
        hit = np.flatnonzero(fused >= SCORE_THRESHOLD)
        loc, cls = np.divmod(hit, batch.num_classes)
        score = fused.ravel()[hit]
        if len(score) > PRE_NMS_TOP_N:
            # the best scores, ties at the cut to the earlier candidates, in candidate order
            kth = np.partition(score, -PRE_NMS_TOP_N)[-PRE_NMS_TOP_N]
            better, tied = score > kth, score == kth
            room = PRE_NMS_TOP_N - np.count_nonzero(better)
            top = np.flatnonzero(better | (tied & (np.cumsum(tied) <= room)))
            loc, cls, score = loc[top], cls[top], score[top]
        y_s, x_s = np.divmod(loc, spec.width)
        px, py = _grid_coords(spec)
        points = np.stack([px[x_s], py[y_s]], axis=1)
        quads.append(quads_from_offsets(points, batch.ltrb[loc], batch.wh[loc]))
        classes.append(cls + 1)
        scores.append(score)
    if not quads:
        return []
    quads_all, classes_all, scores_all = (np.concatenate(x) for x in (quads, classes, scores))
    keep = _nms_keep(quads_all, classes_all, scores_all, NMS_IOU_THRESHOLD)[:MAX_DETECTIONS]
    return [
        Detection(quad, class_id, score)
        for quad, class_id, score in zip(
            quad_list(quads_all[keep]), classes_all[keep].tolist(), scores_all[keep].tolist()
        )
    ]
