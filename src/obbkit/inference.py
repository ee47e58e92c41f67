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
    _hbb_bounds,
    _overlapping,
    polygon_iou_pairs,
    quad_arrays,
    quad_list,
    quads_from_offsets,
)
from .losses import PredictionBatch
from .targets import FeatureGridSpec


# Upper bound on the quad pairs rotated NMS tests for HBB overlap at once.
NMS_PAIRS_PER_BAND = 1 << 18
# Candidates per pyramid level kept for NMS, best fused scores first (FCOS).
PRE_NMS_TOP_N = 1000


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


def rows_by_image(image: np.ndarray, num_images: int) -> list[np.ndarray]:
    """Per image index 0..num_images-1, its row indices in row order."""
    order = np.argsort(image, kind="stable")
    bounds = np.searchsorted(image[order], np.arange(num_images + 1)).tolist()
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


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

    def image_rows(self) -> list[np.ndarray]:
        """Per image id, its row indices in input order."""
        return rows_by_image(self.image, len(self.image_ids))


@dataclass(frozen=True)
class InferenceConfig:
    """Post-processing knobs.

    The score threshold applies to the fused class x centerness score.
    nms_iou_threshold=1.0 keeps every candidate, since polygon IoU never
    exceeds 1.
    """

    score_threshold: float = 0.05
    nms_iou_threshold: float = 0.5
    max_detections: int = 2000

    def __post_init__(self):
        if not (0.0 <= self.score_threshold <= 1.0):
            raise ValueError("score_threshold must lie in [0, 1]")
        if not (0.0 <= self.nms_iou_threshold <= 1.0):
            raise ValueError("nms_iou_threshold must lie in [0, 1]")
        if self.max_detections < 0:
            raise ValueError("max_detections must be >= 0")


def _nms_keep(
    quads: np.ndarray, classes: np.ndarray, scores: np.ndarray, iou_thresh: float
) -> np.ndarray:
    """Indices that per-class greedy NMS keeps, in visit order.

    Rows are visited in descending score, ties broken by row index; one is
    kept iff its IoU with every kept row of the same class stays at or
    below the threshold, so a threshold of 1 keeps every row without
    computing any IoU.

    The IoU pairs are the lower triangle of one block over the
    visit-ordered quads, restricted to same-class pairs whose horizontal
    boxes overlap (all others count as IoU 0 and are never clipped), with
    the later (lower-scored) row as the first argument of
    :func:`polygon_iou`. The block is walked in bands of rows so that
    memory stays bounded. Rows of earlier bands are final when a band
    starts, so pairs with an earlier row that is already suppressed are
    dropped before they are clipped: they can suppress nothing.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"NMS IoU threshold must lie in [0, 1], got {iou_thresh}")
    order = np.argsort(-scores, kind="stable")
    if iou_thresh == 1.0:
        return order
    quads, classes = quads[order], classes[order]
    bounds = _hbb_bounds(quads)
    kept = np.ones(len(order), dtype=bool)
    band = max(1, NMS_PAIRS_PER_BAND // max(len(order), 1))
    for top in range(0, len(order), band):
        bottom = min(top + band, len(order))
        candidates = _overlapping(
            [v[top:bottom, None] for v in bounds], [v[:bottom] for v in bounds]
        )
        candidates &= classes[top:bottom, None] == classes[None, :bottom]
        candidates[:, :top] &= kept[:top]
        candidates[:, top:] &= np.tri(bottom - top, k=-1, dtype=bool)
        rows, cols = np.nonzero(candidates)
        rows += top
        over = polygon_iou_pairs(quads[rows], quads[cols]) > iou_thresh
        live = kept[:bottom].tolist()  # a list: the loop below reads it once per pair
        # pairs come row by row, so an earlier row is final before it is read
        for row, col in zip(rows[over].tolist(), cols[over].tolist()):
            if live[col]:
                live[row] = False
        kept[top:bottom] = live[top:]
    return order[kept]


def nms_per_image(dets: DetectionSet, iou_thresh: float) -> DetectionSet:
    """Per-class greedy suppression by polygon IoU within each image.

    An image's detections are visited in descending score (ties broken by
    input order); one is kept iff its IoU with every kept detection of the
    same class stays at or below the threshold, so a threshold of 1 keeps
    every detection. The kept rows come image by image in image_ids
    order, each image's in visit order. The threshold must lie in [0, 1].
    """
    keep = [
        rows[_nms_keep(dets.quads[rows], dets.class_id[rows], dets.score[rows], iou_thresh)]
        for rows in dets.image_rows()
    ]
    return dets.take(np.concatenate(keep) if keep else np.zeros(0, dtype=int))


def _in_unit_interval(values: np.ndarray) -> bool:
    # written so that NaN fails the test too
    return bool(((values >= 0.0) & (values <= 1.0)).all())


def run_inference(
    preds_per_level: Sequence[PredictionBatch],
    specs: Sequence[FeatureGridSpec],
    config: InferenceConfig = InferenceConfig(),
) -> list[Detection]:
    """Full post-processing over all pyramid levels.

    Each batch holds row-major (y_s outer, x_s inner) locations for its
    grid; every class score and centerness must lie in [0, 1]. Every
    (location, class) pair whose fused score (class score x centerness)
    clears the threshold is a candidate. Per level, the PRE_NMS_TOP_N
    highest-scored candidates (ties broken by candidate order) are decoded
    to quads around their grid points; candidates in (level, location,
    class) order then pass through rotated NMS, and the best
    max_detections survive. A decode error (an inverted or non-finite box,
    NaN wh) raises ValueError only at a location that is decoded.
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
        loc, cls = np.nonzero(fused >= config.score_threshold)
        score = fused[loc, cls]
        if len(score) > PRE_NMS_TOP_N:
            # the best scores, ties to the earlier candidate, back in candidate order
            top = np.sort(np.argsort(-score, kind="stable")[:PRE_NMS_TOP_N])
            loc, cls, score = loc[top], cls[top], score[top]
        y_s, x_s = np.divmod(loc, spec.width)
        # grid_to_image for every candidate at once
        points = spec.stride // 2 + np.stack([x_s, y_s], axis=1) * spec.stride
        quads.append(quads_from_offsets(points.astype(float), batch.ltrb[loc], batch.wh[loc]))
        classes.append(cls + 1)
        scores.append(score)
    if not quads:
        return []
    quads_all, classes_all, scores_all = (np.concatenate(x) for x in (quads, classes, scores))
    keep = _nms_keep(quads_all, classes_all, scores_all, config.nms_iou_threshold)
    keep = keep[: config.max_detections]
    return [
        Detection(quad, class_id, score)
        for quad, class_id, score in zip(
            quad_list(quads_all[keep]), classes_all[keep].tolist(), scores_all[keep].tolist()
        )
    ]
