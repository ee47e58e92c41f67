"""Turn raw per-location predictions into final detections.

Class scores are multiplied by centerness, thresholded, decoded to
oriented quads around their grid locations, and cleaned up by per-class
greedy rotated NMS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch
from .geometry import Quad, hbb_overlap, polygon_iou_pairs, quad_arrays, quad_from_offsets
from .losses import PredictionBatch
from .targets import FeatureGridSpec, grid_to_image


# Upper bound on the quad pairs rotated_nms tests for HBB overlap at once.
NMS_PAIRS_PER_BAND = 1 << 18


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


def fuse_scores(class_score: float, centerness_score: float) -> float:
    """Final confidence: classification score times centerness."""
    if not (0.0 <= class_score <= 1.0 and 0.0 <= centerness_score <= 1.0):
        raise ValueError("scores must lie in [0, 1]")
    return class_score * centerness_score


def decode_location(
    spec: FeatureGridSpec,
    x_s: int,
    y_s: int,
    ltrb: Sequence[float],
    wh: Sequence[float],
) -> Quad:
    """Decode one grid location's offsets to an oriented quad.

    The grid index maps to an image point, the ltrb offsets span the
    surrounding HBB, and (w, h), clamped into the box extents, pin the
    orientation.
    """
    point = grid_to_image(spec, x_s, y_s)
    return quad_from_offsets(point, ltrb, wh)


def rotated_nms(dets: Sequence[Detection], iou_thresh: float) -> list[Detection]:
    """Per-class greedy suppression by polygon IoU.

    Detections are visited in descending score (ties broken by input
    index); one is kept iff its IoU with every kept detection of the
    same class stays at or below the threshold, so a threshold of 1
    keeps every detection without computing any IoU. Output is in
    visit order, so scores are non-increasing. The threshold must lie
    in [0, 1].

    The IoU pairs are the lower triangle of one block over the
    visit-ordered quads, restricted to same-class pairs whose horizontal
    boxes overlap (all others count as IoU 0 and are never clipped),
    with the later (lower-scored) detection as the first argument of
    :func:`polygon_iou`. The block is walked in bands of rows so that
    memory stays bounded.
    """
    if not 0.0 <= iou_thresh <= 1.0:
        raise ValueError(f"NMS IoU threshold must lie in [0, 1], got {iou_thresh}")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    if iou_thresh == 1.0:
        return [dets[i] for i in order]
    quads = quad_arrays([dets[i].quad for i in order])
    classes = np.array([dets[i].class_id for i in order])
    suppressed = [False] * len(order)
    band = max(1, NMS_PAIRS_PER_BAND // max(len(order), 1))
    for top in range(0, len(order), band):
        bottom = min(top + band, len(order))
        candidates = hbb_overlap(quads[top:bottom], quads[:bottom])
        candidates &= classes[top:bottom, None] == classes[None, :bottom]
        rows, cols = np.nonzero(np.tril(candidates, top - 1))
        rows += top
        over = polygon_iou_pairs(quads[rows], quads[cols]) > iou_thresh
        # pairs come row by row, so an earlier row is final before it is read
        for row, col in zip(rows[over].tolist(), cols[over].tolist()):
            if not suppressed[col]:
                suppressed[row] = True
    return [dets[i] for i, gone in zip(order, suppressed) if not gone]


def run_inference(
    preds_per_level: Sequence[PredictionBatch],
    specs: Sequence[FeatureGridSpec],
    config: InferenceConfig = InferenceConfig(),
) -> list[Detection]:
    """Full post-processing over all pyramid levels.

    Each batch holds row-major (y_s outer, x_s inner) locations for its
    grid. Every (location, class) pair whose fused score clears the
    threshold decodes to a candidate; candidates then pass through
    rotated NMS and the best max_detections survive.
    """
    if len(preds_per_level) != len(specs):
        raise ShapeMismatch(f"{len(preds_per_level)} batches vs {len(specs)} grid specs")
    candidates: list[Detection] = []
    for batch, spec in zip(preds_per_level, specs):
        if batch.num_locations != spec.width * spec.height:
            raise ShapeMismatch(
                f"batch of {batch.num_locations} locations on a "
                f"{spec.width}x{spec.height} grid"
            )
        for idx in range(batch.num_locations):
            y_s, x_s = divmod(idx, spec.width)
            cent = float(batch.centerness[idx])
            for c in range(batch.num_classes):
                score = fuse_scores(float(batch.class_scores[idx, c]), cent)
                if score < config.score_threshold:
                    continue
                quad = decode_location(spec, x_s, y_s, batch.ltrb[idx], batch.wh[idx])
                candidates.append(Detection(quad, c + 1, score))
    return rotated_nms(candidates, config.nms_iou_threshold)[: config.max_detections]
