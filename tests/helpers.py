"""Shared fixture builders and scalar oracles for the test suite."""

import math

from obbkit.evaluation import FP, IGNORED, TP
from obbkit.geometry import Quad, canonicalize, polygon_iou


def rotated_rect(cx, cy, width, height, angle_deg) -> Quad:
    """Canonical quad for a rectangle rotated around its center."""
    th = math.radians(angle_deg)
    c, s = math.cos(th), math.sin(th)
    corners = [(-width / 2, -height / 2), (width / 2, -height / 2),
               (width / 2, height / 2), (-width / 2, height / 2)]
    return canonicalize([(cx + c * dx - s * dy, cy + s * dx + c * dy)
                         for dx, dy in corners])


def random_rect(rng, center_span=1000.0, size_lo=2.0, size_hi=500.0) -> Quad:
    cx, cy = rng.uniform(0.0, center_span, 2)
    w, h = rng.uniform(size_lo, size_hi, 2)
    angle = rng.uniform(-90.0, 90.0)
    return rotated_rect(cx, cy, w, h, angle)


def axis_box(x0, y0, x1, y1) -> Quad:
    return canonicalize([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def rotated_nms_oracle(dets, iou_thresh):
    """Greedy per-class NMS with one scalar polygon_iou per pair."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    kept_by_class = {}
    for i in order:
        det = dets[i]
        quads = kept_by_class.setdefault(det.class_id, [])
        if all(polygon_iou(det.quad, q) <= iou_thresh for q in quads):
            quads.append(det.quad)
            kept.append(det)
    return kept


def match_flags_oracle(dets_per_image, gt, class_id, iou_thresh):
    """(scores, flags) of one class under the VOC / DOTA-devkit rule, pair by pair.

    Each detection, in descending score (ties by image id, then input
    order), takes the same-class ground truth with the highest scalar
    polygon_iou, matched or not; IoU strictly above the threshold gives
    IGNORED on difficult ground truth, FP on an already matched one and
    TP otherwise; anything else is FP.
    """
    entries = [
        (det.score, image_id, i, det)
        for image_id, dets in dets_per_image.items()
        for i, det in enumerate(dets)
        if det.class_id == class_id
    ]
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    matched = {}
    flags = []
    for _score, image_id, _i, det in entries:
        used = matched.setdefault(image_id, set())
        best_j, ovmax = -1, -math.inf
        for j, obj in enumerate(gt.images.get(image_id, [])):
            if obj.class_id != class_id:
                continue
            iou = polygon_iou(det.quad, obj.quad)
            if iou > ovmax:
                best_j, ovmax = j, iou
        if best_j >= 0 and ovmax > iou_thresh:
            obj = gt.images[image_id][best_j]
            if obj.difficult:
                flags.append(IGNORED)
            elif best_j in used:
                flags.append(FP)
            else:
                used.add(best_j)
                flags.append(TP)
        else:
            flags.append(FP)
    return [e[0] for e in entries], flags
