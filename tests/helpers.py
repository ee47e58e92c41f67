"""Shared fixture builders and scalar oracles for the test suite."""

import math
from dataclasses import astuple
from pathlib import Path

import numpy as np

from obbkit import inference
from obbkit.dota import iter_annotation_records
from obbkit.errors import ParseError, ShapeMismatch, UnknownCategory
from obbkit.evaluation import FP, IGNORED, TP, ClassTable, GtIndex
from obbkit.geometry import (
    EDGE_EPS,
    HBB,
    EncodedBox,
    Quad,
    canonicalize,
    decode,
    encode,
    hbb_overlap,
    polygon_iou,
    polygon_iou_pairs,
)
from obbkit.ie_attention import softmax_rows
from obbkit.inference import Detection, InferenceConfig
from obbkit.targets import GroundTruthObject, TargetMaps, _centerness, grid_to_image


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


def target_maps(class_id, ltrb=None, wh=None, centerness=None, points=None) -> TargetMaps:
    """TargetMaps for L locations at grid (i, 0) with class ids class_id (L,).

    ltrb (L, 4), wh (L, 2) and points (L, 2) default to zeros; centerness
    defaults to the centerness of ltrb on positives and 0 on background.
    object_index is 0 on positives and -1 on background; none is difficult.
    """
    class_id = np.asarray(class_id, dtype=int)
    n = len(class_id)
    pos = class_id > 0
    ltrb = np.zeros((n, 4)) if ltrb is None else np.asarray(ltrb, dtype=float)
    if centerness is None:
        l, t, r, b = np.where(pos[:, None], ltrb, 1.0).T
        ratio = (np.minimum(l, r) / np.maximum(l, r)) * (np.minimum(t, b) / np.maximum(t, b))
        centerness = np.where(pos, np.sqrt(ratio), 0.0)
    return TargetMaps(
        class_id, ltrb, np.zeros((n, 2)) if wh is None else wh, centerness, np.zeros(n, bool),
        np.where(pos, 0, -1), np.zeros((n, 2)) if points is None else points,
        np.stack([np.arange(n), np.zeros(n, int)], axis=1),
    )


def polygon_iou_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) block of polygon_iou(a[i], b[j]) for (N, 4, 2) and (M, 4, 2) quads.

    Only the pairs in hbb_overlap go through polygon_iou_pairs; the rest
    are 0, as in the scalar code.
    """
    ii, jj = np.nonzero(hbb_overlap(a, b))
    out = np.zeros((len(a), len(b)))
    out[ii, jj] = polygon_iou_pairs(a[ii], b[jj])
    return out


def ie_fuse_oracle(cls_feat, reg_feat, ori_feat, weights) -> np.ndarray:
    """ie_fuse values in the direct five-pass form: Wf F, Wg F, Wh F,
    table @ (Wh F) and gamma * mixed + F, each over the (C, HW) data."""
    f = cls_feat.values + reg_feat.values
    logits = (weights.wf @ f) @ (weights.wg @ f).T
    table = softmax_rows(logits.T)
    mixed = table @ (weights.wh @ f)
    attended = f if weights.gamma == 0.0 else weights.gamma * mixed + f
    return attended + ori_feat.values


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


def nms_keep_oracle(quads, classes, scores, iou_thresh):
    """inference._nms_keep by the plain greedy rule: clip every same-class,
    HBB-overlapping pair of the visit-ordered quads (the later row first)
    and walk the pairs above the threshold in visit order, skipping those
    whose earlier row is already suppressed.

    The pairs come from a lower-triangle block cut into bands of rows
    (sized from inference.NMS_PAIRS_PER_BAND, so memory stays bounded);
    band shape never changes the keep list."""
    order = np.argsort(-scores, kind="stable")
    if iou_thresh == 1.0:
        return order
    quads, classes = quads[order], classes[order]
    suppressed = [False] * len(order)
    band = max(1, inference.NMS_PAIRS_PER_BAND // max(len(order), 1))
    for top in range(0, len(order), band):
        bottom = min(top + band, len(order))
        candidates = hbb_overlap(quads[top:bottom], quads[:bottom])
        candidates &= classes[top:bottom, None] == classes[None, :bottom]
        rows, cols = np.nonzero(np.tril(candidates, top - 1))
        rows += top
        over = polygon_iou_pairs(quads[rows], quads[cols]) > iou_thresh
        for row, col in zip(rows[over].tolist(), cols[over].tolist()):
            if not suppressed[col]:
                suppressed[row] = True
    return order[~np.array(suppressed, dtype=bool)]


def quad_from_offsets_oracle(point, ltrb, wh) -> Quad:
    """One location's decode through the HBB, EncodedBox and decode chain."""
    l, t, r, b = (float(v) for v in ltrb)
    hbb = HBB(point.x - l, point.y - t, point.x + r, point.y + b)
    w = min(max(float(wh[0]), 0.0), hbb.width)
    h = min(max(float(wh[1]), 0.0), hbb.height)
    if (w <= EDGE_EPS and h <= EDGE_EPS) or (
        hbb.width - w <= EDGE_EPS and hbb.height - h <= EDGE_EPS
    ):
        w, h = 0.0, hbb.height
    return decode(EncodedBox(hbb, w, h))


def run_inference_oracle(preds_per_level, specs, config=InferenceConfig()):
    """Post-processing one (location, class) pair at a time, with no pre-NMS cap."""
    if len(preds_per_level) != len(specs):
        raise ShapeMismatch("batch and spec counts differ")
    candidates = []
    for batch, spec in zip(preds_per_level, specs):
        if batch.num_locations != spec.width * spec.height:
            raise ShapeMismatch("batch does not fit its grid")
        for idx in range(batch.num_locations):
            y_s, x_s = divmod(idx, spec.width)
            cent = float(batch.centerness[idx])
            for c in range(batch.num_classes):
                cls = float(batch.class_scores[idx, c])
                if not (0.0 <= cls <= 1.0 and 0.0 <= cent <= 1.0):
                    raise ValueError("scores must lie in [0, 1]")
                score = cls * cent
                if score < config.score_threshold:
                    continue
                point = grid_to_image(spec, x_s, y_s)
                quad = quad_from_offsets_oracle(point, batch.ltrb[idx], batch.wh[idx])
                candidates.append(Detection(quad, c + 1, score))
    kept = rotated_nms_oracle(candidates, config.nms_iou_threshold)
    return kept[: config.max_detections]


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


def parse_dota_detections_oracle(directory, classes=None, *, unknown_category="error"):
    """The detection parser one line at a time, each quad through the scalar canonicalize.

    Returns ({image_id: [Detection]}, class table), or raises the first
    error in file order.
    """
    files = sorted(Path(directory).glob("*.txt"))
    names = [f.stem[len("Task1_"):] if f.stem.startswith("Task1_") else f.stem for f in files]
    if classes is None:
        classes = ClassTable(tuple(sorted(set(names))))
    dets = {}
    for f, name in zip(files, names):
        try:
            class_id = classes.id_of(name)
        except UnknownCategory:
            if unknown_category == "skip":
                continue
            raise
        for line_no, line in enumerate(f.read_text().splitlines(), 1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 10:
                raise ParseError(
                    f, line_no, f"expected image id, score and 8 coordinates, got {len(tokens)} fields"
                )
            values = _floats_oracle(tokens[1:], f, line_no)
            if not 0.0 <= values[0] <= 1.0:
                raise ParseError(f, line_no, f"score {values[0]} outside [0, 1]")
            quad = canonicalize(list(zip(values[1::2], values[2::2])))
            dets.setdefault(tokens[0], []).append(Detection(quad, class_id, values[0]))
    return dets, classes


def parse_dota_annotations_oracle(directory, classes=None, *, unknown_category="error"):
    """The annotation parser record by record: every file is parsed first, then
    each kept record's quad goes through the scalar canonicalize."""
    per_file = {f: iter_annotation_records(f) for f in sorted(Path(directory).glob("*.txt"))}
    if classes is None:
        classes = ClassTable(tuple(sorted({r.category for rs in per_file.values() for r in rs})))
    images = {}
    for f, records in per_file.items():
        objs = images.setdefault(f.stem, [])
        for r in records:
            try:
                class_id = classes.id_of(r.category)
            except UnknownCategory:
                if unknown_category == "skip":
                    continue
                raise
            quad = canonicalize(list(zip(r.coords[0::2], r.coords[1::2])))
            objs.append(GroundTruthObject(quad, class_id, r.difficult))
    return GtIndex.from_mapping(images, classes)


def _floats_oracle(tokens, path, line_no):
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise ParseError(path, line_no, f"expected a number, got {tok!r}") from None
    return values



def assign_targets_oracle(specs, ranges, objects, center_radius_mult=1.5):
    """assign_targets with one claim pass per object over the grid rows and
    columns strictly inside its HBB; a later object claims a location only
    with a strictly smaller HBB area."""
    encoded = [encode(obj.quad) for obj in objects]
    obj_hbb = np.array([astuple(e.hbb) for e in encoded]).reshape(-1, 4)
    obj_wh = np.array([(e.w, e.h) for e in encoded] + [(0.0, 0.0)])
    obj_class = np.array([obj.class_id for obj in objects] + [0])
    obj_difficult = np.array([obj.difficult for obj in objects] + [False])
    out = []
    for spec, (lo, hi) in zip(specs, ranges.pairs):
        px = np.array([grid_to_image(spec, x, 0).x for x in range(spec.width)])
        py = np.array([grid_to_image(spec, 0, y).y for y in range(spec.height)])
        radius = center_radius_mult * spec.stride
        best_area = np.full((spec.height, spec.width), np.inf)
        best_obj = np.full((spec.height, spec.width), -1, dtype=int)
        for j, enc in enumerate(encoded):
            hbb = enc.hbb
            cols = slice(np.searchsorted(px, hbb.xmin, "right"), np.searchsorted(px, hbb.xmax))
            rows = slice(np.searchsorted(py, hbb.ymin, "right"), np.searchsorted(py, hbb.ymax))
            wx, wy = px[None, cols], py[rows, None]
            c = hbb.center
            near = (np.abs(wx - c.x) <= radius) & (np.abs(wy - c.y) <= radius)
            max_off = np.maximum(
                np.maximum(wx - hbb.xmin, hbb.xmax - wx),
                np.maximum(wy - hbb.ymin, hbb.ymax - wy),
            )
            in_range = (max_off > lo) & (max_off <= hi)
            claim = near & in_range & (hbb.area < best_area[rows, cols])
            best_area[rows, cols][claim] = hbb.area
            best_obj[rows, cols][claim] = j
        obj_index = best_obj.ravel()
        y_s, x_s = np.divmod(np.arange(obj_index.size), spec.width)
        points = np.stack([px[x_s], py[y_s]], axis=1).astype(float)
        pos = np.flatnonzero(obj_index >= 0)
        box = obj_hbb[obj_index[pos]]
        ltrb = np.zeros((obj_index.size, 4))
        ltrb[pos] = np.hstack([points[pos] - box[:, :2], box[:, 2:] - points[pos]])
        cent = np.zeros(obj_index.size)
        cent[pos] = _centerness(*ltrb[pos].T)
        out.append(
            TargetMaps(
                obj_class[obj_index], ltrb, obj_wh[obj_index], cent, obj_difficult[obj_index],
                obj_index, points, np.stack([x_s, y_s], axis=1),
            )
        )
    return out


def sigmoid_oracle(z):
    """Logistic function as a select between the two stable branches."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def focal_sum_oracle(scores, pos, alpha, beta):
    """Unnormalized focal loss and gradient in expression form, one temporary per step."""
    scores = np.ascontiguousarray(scores)
    om = 1.0 - scores
    log_om = np.log(om)
    s_beta = scores**beta
    branch = alpha * s_beta * log_om
    grad = -alpha * (beta * scores ** (beta - 1.0) * log_om - s_beta / om)
    if pos.size:
        s = scores.flat[pos]
        om_p = om.flat[pos]
        log_s = np.log(s)
        om_beta = om_p**beta
        branch.flat[pos] = alpha * om_beta * log_s
        grad.flat[pos] = -alpha * (-beta * om_p ** (beta - 1.0) * log_s + om_beta / s)
    return -float(branch.sum()), grad
