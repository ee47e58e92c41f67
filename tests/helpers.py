"""Shared fixture builders and scalar oracles for the test suite."""

import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np

from obbkit import geometry, inference
from obbkit.dota import _format_rows, _write_files
from obbkit.errors import DegenerateQuad, Diverged, ParseError, ShapeMismatch, UnknownCategory
from obbkit.evaluation import FP, IGNORED, TP, ClassTable, GtIndex
from obbkit.geometry import (
    AREA_TOLERANCE,
    EDGE_EPS,
    HBB,
    EncodedBox,
    Point2,
    Quad,
    encode_many,
    hbb_overlap,
    polygon_iou_pairs,
    quads_from_offsets,
)
from obbkit.inference import Detection
from obbkit.losses import (
    _RAW_BOUND,
    FitDemoResult,
    LossBreakdown,
    LossWeights,
    PredictionBatch,
    TotalLossResult,
    _sigmoid,
    total_loss,
)
from obbkit.targets import FeatureGridSpec, GroundTruthObject, TargetMaps, _centerness


def _xy_list(points) -> list[tuple[float, float]]:
    out = []
    for p in points:
        if isinstance(p, Point2):
            out.append((p.x, p.y))
        else:
            x, y = p
            out.append((float(x), float(y)))
    return out


def _signed_area(pts) -> float:
    """Shoelace sum / 2; positive for clockwise-on-screen polygons."""
    total = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2.0


def polygon_area_oracle(points) -> float:
    """Absolute area of a simple polygon (>= 3 vertices, shoelace rule)."""
    pts = _xy_list(points)
    if len(pts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    return abs(_signed_area(pts))


def canonicalize_oracle(points) -> Quad:
    """canonicalize one vertex at a time: the rules canonicalize_many follows.

    Vertices are sorted clockwise on screen by their angle around the
    centroid, then rotated so the quad starts at the vertex touching the
    left edge of the surrounding HBB; on a tie the one with the smaller y
    starts. Raises ValueError for a vertex count other than 4 or a
    non-finite vertex, DegenerateQuad for an area below AREA_TOLERANCE or
    an ordering that is not convex.
    """
    pts = _xy_list(points)
    if len(pts) != 4:
        raise ValueError(f"expected 4 vertices, got {len(pts)}")
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite vertex ({x}, {y})")

    cx = sum(p[0] for p in pts) / 4.0
    cy = sum(p[1] for p in pts) / 4.0
    order = sorted(range(4), key=lambda i: math.atan2(pts[i][1] - cy, pts[i][0] - cx))
    ordered = [pts[i] for i in order]

    area = _signed_area(ordered)
    if abs(area) < AREA_TOLERANCE:
        raise DegenerateQuad(f"area {abs(area):g} below tolerance {AREA_TOLERANCE:g}")
    if area < 0:
        ordered.reverse()

    extent = max(
        max(p[0] for p in ordered) - min(p[0] for p in ordered),
        max(p[1] for p in ordered) - min(p[1] for p in ordered),
    )
    convex_eps = max(extent * extent, 1.0) * 1e-12
    for i in range(4):
        ax, ay = ordered[i]
        bx, by = ordered[(i + 1) % 4]
        cx2, cy2 = ordered[(i + 2) % 4]
        cross = (bx - ax) * (cy2 - ay) - (by - ay) * (cx2 - ax)
        if cross < -convex_eps:
            raise DegenerateQuad("vertices do not form a convex quadrilateral")

    xmin = min(p[0] for p in ordered)
    tie_eps = max(extent, 1.0) * 1e-9
    candidates = [i for i in range(4) if ordered[i][0] <= xmin + tie_eps]
    start = min(candidates, key=lambda i: (ordered[i][1], i))
    rotated = ordered[start:] + ordered[:start]
    return Quad(*(Point2(x, y) for x, y in rotated))


def located_canonicalize_oracle(points, path, line_no) -> Quad:
    """canonicalize_oracle, its error led by "path:line_no: " as the DOTA readers raise it."""
    try:
        return canonicalize_oracle(points)
    except (DegenerateQuad, ValueError) as exc:
        raise type(exc)(f"{path}:{line_no}: {exc}") from None


def encode_oracle(q: Quad) -> EncodedBox:
    """encode through the Quad's own bounds: w = xmax - x2, h = ymax - y1."""
    hbb = q.bounds()
    return EncodedBox(hbb, hbb.xmax - q.v2.x, hbb.ymax - q.v1.y)


def _clip_halfplane(poly, ax, ay, bx, by):
    """Keep the part of poly on the inner side of the directed edge a->b."""
    ex = bx - ax
    ey = by - ay
    out = []
    n = len(poly)
    for i in range(n):
        cx, cy = poly[i]
        dx, dy = poly[(i + 1) % n]
        c_in = ex * (cy - ay) - ey * (cx - ax) >= -EDGE_EPS
        d_in = ex * (dy - ay) - ey * (dx - ax) >= -EDGE_EPS
        if c_in:
            out.append((cx, cy))
        if c_in != d_in:
            # segment crosses the edge line; intersect the two lines
            denom = ex * (dy - cy) - ey * (dx - cx)
            if denom != 0.0:
                s = (ex * (ay - cy) - ey * (ax - cx)) / denom
                out.append((cx + s * (dx - cx), cy + s * (dy - cy)))
    return out


def convex_intersect_oracle(a: Quad, b: Quad) -> list[Point2]:
    """Vertices of the intersection of two convex canonical quads: a clipped
    against each edge of b in turn; an empty list when they are disjoint."""
    poly = [(v.x, v.y) for v in a.vertices]
    bs = [(v.x, v.y) for v in b.vertices]
    for i in range(4):
        ax, ay = bs[i]
        bx, by = bs[(i + 1) % 4]
        poly = _clip_halfplane(poly, ax, ay, bx, by)
        if not poly:
            return []
    return [Point2(x, y) for x, y in poly]


def polygon_iou_oracle(a: Quad, b: Quad) -> float:
    """Exact IoU of two convex quads, one pair at a time: the rules
    polygon_iou_pairs follows. A pair whose horizontal boxes do not overlap
    with positive area is 0 without clipping; a union below AREA_TOLERANCE
    is 0."""
    ax0, ay0, ax1, ay1 = astuple(a.bounds())
    bx0, by0, bx1, by1 = astuple(b.bounds())
    if not (ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1):
        return 0.0
    inter_pts = convex_intersect_oracle(a, b)
    inter = polygon_area_oracle(inter_pts) if len(inter_pts) >= 3 else 0.0
    union = polygon_area_oracle(a.vertices) + polygon_area_oracle(b.vertices) - inter
    if union < AREA_TOLERANCE:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


def average_precision_11_oracle(curve) -> float:
    """11-point AP of a PRCurve with one recall mask per threshold: the maximum
    precision at recall >= t - 1e-12 for t in np.arange(0.0, 1.1, 0.1) (0
    where no point qualifies), summed left to right and divided by 11."""
    if curve.recalls.size == 0:
        return 0.0
    ap = 0.0
    for t in np.arange(0.0, 1.1, 0.1):
        mask = curve.recalls >= t - 1e-12
        ap += float(curve.precisions[mask].max()) if mask.any() else 0.0
    return ap / 11.0


def grid_to_image(spec: FeatureGridSpec, x_s: int, y_s: int) -> Point2:
    """Map a grid location to its image-plane point: x = floor(s/2) + x_s * s."""
    if not (0 <= x_s < spec.width and 0 <= y_s < spec.height):
        raise ValueError(
            f"grid index ({x_s}, {y_s}) outside {spec.width}x{spec.height} grid"
        )
    half = spec.stride // 2
    return Point2(half + x_s * spec.stride, half + y_s * spec.stride)


def rotated_rect(cx, cy, width, height, angle_deg) -> Quad:
    """Canonical quad for a rectangle rotated around its center."""
    th = math.radians(angle_deg)
    c, s = math.cos(th), math.sin(th)
    corners = [(-width / 2, -height / 2), (width / 2, -height / 2),
               (width / 2, height / 2), (-width / 2, height / 2)]
    return canonicalize_oracle([(cx + c * dx - s * dy, cy + s * dx + c * dy)
                                for dx, dy in corners])


def random_rect(rng, center_span=1000.0, size_lo=2.0, size_hi=500.0) -> Quad:
    cx, cy = rng.uniform(0.0, center_span, 2)
    w, h = rng.uniform(size_lo, size_hi, 2)
    angle = rng.uniform(-90.0, 90.0)
    return rotated_rect(cx, cy, w, h, angle)


def axis_box(x0, y0, x1, y1) -> Quad:
    return canonicalize_oracle([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


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
    """(N, M) block of polygon_iou_oracle(a[i], b[j]) for (N, 4, 2) and (M, 4, 2) quads.

    Only the pairs in hbb_overlap go through polygon_iou_pairs; the rest
    are 0, as in polygon_iou_oracle.
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
    e = np.exp(logits.T - logits.T.max(axis=1, keepdims=True))
    table = e / e.sum(axis=1, keepdims=True)
    mixed = table @ (weights.wh @ f)
    attended = f if weights.gamma == 0.0 else weights.gamma * mixed + f
    return attended + ori_feat.values


def rotated_nms_oracle(dets, iou_thresh):
    """Greedy per-class NMS with one polygon_iou_oracle per pair."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    kept_by_class = {}
    for i in order:
        det = dets[i]
        quads = kept_by_class.setdefault(det.class_id, [])
        if all(polygon_iou_oracle(det.quad, q) <= iou_thresh for q in quads):
            quads.append(det.quad)
            kept.append(det)
    return kept


def nms_keep_oracle(quads, classes, scores, iou_thresh):
    """inference._nms_keep by the plain greedy rule: clip every same-class,
    HBB-overlapping pair of the visit-ordered quads (the later row first)
    and walk the pairs above the threshold in visit order, skipping those
    whose earlier row is already suppressed.

    The pairs come from a lower-triangle block cut into bands of rows
    (sized from geometry.PAIRS_PER_BAND, so memory stays bounded);
    band shape never changes the keep list."""
    order = np.argsort(-scores, kind="stable")
    if iou_thresh == 1.0:
        return order
    quads, classes = quads[order], classes[order]
    suppressed = [False] * len(order)
    band = max(1, geometry.PAIRS_PER_BAND // max(len(order), 1))
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
    return decode_oracle(EncodedBox(hbb, w, h))


def decode_oracle(e) -> Quad:
    """The decode formula in Python floats, one vertex at a time."""
    b = e.hbb
    return Quad(
        Point2(b.xmin, b.ymax - e.h),
        Point2(b.xmax - e.w, b.ymin),
        Point2(b.xmax, b.ymin + e.h),
        Point2(b.xmin + e.w, b.ymax),
    )


def run_inference_oracle(preds_per_level, specs):
    """Post-processing one (location, class) pair at a time, with no pre-NMS cap,
    under the inference module's current SCORE_THRESHOLD, NMS_IOU_THRESHOLD
    and MAX_DETECTIONS."""
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
                if score < inference.SCORE_THRESHOLD:
                    continue
                point = grid_to_image(spec, x_s, y_s)
                quad = quad_from_offsets_oracle(point, batch.ltrb[idx], batch.wh[idx])
                candidates.append(Detection(quad, c + 1, score))
    kept = rotated_nms_oracle(candidates, inference.NMS_IOU_THRESHOLD)
    return kept[: inference.MAX_DETECTIONS]


def match_flags_oracle(dets_per_image, gt, class_id, iou_thresh):
    """(scores, flags) of one class under the VOC / DOTA-devkit rule, pair by pair.

    Each detection, in descending score (ties by image id, then input
    order), takes the same-class ground truth with the highest
    polygon_iou_oracle, matched or not; IoU strictly above the threshold gives
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
            iou = polygon_iou_oracle(det.quad, obj.quad)
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
    """The detection parser one line at a time, each quad through canonicalize_oracle.

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
            quad = located_canonicalize_oracle(list(zip(values[1::2], values[2::2])), f, line_no)
            dets.setdefault(tokens[0], []).append(Detection(quad, class_id, values[0]))
    return dets, classes


def annotation_records_oracle(path):
    """(coords, category, difficult, line_no) of each object line of one annotation file.

    Written from the README file format: 8 numbers, a category and an
    optional 0/1 difficult flag per line; blank lines and imagesource/gsd
    header lines are skipped. Raises the first ParseError in the file.
    """
    records = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0].lower().startswith(("imagesource", "gsd")):
            continue
        if len(tokens) not in (9, 10):
            raise ParseError(
                path, line_no, f"expected 8 coordinates, category and flag, got {len(tokens)} fields"
            )
        coords = _floats_oracle(tokens[:8], path, line_no)
        flag = tokens[9] if len(tokens) == 10 else "0"
        if flag not in ("0", "1"):
            raise ParseError(path, line_no, f"difficult flag must be 0 or 1, got {flag!r}")
        records.append((coords, tokens[8], flag == "1", line_no))
    return records


def parse_dota_annotations_oracle(directory, classes=None):
    """The annotation parser record by record: every file is parsed first, then
    each record's quad goes through canonicalize_oracle."""
    per_file = {f: annotation_records_oracle(f) for f in sorted(Path(directory).glob("*.txt"))}
    if classes is None:
        classes = ClassTable(tuple(sorted({r[1] for rs in per_file.values() for r in rs})))
    images = {}
    for f, records in per_file.items():
        objs = images.setdefault(f.stem, [])
        for coords, name, difficult, line_no in records:
            class_id = classes.id_of(name)
            quad = located_canonicalize_oracle(list(zip(coords[0::2], coords[1::2])), f, line_no)
            objs.append(GroundTruthObject(quad, class_id, difficult))
    return GtIndex.from_mapping(images, classes)


def numeric_lines_oracle(path, expected):
    """Yield (line_no, floats) of each line of an encode/decode file: blank lines
    and # comments are skipped, the first `expected` fields must be numbers and
    any further fields are ignored."""
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        values = _floats_oracle(tokens[:expected], path, line_no)
        if len(values) < expected:
            raise ParseError(path, line_no, f"expected {expected} numbers, got {len(values)}")
        yield line_no, values


def read_targets_oracle(path):
    """(class ids, 7-number rows) of a loss targets file, one line at a time."""
    class_ids, rows = [], []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            class_id = int(tokens[0])
        except ValueError:
            raise ParseError(path, line_no, f"expected a class id, got {tokens[0]!r}") from None
        if class_id < 0:
            raise ParseError(path, line_no, f"class id must be >= 0, got {class_id}")
        if len(tokens) != (8 if class_id else 1):
            raise ParseError(path, line_no, "expected 0 or class_id l t r b w h centerness")
        class_ids.append(class_id)
        rows.append(_floats_oracle(tokens[1:], path, line_no) if class_id else [0.0] * 7)
    return class_ids, rows


def read_preds_oracle(path):
    """Rows of a loss predictions file: the first line fixes the width (at least 8)."""
    rows, width = [], None
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if width is None:
            width = len(tokens)
            if width < 8:
                raise ParseError(
                    path, line_no, "predictions need centerness, l t r b, w h and class scores"
                )
        elif len(tokens) != width:
            raise ParseError(path, line_no, f"expected {width} fields, got {len(tokens)}")
        rows.append(_floats_oracle(tokens, path, line_no))
    if not rows:
        raise ParseError(path, 1, "no predictions")
    return rows


def format_number_oracle(value: float) -> str:
    """One number as the writers print it: integers stay integers, others are repr'd."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


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
    encoded = [encode_oracle(obj.quad) for obj in objects]
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


def _claim_dense_oracle(px, py, hbb, radius, lo, hi):
    """Row-major index of the object each grid location is assigned to, -1
    for none: the claim of dense_assign_oracle, over one level's grid."""
    xmin, ymin, xmax, ymax = hbb.T
    reach = radius + 1.0
    with np.errstate(over="ignore"):
        cx, cy = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
        area = (xmax - xmin) * (ymax - ymin)
        c0 = np.maximum(np.searchsorted(px, xmin, "right"), np.searchsorted(px, cx - reach))
        c1 = np.minimum(np.searchsorted(px, xmax), np.searchsorted(px, cx + reach, "right"))
        r0 = np.maximum(np.searchsorted(py, ymin, "right"), np.searchsorted(py, cy - reach))
        r1 = np.minimum(np.searchsorted(py, ymax), np.searchsorted(py, cy + reach, "right"))
    ncols = np.maximum(c1 - c0, 0)
    count = ncols * np.maximum(r1 - r0, 0)
    k = np.repeat(np.arange(len(hbb)), count)
    within = np.arange(k.size) - np.repeat(np.cumsum(count) - count, count)
    row = r0[k] + within // ncols[k]
    col = c0[k] + within % ncols[k]
    wx, wy = px[col], py[row]
    near = (np.abs(wx - cx[k]) <= radius) & (np.abs(wy - cy[k]) <= radius)
    max_off = np.maximum(
        np.maximum(wx - xmin[k], xmax[k] - wx), np.maximum(wy - ymin[k], ymax[k] - wy)
    )
    keep = near & (max_off > lo) & (max_off <= hi) & (area[k] < np.inf)
    loc, k = row[keep] * px.size + col[keep], k[keep]
    order = np.lexsort((k, area[k], loc))
    loc, k = loc[order], k[order]
    first = np.ones(loc.size, dtype=bool)
    first[1:] = loc[1:] != loc[:-1]
    best = np.full(px.size * py.size, -1)
    best[loc[first]] = k[first]
    return best


def dense_assign_oracle(specs, ranges, quads, class_id, difficult, center_radius_mult=1.5):
    """assign_targets over objects as arrays, building each level's dense
    fields directly: an object index per location (-1 for none) selects a
    row of per-object tables that end in a background row."""
    if len(specs) != len(ranges):
        raise ValueError(f"{len(specs)} grid specs but {len(ranges)} level ranges")
    obj_hbb, wh = encode_many(quads)
    if not np.isfinite(wh).all():
        raise ValueError("non-finite orientation offsets")
    obj_wh = np.vstack([wh, [0.0, 0.0]])
    obj_class = np.append(np.asarray(class_id, dtype=int), 0)
    obj_difficult = np.append(np.asarray(difficult, dtype=bool), False)
    out = []
    for spec, (lo, hi) in zip(specs, ranges.pairs):
        px = spec.stride // 2 + np.arange(spec.width) * spec.stride
        py = spec.stride // 2 + np.arange(spec.height) * spec.stride
        obj_index = _claim_dense_oracle(px, py, obj_hbb, center_radius_mult * spec.stride, lo, hi)
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


def focal_branch_oracle(scores, pos, alpha, beta):
    """Per-entry focal branch values (the loss is minus their sum) and the
    gradient, in expression form, one temporary per step."""
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
    return branch, grad


def focal_sum_oracle(scores, pos, alpha, beta):
    """Unnormalized focal loss and gradient in expression form, summed as numpy sums."""
    branch, grad = focal_branch_oracle(scores, pos, alpha, beta)
    return -float(branch.sum()), grad


def write_dota_annotations(gt: GtIndex, directory) -> None:
    """Serialize a GtIndex back to per-image annotation files."""
    lines = [
        f"{coords} {gt.classes.name_of(class_id)} {int(difficult)}"
        for coords, class_id, difficult in zip(
            _format_rows(gt.quads.reshape(-1, 8)), gt.class_id.tolist(), gt.difficult.tolist()
        )
    ]
    _write_files(directory, gt.image_ids, gt.image.tolist(), lines)


def fit_demo_dense_oracle(
    targets: TargetMaps,
    weights: LossWeights,
    steps: int = 2000,
    lr: float = 0.05,
    num_classes: int | None = None,
) -> FitDemoResult:
    """fit_demo with a logit for every (location, class) entry: the dense
    reference that fit_demo's two group logits must match bit for bit.

    Every evaluation takes the scores from _sigmoid and their gradients
    from total_loss over the whole (L, C) logit array. The class sum is
    the math.fsum of the per-entry branch values (exact, rounded once),
    not total_loss's pairwise sum: fit_demo's count x value sum is exact
    too, and a sum rounded another way can flip a backtracking test whose
    two totals differ in the last bit.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if num_classes is None:
        num_classes = int(targets.class_id.max(initial=0))
    if num_classes < 1:
        raise ValueError("at least one class required")
    pos = np.flatnonzero(targets.class_id > 0)
    if not pos.size:
        raise ValueError("fit_demo needs at least one positive target")

    n = len(targets)
    onehot = pos * num_classes + targets.class_id[pos] - 1
    logits = np.zeros((n, num_classes))
    # columns: centerness logit, log ltrb (4), log wh (2)
    reg = np.zeros((pos.size, 7))

    def evaluate(
        logits: np.ndarray, reg: np.ndarray
    ) -> tuple[PredictionBatch, TotalLossResult]:
        centerness = np.full(n, 0.5)
        ltrb = np.ones((n, 4))
        wh = np.ones((n, 2))
        centerness[pos] = _sigmoid(reg[:, 0])
        ltrb[pos] = np.exp(reg[:, 1:5])
        wh[pos] = np.exp(reg[:, 5:])
        batch = PredictionBatch(_sigmoid(logits), centerness, ltrb, wh)
        result = total_loss(batch, targets, weights)
        branch, _ = focal_branch_oracle(
            batch.class_scores, onehot, weights.focal_alpha, weights.focal_beta
        )
        b = result.breakdown
        exact = LossBreakdown.of(
            -math.fsum(branch.ravel().tolist()), b.reg_loss, b.ori_loss, b.num_pos, weights
        )
        return batch, replace(result, breakdown=exact)

    batch, result = evaluate(logits, reg)
    if not math.isfinite(result.breakdown.total):
        raise Diverged("loss non-finite at initialization")
    trajectory: list[LossBreakdown] = [result.breakdown]
    frozen = lr == 0.0
    step_size = lr
    for _ in range(steps):
        if not frozen:
            # chain rule through the sigmoid / exp parameterizations
            s = batch.class_scores
            cls_grad = result.class_score_grad * s * (1.0 - s)
            cent = batch.centerness[pos]
            reg_grad = np.concatenate(
                [
                    (result.centerness_grad[pos] * cent * (1.0 - cent))[:, None],
                    result.ltrb_grad[pos] * batch.ltrb[pos],
                    result.wh_grad[pos] * batch.wh[pos],
                ],
                axis=1,
            )
            trial = min(step_size * 2.0, 1e4)
            accepted = False
            for _try in range(60):
                trial_logits = np.clip(logits - cls_grad * trial, -_RAW_BOUND, _RAW_BOUND)
                trial_reg = np.clip(reg - trial * reg_grad, -_RAW_BOUND, _RAW_BOUND)
                cand_batch, cand_result = evaluate(trial_logits, trial_reg)
                if (
                    math.isfinite(cand_result.breakdown.total)
                    and cand_result.breakdown.total <= result.breakdown.total
                ):
                    accepted = not (
                        np.array_equal(trial_reg, reg) and np.array_equal(trial_logits, logits)
                    )
                    logits, reg, batch, result = trial_logits, trial_reg, cand_batch, cand_result
                    step_size = trial
                    break
                trial *= 0.5
            # no step along the subgradient improves: the iteration is a
            # fixed point, so later steps would reproduce it exactly
            frozen = not accepted
        trajectory.append(result.breakdown)

    decoded = quads_from_offsets(targets.points[pos], batch.ltrb[pos], batch.wh[pos])
    fused = (batch.class_scores[pos, targets.class_id[pos] - 1] * batch.centerness[pos]).tolist()
    return FitDemoResult(trajectory, pos.tolist(), decoded, fused, batch)
