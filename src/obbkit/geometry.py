"""Oriented-box geometry.

Canonical quadrilaterals, the transform between an oriented box and its
surrounding horizontal box plus two offset parameters (w, h), exact
convex-polygon IoU over many quad pairs behind a horizontal-box
pre-filter, and the finder of the candidate pairs that rotated NMS and
DOTA matching clip (:func:`_band_pairs`). Each formula has one array
implementation over (N, 4, 2) vertex arrays; :func:`canonicalize`,
:func:`encode`, :func:`decode` and :func:`polygon_iou` are its one-row
views.

Conventions: image coordinates, x to the right, y increasing downward.
A canonical quad is walked clockwise on screen, starting from the vertex
touching the left edge of its surrounding horizontal box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegenerateQuad

# Quads below this area (px^2) are rejected as annotation noise.
AREA_TOLERANCE = 1e-6
# On-edge classification tolerance for half-plane clipping.
EDGE_EPS = 1e-9
# Pairs clipped at once by polygon_iou_pairs, and the pair budget of a matching slice
# (evaluation._match_flags); bounds their temporaries.
PAIRS_PER_CLIP = 1 << 13
# Upper bound on the candidate pairs _band_pairs expands at once (one band of rows).
PAIRS_PER_BAND = 1 << 18


@dataclass(frozen=True)
class Point2:
    """A finite 2-D point in image coordinates (y down)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class HBB:
    """Axis-aligned box given by its extreme coordinates."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        vals = (self.xmin, self.ymin, self.xmax, self.ymax)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite box {vals}")
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(f"inverted box {vals}")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point2:
        return Point2((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)


@dataclass(frozen=True)
class Quad:
    """Convex quadrilateral with slot-ordered vertices.

    v1 touches the left edge of the surrounding HBB, v2 the top, v3 the
    right and v4 the bottom; v1 -> v2 -> v3 -> v4 is clockwise on screen.
    Build instances through :func:`canonicalize` or :func:`decode` so the
    ordering actually holds.
    """

    v1: Point2
    v2: Point2
    v3: Point2
    v4: Point2

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2, Point2]:
        return (self.v1, self.v2, self.v3, self.v4)

    def as_array(self) -> np.ndarray:
        """Vertices as a (4, 2) float array."""
        return np.array([(v.x, v.y) for v in self.vertices], dtype=float)

    def as_flat(self) -> tuple[float, ...]:
        """Vertices flattened to (x1, y1, ..., x4, y4)."""
        out: list[float] = []
        for v in self.vertices:
            out.extend((v.x, v.y))
        return tuple(out)

    def bounds(self) -> HBB:
        xs = (self.v1.x, self.v2.x, self.v3.x, self.v4.x)
        ys = (self.v1.y, self.v2.y, self.v3.y, self.v4.y)
        return HBB(min(xs), min(ys), max(xs), max(ys))

    def translated(self, dx: float, dy: float) -> "Quad":
        return Quad(*(Point2(v.x + dx, v.y + dy) for v in self.vertices))


@dataclass(frozen=True)
class EncodedBox:
    """Surrounding HBB plus the two orientation offsets (w, h).

    w is the distance from the right HBB edge back to the top-touching
    vertex, h the distance from the bottom edge up to the left-touching
    vertex. (w, h) = (0, box height) encodes an axis-aligned box.
    """

    hbb: HBB
    w: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.w) and math.isfinite(self.h)):
            raise ValueError("non-finite orientation offsets")
        if self.w < 0 or self.h < 0:
            raise ValueError(f"negative orientation offsets ({self.w}, {self.h})")
        if self.w > self.hbb.width + EDGE_EPS or self.h > self.hbb.height + EDGE_EPS:
            raise ValueError("orientation offsets exceed box extents")


# Why canonicalize_many rejects a row, in the order its checks run; 0 accepts it.
NON_FINITE, SMALL_AREA, NOT_CONVEX = 1, 2, 3
# Sorted vertex angles (rad) closer than this are ordered again with math.atan2.
ORDER_GUARD = 1e-12
# Each vertex slot's successor, and the successor after that, around a quad.
_NEXT, _AFTER_NEXT = [1, 2, 3, 0], [2, 3, 0, 1]


def _angle_order(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (N, 4, 2) vertices, the vertex order by angle around the
    centroid and the signed shoelace area of the vertices in that order.

    The centroid and shoelace sums run left to right from 0, as Python's
    sum does; the sort is stable. The angles come from np.arctan2, which
    may differ from math.atan2 in the last bits on some machines; both lie
    within a few ulps of the true angle, so where a row's sorted angles
    are all more than ORDER_GUARD apart the two orders agree. The other
    rows (ties, nearly collinear vertices, NaN) are sorted again by their
    math.atan2 angles.
    """
    x, y = v[:, :, 0], v[:, :, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        cx = (0.0 + x[:, 0] + x[:, 1] + x[:, 2] + x[:, 3]) / 4.0
        cy = (0.0 + y[:, 0] + y[:, 1] + y[:, 2] + y[:, 3]) / 4.0
        dy, dx = y - cy[:, None], x - cx[:, None]
        angle = np.arctan2(dy, dx)
        order = np.argsort(angle, axis=1, kind="stable")
        gaps = np.diff(np.take_along_axis(angle, order, axis=1), axis=1)
        guard = np.flatnonzero(~(gaps > ORDER_GUARD).all(axis=1))
        if guard.size:
            exact = map(math.atan2, dy[guard].ravel().tolist(), dx[guard].ravel().tolist())
            order[guard] = np.argsort(np.reshape(list(exact), (-1, 4)), axis=1, kind="stable")
        ox, oy = np.take_along_axis(x, order, axis=1), np.take_along_axis(y, order, axis=1)
        terms = ox * oy[:, _NEXT] - ox[:, _NEXT] * oy
        area = (0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]) / 2.0
    return order, area


def canonicalize_many(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reorder the raw vertices of every row of an (N, 4, 2) array into canonical quads.

    Vertices are sorted clockwise on screen by their angle around the
    centroid, then rotated so the quad starts at the vertex touching the
    left edge of the surrounding HBB. When several vertices tie on the
    left edge (axis-aligned boxes), the one with the smaller y starts;
    the clockwise walk then hands the top/right/bottom slots to the
    remaining vertices. Each row of canonical is a permutation of its
    input row, so the coordinates are the input floats bit for bit.

    Returns (canonical, fault). fault[k] is 0 for an accepted row and
    otherwise the first check row k fails: NON_FINITE (a NaN or infinite
    coordinate), SMALL_AREA (area below AREA_TOLERANCE, collinear input
    included) or NOT_CONVEX (no convex vertex ordering).
    :func:`quad_error` builds the error that names why.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 3 or v.shape[1:] != (4, 2):
        raise ValueError(f"expected (N, 4, 2) vertices, got shape {v.shape}")
    order, area = _angle_order(v)
    xmin, ymin, xmax, ymax = _hbb_bounds(v)
    with np.errstate(over="ignore", invalid="ignore"):
        order = np.where((area < 0)[:, None], order[:, ::-1], order)
        ox = np.take_along_axis(v[:, :, 0], order, axis=1)
        oy = np.take_along_axis(v[:, :, 1], order, axis=1)
        extent = np.maximum(xmax - xmin, ymax - ymin)
        convex_eps = np.maximum(extent * extent, 1.0) * 1e-12
        nx, ny = ox[:, _NEXT], oy[:, _NEXT]
        cross = (nx - ox) * (oy[:, _AFTER_NEXT] - oy) - (ny - oy) * (ox[:, _AFTER_NEXT] - ox)
        concave = (cross < -convex_eps[:, None]).any(axis=1)
        fault = np.select(
            [~np.isfinite(v).all(axis=(1, 2)), np.abs(area) < AREA_TOLERANCE, concave],
            [NON_FINITE, SMALL_AREA, NOT_CONVEX],
        ).astype(np.int8)
        tie_eps = np.maximum(extent, 1.0) * 1e-9
        on_left = ox <= (xmin + tie_eps)[:, None]
        # the smaller y starts, then the earlier slot: argmin takes the first minimum
        start = np.argmin(np.where(on_left, oy, np.inf), axis=1)
    order = np.take_along_axis(order, (start[:, None] + np.arange(4)) % 4, axis=1)
    return np.take_along_axis(v, order[:, :, None], axis=1), fault


def quad_error(vertices: np.ndarray, fault: int) -> Exception:
    """The error for a (4, 2) vertex row that :func:`canonicalize_many` rejects with fault.

    ValueError naming the first non-finite vertex; DegenerateQuad naming
    the area, or the missing convex ordering.
    """
    if fault == NON_FINITE:
        x, y = next(p for p in vertices.tolist() if not (math.isfinite(p[0]) and math.isfinite(p[1])))
        return ValueError(f"non-finite vertex ({x}, {y})")
    if fault == SMALL_AREA:
        area = abs(float(_angle_order(vertices[None])[1][0]))
        return DegenerateQuad(f"area {area:g} below tolerance {AREA_TOLERANCE:g}")
    return DegenerateQuad("vertices do not form a convex quadrilateral")


def canonicalize(points: Iterable) -> Quad:
    """:func:`canonicalize_many` on the four vertices (Point2s or (x, y) pairs) of one quad.

    Raises ValueError for a vertex count other than 4, or the error of
    :func:`quad_error` when the row is rejected.
    """
    v = np.array([(p.x, p.y) if isinstance(p, Point2) else p for p in points], dtype=float)
    if len(v) != 4:
        raise ValueError(f"expected 4 vertices, got {len(v)}")
    quads, fault = canonicalize_many(v[None])
    if fault[0]:
        raise quad_error(v, fault[0])
    return quad_list(quads)[0]


def encode_many(quads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse canonical (N, 4, 2) quads to their surrounding HBBs plus (w, h).

    Returns bounds (N, 4) as [xmin, ymin, xmax, ymax] and wh (N, 2), with
    w = xmax - x2 and h = ymax - y1, where v2 touches the top edge and v1
    the left edge. Exact inverse of :func:`decode` for rotated
    rectangles; lossy for other convex quads.
    """
    # the first extreme vertex wins a tie, as in Quad.bounds, so a signed zero keeps its sign
    rows, xy = np.arange(len(quads))[:, None], np.arange(2)
    lo, hi = quads[rows, quads.argmin(axis=1), xy], quads[rows, quads.argmax(axis=1), xy]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as in float arithmetic
        wh = np.stack([hi[:, 0] - quads[:, 1, 0], hi[:, 1] - quads[:, 0, 1]], axis=1)
    return np.concatenate([lo, hi], axis=1), wh


def encode(q: Quad) -> EncodedBox:
    """:func:`encode_many` on one canonical quad, as an EncodedBox."""
    bounds, wh = encode_many(quad_arrays([q]))
    return EncodedBox(HBB(*bounds[0].tolist()), *wh[0].tolist())


def _decode_vertices(xmin, ymin, xmax, ymax, w, h) -> np.ndarray:
    """(N, 4, 2) vertices of N HBBs and their orientation offsets (arrays of N).

    v1 and v2 follow directly from the offset definitions; v3 and v4 are
    their reflections through the box center (rotated rectangles are
    centrally symmetric, which pins the two remaining vertices).
    """
    out = np.empty((len(xmin), 4, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads inf, as in float arithmetic
        out[:, 0, 0], out[:, 0, 1] = xmin, ymax - h
        out[:, 1, 0], out[:, 1, 1] = xmax - w, ymin
        out[:, 2, 0], out[:, 2, 1] = xmax, ymin + h
        out[:, 3, 0], out[:, 3, 1] = xmin + w, ymax
    return out


def decode(e: EncodedBox) -> Quad:
    """:func:`_decode_vertices` on one box; ValueError names the first non-finite vertex."""
    b = e.hbb
    columns = np.array([[b.xmin], [b.ymin], [b.xmax], [b.ymax], [e.w], [e.h]], dtype=float)
    return quad_list(_decode_vertices(*columns))[0]


def quad_from_offsets(point: Point2, ltrb: Sequence[float], wh: Sequence[float]) -> Quad:
    """Decode one quad from per-location offsets; see :func:`quads_from_offsets`."""
    verts = quads_from_offsets(
        np.array([[point.x, point.y]], dtype=float),
        np.asarray(ltrb, dtype=float).reshape(1, 4),
        np.asarray(wh, dtype=float).reshape(1, 2),
    )
    return quad_list(verts)[0]


def quads_from_offsets(points: np.ndarray, ltrb: np.ndarray, wh: np.ndarray) -> np.ndarray:
    """Decode (N, 4, 2) quad vertices from offsets around (N, 2) interior points.

    Row k's HBB spans [x-l, x+r] x [y-t, y+b]; (w, h) are clamped into the
    box extents so unconstrained predictions still decode. The two
    degenerate orientation corners, (0, 0) and (width, height), collapse
    to a diagonal segment under the exact decode; both read as "no
    rotation" and produce the axis-aligned box instead. The vertices come
    from :func:`_decode_vertices`, the formula :func:`decode` uses too.

    Raises ValueError when a row's HBB is non-finite or inverted, or its
    clamped (w, h) is not finite (NaN wh).
    """
    px, py = points[:, 0], points[:, 1]
    xmin, ymin = px - ltrb[:, 0], py - ltrb[:, 1]
    xmax, ymax = px + ltrb[:, 2], py + ltrb[:, 3]
    if not np.isfinite([xmin, ymin, xmax, ymax]).all():
        raise ValueError("non-finite box in decode")
    if ((xmin > xmax) | (ymin > ymax)).any():
        raise ValueError("inverted box in decode")
    with np.errstate(over="ignore"):  # overflow reads inf, as in float arithmetic
        width, height = xmax - xmin, ymax - ymin
    # the scalar min(max(v, 0.0), extent), NaN and signed zeros included
    w = np.where(wh[:, 0] < 0.0, 0.0, wh[:, 0])
    w = np.where(width < w, width, w)
    h = np.where(wh[:, 1] < 0.0, 0.0, wh[:, 1])
    h = np.where(height < h, height, h)
    if not np.isfinite([w, h]).all():
        raise ValueError("non-finite orientation offsets")
    flat = ((w <= EDGE_EPS) & (h <= EDGE_EPS)) | (
        (width - w <= EDGE_EPS) & (height - h <= EDGE_EPS)
    )
    w = np.where(flat, 0.0, w)
    h = np.where(flat, height, h)
    return _decode_vertices(xmin, ymin, xmax, ymax, w, h)


def polygon_iou(a: Quad, b: Quad) -> float:
    """Exact intersection-over-union of two convex quads, in [0, 1] (NaN
    when their areas overflow): :func:`polygon_iou_pairs` on one pair."""
    return float(polygon_iou_pairs(quad_arrays([a]), quad_arrays([b]))[0])


def quad_arrays(quads: Sequence[Quad]) -> np.ndarray:
    """Vertices of many quads as one (N, 4, 2) float array."""
    flat = [(q.v1.x, q.v1.y, q.v2.x, q.v2.y, q.v3.x, q.v3.y, q.v4.x, q.v4.y) for q in quads]
    return np.array(flat, dtype=float).reshape(-1, 4, 2)


def quad_list(vertices: np.ndarray) -> list[Quad]:
    """Quads from an (N, 4, 2) vertex array: the inverse of :func:`quad_arrays`."""
    return [
        Quad(Point2(x1, y1), Point2(x2, y2), Point2(x3, y3), Point2(x4, y4))
        for (x1, y1), (x2, y2), (x3, y3), (x4, y4) in vertices.tolist()
    ]


def _shoelace(closed: np.ndarray) -> np.ndarray:
    """Absolute shoelace area per column of closed (2, W + 1, N) vertex buffers.

    Column k walks its vertices and back to its first; zero entries after
    that closing vertex add terms of exactly 0. The terms are summed in
    vertex order, from 0.
    """
    x, y = closed
    total = np.zeros(closed.shape[2])
    for term in x[:-1] * y[1:] - x[1:] * y[:-1]:
        total += term
    return np.abs(total / 2.0)


def _clip_halfplanes(
    closed: np.ndarray, n: np.ndarray, a: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman step on every pair at once.

    Column k of the closed vertex buffer closed (2, W + 1, N) holds a
    polygon in its first n[k] vertices, its first vertex again at row
    n[k] and zeros after that. It keeps the part on the inner side of its
    own edge from a[:, k] along e[:, k] (both (2, N)): a vertex c is
    inside when ex (cy - ay) - ey (cx - ax) >= -EDGE_EPS.
    Returns the clipped polygons in the same closed layout, as long as
    the longest one needs, and their vertex counts.
    """
    (ex, ey), count = e, len(n)
    rel = closed - a[:, None]
    inside = ex * rel[1] - ey * rel[0] >= -EDGE_EPS
    valid = np.arange(len(inside) - 1)[:, None] < n
    kept = inside[:-1] & valid
    if np.count_nonzero(kept) == n.sum():
        # every vertex is inside: each polygon comes out as it went in
        return closed, n
    # lane j of column k (vertex j and its edge to vertex j + 1) is flat index j * N + k
    x, y = closed.reshape(2, -1)
    lanes = np.flatnonzero((inside[:-1] != inside[1:]) & valid)
    col = lanes % count
    ecx, ecy = ex[col], ey[col]
    cx, cy = x[lanes], y[lanes]
    sx, sy = x[lanes + count] - cx, y[lanes + count] - cy
    denom = ecx * sy - ecy * sx
    s = (ecx * (a[1][col] - cy) - ecy * (a[0][col] - cx)) / denom
    px, py = cx + s * sx, cy + s * sy
    crossing = denom != 0.0
    if not crossing.all():
        # an edge parallel to the clip line emits no crossing point
        lanes, col, px, py = lanes[crossing], col[crossing], px[crossing], py[crossing]
    # lane j emits its vertex if inside, then the crossing point of its edge
    emitted = kept.astype(np.intp)
    emitted.reshape(-1)[lanes] += 1
    slot = np.zeros_like(emitted)  # rows emitted before lane j, row by row:
    for j in range(1, len(slot)):  # numpy's cumsum along axis 0 is several times slower
        np.add(slot[j - 1], emitted[j - 1], out=slot[j])
    out_n = slot[-1] + emitted[-1]
    # as flat indices into an output plane, row * N + k; lanes not kept write to a spare slot
    slot *= count
    slot += np.arange(count)
    cross_dst = slot.reshape(-1)[lanes] + kept.reshape(-1)[lanes] * count
    size = (out_n.max(initial=0) + 1) * count
    np.putmask(slot, ~kept, size)
    close = out_n * count + np.arange(count)
    planes = np.zeros((2, size + 1))
    for plane, source, point in zip(planes, (x, y), (px, py)):
        plane[slot.reshape(-1)] = source[: slot.size]
        plane[cross_dst] = point
        plane[close] = plane[:count]
    return planes[:, :size].reshape(2, -1, count), out_n


def polygon_iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact IoU of each aligned pair a[k], b[k] of convex (P, 4, 2) quads, in [0, 1].

    A pair whose horizontal boxes do not overlap with positive area (the
    test of :func:`hbb_overlap`) is exactly 0 without clipping. Without
    that test the clip's absolute EDGE_EPS tolerance would give two
    axis-aligned quads less than EDGE_EPS over the edge length apart a
    sliver of overlap (IoU 5e-11 for unit squares 1e-10 apart); a gap that
    narrow between rotated quads whose horizontal boxes overlap still
    yields one. The rest are clipped, a against each edge of b in turn,
    up to PAIRS_PER_CLIP pairs at once over fixed-length vertex buffers;
    a union below AREA_TOLERANCE gives 0, and one that overflows to NaN
    gives NaN.

    Raises ValueError unless a and b are both (P, 4, 2) with the same P,
    and for the first pair whose intersection has a vertex that overflows
    to a non-finite point.
    """
    if a.ndim != 3 or a.shape[1:] != (4, 2) or a.shape != b.shape:
        raise ValueError(f"expected two (P, 4, 2) quad arrays, got shapes {a.shape} and {b.shape}")
    iou = np.zeros(len(a))
    rows = np.flatnonzero(_overlapping(_hbb_bounds(a), _hbb_bounds(b)))
    if len(rows) < len(a):
        a, b = a[rows], b[rows]
    for start in range(0, len(a), PAIRS_PER_CLIP):
        chunk = slice(start, start + PAIRS_PER_CLIP)
        # (2, 5, 2C): x and y of the four vertices and the first again, of a's quads then b's
        quads = np.concatenate((a[chunk], b[chunk])).transpose(2, 1, 0)
        closed = np.concatenate((quads, quads[:, :1]), axis=1)
        count = closed.shape[2] // 2
        poly, window = closed[:, :, :count], closed[:, :, count:]
        n = np.full(count, 4)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            edges = window[:, 1:] - window[:, :-1]
            for i in range(4):
                poly, n = _clip_halfplanes(poly, n, window[:, i], edges[:, i])
            inter = _shoelace(poly)
            if not np.isfinite(inter).all():
                # a non-finite vertex makes its pair's area non-finite
                finite = np.isfinite(poly[:, :-1]).all(axis=0)
                bad = ~finite & (np.arange(len(finite))[:, None] < n)
                if bad.any():
                    col, row = np.nonzero(bad.T)
                    x, y = poly[:, row[0], col[0]].tolist()
                    raise ValueError(f"non-finite point ({x}, {y})")
            areas = _shoelace(closed)
            inter = np.where(n >= 3, inter, 0.0)
            union = areas[:count] + areas[count:]
            union -= inter
            ratio = np.minimum(np.maximum(inter / union, 0.0), 1.0)
            iou[rows[chunk]] = np.where(union < AREA_TOLERANCE, 0.0, ratio)
    return iou


def _hbb_bounds(quads: np.ndarray) -> tuple[np.ndarray, ...]:
    """xmin, ymin, xmax, ymax of the horizontal boxes of (N, 4, 2) quads (NaN where
    a vertex is NaN), from the four vertex columns."""
    x, y = quads[:, :, 0], quads[:, :, 1]
    return (
        np.minimum(np.minimum(x[:, 0], x[:, 1]), np.minimum(x[:, 2], x[:, 3])),
        np.minimum(np.minimum(y[:, 0], y[:, 1]), np.minimum(y[:, 2], y[:, 3])),
        np.maximum(np.maximum(x[:, 0], x[:, 1]), np.maximum(x[:, 2], x[:, 3])),
        np.maximum(np.maximum(y[:, 0], y[:, 1]), np.maximum(y[:, 2], y[:, 3])),
    )


def _overlapping(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> np.ndarray:
    """Broadcast test that horizontal boxes (as _hbb_bounds) overlap with positive area."""
    return (a[0] < b[2]) & (b[0] < a[2]) & (a[1] < b[3]) & (b[1] < a[3])


def hbb_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) mask of quad pairs whose horizontal boxes overlap with positive area."""
    return _overlapping([v[:, None] for v in _hbb_bounds(a)], _hbb_bounds(b))


def _sweep_ranges(
    xmin: np.ndarray, xmax: np.ndarray, groups: np.ndarray, partners: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate partner ranges of a sweep over x, one per row.

    Returns (lo, hi, by_x): by_x lists the partner rows sorted by (group,
    xmin), and by_x[lo[i]:hi[i]] holds every partner of row i's group
    whose x extent overlaps row i's with positive length (and possibly
    more). Bounds become exact ranks among all bounds, offset per group,
    so searchsorted finds both ends without rounding: hi where a
    partner's xmin reaches the row's xmax, lo where the running maximum
    of the partners' xmax passes the row's xmin.
    """
    n = len(xmin)
    _, rank = np.unique(np.concatenate([xmin, xmax]), return_inverse=True)
    _, group = np.unique(groups, return_inverse=True)
    start = group * (2 * n) + rank[:n]
    end = group * (2 * n) + rank[n:]
    by_x = partners[np.argsort(start[partners], kind="stable")]
    # the group offsets make the running maximum restart at every group
    reach = np.maximum.accumulate(end[by_x])
    lo = np.searchsorted(reach, start, side="right")
    hi = np.searchsorted(start[by_x], end, side="left")
    return lo, np.maximum(hi, lo), by_x


def _band_pairs(
    quads: np.ndarray, groups: np.ndarray, partners: tuple[np.ndarray, np.ndarray] | None = None
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Candidate pairs of (N, 4, 2) quads: same group, horizontal boxes
    overlapping with positive area (the test of :func:`hbb_overlap`).

    partners is (partner_quads, partner_groups), or None to pair the rows
    with each other, each row only with earlier rows. Yields (top, bottom,
    row, partner) for consecutive row bands: row and partner index the
    pairs of rows top..bottom-1, grouped by row in ascending order. A band
    holds at least one row, and the ranges of its rows hold at most
    PAIRS_PER_BAND partners in all, so a band expands at most
    max(PAIRS_PER_BAND, largest group) pairs. The ranges come from one
    exact-rank sweep over x (:func:`_sweep_ranges`); the earlier-row
    filter runs before the HBB test, which gathers one row and one partner
    bound column at a time, from their own tables.
    """
    bounds = _hbb_bounds(quads)
    if partners is None:
        other = bounds
        lo, hi, by_x = _sweep_ranges(bounds[0], bounds[2], groups, np.arange(len(quads)))
    else:
        other, n = _hbb_bounds(partners[0]), len(partners[0])
        xmin, xmax = (np.concatenate([other[i], bounds[i]]) for i in (0, 2))
        keys = np.concatenate([partners[1], groups])
        lo, hi, by_x = _sweep_ranges(xmin, xmax, keys, np.arange(n))
        lo, hi = lo[n:], hi[n:]
    counts = hi - lo
    ends = np.cumsum(counts)  # partners of rows 0..i
    top = 0
    while top < len(lo):
        before = ends[top] - counts[top]
        bottom = max(top + 1, int(np.searchsorted(ends, before + PAIRS_PER_BAND, side="right")))
        size = counts[top:bottom]
        row = np.repeat(np.arange(top, bottom), size)
        shift = lo[top:bottom] - (ends[top:bottom] - size - before)
        partner = by_x[np.arange(len(row)) + np.repeat(shift, size)]
        if partners is None:
            ok = partner < row
            row, partner = row[ok], partner[ok]
        # _overlapping one column pair at a time (rebound, so earlier arrays are freed)
        for lower, upper in ((0, 2), (1, 3)):
            ok = bounds[lower][row] < other[upper][partner]
            row, partner = row[ok], partner[ok]
            ok = other[lower][partner] < bounds[upper][row]
            row, partner = row[ok], partner[ok]
        yield top, bottom, row, partner
        top = bottom


def _row_intervals(
    verts: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample row, the x interval lying inside a convex clockwise quad.

    A point (x, y) is inside when, for every directed edge a->b,
    (bx-ax)(y-ay) - (by-ay)(x-ax) >= 0. For fixed y each edge is a
    one-sided bound on x, so the inside set per row is an interval.
    """
    lo = np.full(ys.shape, -np.inf)
    hi = np.full(ys.shape, np.inf)
    for i in range(4):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % 4]
        ex = bx - ax
        ey = by - ay
        rhs = ex * (ys - ay) + ey * ax  # inside iff ey*x <= rhs
        if ey > 0:
            hi = np.minimum(hi, rhs / ey)
        elif ey < 0:
            lo = np.maximum(lo, rhs / ey)
        else:
            lo = np.where(rhs >= 0.0, lo, np.inf)
    return lo, hi


def _count_grid_cells(lo: np.ndarray, hi: np.ndarray, x0: float, dx: float, grid: int) -> int:
    """Count cell centers x0 + (i + 0.5) dx, 0 <= i < grid, in [lo, hi] per row."""
    i_lo = np.maximum(np.ceil((lo - x0) / dx - 0.5), 0.0)
    i_hi = np.minimum(np.floor((hi - x0) / dx - 0.5), grid - 1.0)
    return int(np.maximum(i_hi - i_lo + 1.0, 0.0).sum())


def raster_iou_oracle(a: Quad, b: Quad, grid: int = 1000) -> float:
    """Brute-force IoU estimate by point-in-polygon counting.

    Conceptually samples grid x grid cell centers over the joint bounding
    box of both quads and counts membership in each quad; the per-row
    inside set of a convex quad is an x interval, so rows are counted by
    index arithmetic rather than by materializing every sample point.
    Intended as an independent test oracle, not a production path.
    Raises ValueError for a grid below 1.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    av = a.as_array()
    bv = b.as_array()
    xmin = min(av[:, 0].min(), bv[:, 0].min())
    xmax = max(av[:, 0].max(), bv[:, 0].max())
    ymin = min(av[:, 1].min(), bv[:, 1].min())
    ymax = max(av[:, 1].max(), bv[:, 1].max())
    if xmax - xmin <= 0 or ymax - ymin <= 0:
        return 0.0
    dx = (xmax - xmin) / grid
    ys = ymin + (np.arange(grid) + 0.5) * (ymax - ymin) / grid

    lo_a, hi_a = _row_intervals(av, ys)
    lo_b, hi_b = _row_intervals(bv, ys)
    count_a = _count_grid_cells(lo_a, hi_a, xmin, dx, grid)
    count_b = _count_grid_cells(lo_b, hi_b, xmin, dx, grid)
    count_i = _count_grid_cells(
        np.maximum(lo_a, lo_b), np.minimum(hi_a, hi_b), xmin, dx, grid
    )
    union = count_a + count_b - count_i
    if union == 0:
        return 0.0
    return count_i / union
