"""Oriented-box geometry.

Canonical quadrilaterals, the transform between an oriented box and its
surrounding horizontal box plus two offset parameters (w, h), and exact
convex-polygon IoU: the scalar :func:`polygon_iou`, which is the
reference overlap, and its batched form over many quad pairs, which NMS
and evaluation use behind a horizontal-box pre-filter.

Conventions: image coordinates, x to the right, y increasing downward.
A canonical quad is walked clockwise on screen, starting from the vertex
touching the left edge of its surrounding horizontal box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateQuad

# Quads below this area (px^2) are rejected as annotation noise.
AREA_TOLERANCE = 1e-6
# On-edge classification tolerance for half-plane clipping.
EDGE_EPS = 1e-9
# Pairs clipped at once by polygon_iou_pairs; bounds its temporaries.
PAIRS_PER_CLIP = 1 << 13


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
        return HBB(*_extent(self))

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


def _extent(q: Quad) -> tuple[float, float, float, float]:
    """xmin, ymin, xmax, ymax of a quad's vertices."""
    xs = (q.v1.x, q.v2.x, q.v3.x, q.v4.x)
    ys = (q.v1.y, q.v2.y, q.v3.y, q.v4.y)
    return min(xs), min(ys), max(xs), max(ys)


def _as_xy_list(points: Iterable) -> list[tuple[float, float]]:
    out = []
    for p in points:
        if isinstance(p, Point2):
            out.append((p.x, p.y))
        else:
            x, y = p
            out.append((float(x), float(y)))
    return out


def _signed_area(pts: Sequence[tuple[float, float]]) -> float:
    """Shoelace sum / 2; positive for clockwise-on-screen polygons."""
    total = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2.0


def polygon_area(points: Iterable) -> float:
    """Absolute area of a simple polygon (>= 3 vertices, shoelace rule)."""
    pts = _as_xy_list(points)
    if len(pts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    return abs(_signed_area(pts))


def canonicalize(points: Iterable) -> Quad:
    """Reorder four raw vertices into a canonical :class:`Quad`.

    Vertices are sorted clockwise on screen, then rotated so the quad
    starts at the vertex touching the left edge of the surrounding HBB.
    When several vertices tie on the left edge (axis-aligned boxes), the
    one with the smaller y starts; the clockwise walk then hands the
    top/right/bottom slots to the remaining vertices.

    Raises DegenerateQuad for collinear input, (near-)zero area, or a
    vertex ordering that cannot be made convex.
    """
    pts = _as_xy_list(points)
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
    if area < 0:  # angular sort already yields clockwise-on-screen; guard anyway
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


def canonicalize_many(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`canonicalize` on every row of an (N, 4, 2) vertex array.

    Returns (canonical, bad). bad[k] is True exactly where
    canonicalize(vertices[k]) raises: DegenerateQuad, or ValueError for a
    non-finite vertex. Every other row of canonical is the vertex order
    of the scalar Quad; each row is a permutation of its input row, so
    the coordinates are the input floats bit for bit. The centroid sums,
    the atan2 angles (math.atan2, which np.arctan2 does not match to the
    last bit on every machine), the stable sort, the shoelace sum, the
    convexity and left-edge tolerances are those of the scalar code.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 3 or v.shape[1:] != (4, 2):
        raise ValueError(f"expected (N, 4, 2) vertices, got shape {v.shape}")
    rows = np.arange(len(v))[:, None]
    x, y = v[:, :, 0], v[:, :, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        # Python's sum: 0 + x1 + x2 + x3 + x4, left to right
        cx = (0.0 + x[:, 0] + x[:, 1] + x[:, 2] + x[:, 3]) / 4.0
        cy = (0.0 + y[:, 0] + y[:, 1] + y[:, 2] + y[:, 3]) / 4.0
        dy, dx = (y - cy[:, None]).ravel().tolist(), (x - cx[:, None]).ravel().tolist()
        angle = np.array(list(map(math.atan2, dy, dx))).reshape(-1, 4)
        order = np.argsort(angle, axis=1, kind="stable")
        ox, oy = x[rows, order], y[rows, order]
        nx, ny = np.roll(ox, -1, axis=1), np.roll(oy, -1, axis=1)
        terms = ox * ny - nx * oy
        area = (0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]) / 2.0
        bad = ~np.isfinite(v).all(axis=(1, 2)) | (np.abs(area) < AREA_TOLERANCE)
        order = np.where((area < 0)[:, None], order[:, ::-1], order)
        ox, oy = x[rows, order], y[rows, order]
        extent = np.maximum(ox.max(axis=1) - ox.min(axis=1), oy.max(axis=1) - oy.min(axis=1))
        convex_eps = np.maximum(extent * extent, 1.0) * 1e-12
        nx, ny = np.roll(ox, -1, axis=1), np.roll(oy, -1, axis=1)
        nnx, nny = np.roll(ox, -2, axis=1), np.roll(oy, -2, axis=1)
        cross = (nx - ox) * (nny - oy) - (ny - oy) * (nnx - ox)
        bad |= (cross < -convex_eps[:, None]).any(axis=1)
        tie_eps = np.maximum(extent, 1.0) * 1e-9
        on_left = ox <= (ox.min(axis=1) + tie_eps)[:, None]
        # the smaller y starts, then the earlier slot: argmin takes the first minimum
        start = np.argmin(np.where(on_left, oy, np.inf), axis=1)
    order = order[rows, (start[:, None] + np.arange(4)) % 4]
    return v[rows, order], bad


def encode(q: Quad) -> EncodedBox:
    """Collapse a canonical quad to its surrounding HBB plus (w, h).

    w = xmax - x2 and h = ymax - y1, where v2 touches the top edge and
    v1 the left edge. Exact inverse of :func:`decode` for rotated
    rectangles; lossy for other convex quads.
    """
    hbb = q.bounds()
    w = hbb.xmax - q.v2.x
    h = hbb.ymax - q.v1.y
    return EncodedBox(hbb, w, h)


def decode(e: EncodedBox) -> Quad:
    """Rebuild the quad from an HBB and its orientation offsets.

    v1 and v2 follow directly from the offset definitions; v3 and v4 are
    their reflections through the box center (rotated rectangles are
    centrally symmetric, which pins the two remaining vertices).
    """
    b = e.hbb
    return Quad(
        Point2(b.xmin, b.ymax - e.h),
        Point2(b.xmax - e.w, b.ymin),
        Point2(b.xmax, b.ymin + e.h),
        Point2(b.xmin + e.w, b.ymax),
    )


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
    rotation" and produce the axis-aligned box instead. Every row takes
    the float operations of :func:`decode` on that HBB and (w, h), so the
    vertices are those of the scalar path bit for bit.

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
    out = np.empty((len(points), 4, 2))
    out[:, 0, 0], out[:, 0, 1] = xmin, ymax - h
    out[:, 1, 0], out[:, 1, 1] = xmax - w, ymin
    out[:, 2, 0], out[:, 2, 1] = xmax, ymin + h
    out[:, 3, 0], out[:, 3, 1] = xmin + w, ymax
    return out


def _clip_halfplane(
    poly: list[tuple[float, float]],
    ax: float,
    ay: float,
    bx: float,
    by: float,
) -> list[tuple[float, float]]:
    """Keep the part of poly on the inner side of the directed edge a->b."""
    ex = bx - ax
    ey = by - ay
    out: list[tuple[float, float]] = []
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


def convex_intersect(a: Quad, b: Quad) -> list[Point2]:
    """Vertices of the intersection of two convex canonical quads.

    Sequential half-plane clipping of a against the edges of b; returns
    an empty list when the quads are disjoint.
    """
    poly = [(v.x, v.y) for v in a.vertices]
    bs = [(v.x, v.y) for v in b.vertices]
    for i in range(4):
        ax, ay = bs[i]
        bx, by = bs[(i + 1) % 4]
        poly = _clip_halfplane(poly, ax, ay, bx, by)
        if not poly:
            return []
    return [Point2(x, y) for x, y in poly]


def polygon_iou(a: Quad, b: Quad) -> float:
    """Exact intersection-over-union of two convex quads, in [0, 1].

    A pair whose horizontal boxes do not overlap with positive area (the
    test of :func:`hbb_overlap`) is exactly 0 without clipping. Without
    that test the clip's absolute EDGE_EPS tolerance would give two
    axis-aligned quads less than EDGE_EPS over the edge length apart a
    sliver of overlap (IoU 5e-11 for unit squares 1e-10 apart); a gap that
    narrow between rotated quads whose horizontal boxes overlap still
    yields one, on every path alike.
    """
    ax0, ay0, ax1, ay1 = _extent(a)
    bx0, by0, bx1, by1 = _extent(b)
    if not (ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1):
        return 0.0
    inter_pts = convex_intersect(a, b)
    inter = polygon_area(inter_pts) if len(inter_pts) >= 3 else 0.0
    union = polygon_area(a.vertices) + polygon_area(b.vertices) - inter
    if union < AREA_TOLERANCE:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


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


def _successors(v: np.ndarray, wrap: np.ndarray) -> np.ndarray:
    """Per row, the entry after each vertex: the next column, or column 0 at wrap."""
    nxt = np.empty_like(v)
    nxt[:, :-1] = v[:, 1:]
    nxt[:, -1:] = v[:, :1]
    return np.where(wrap, v[:, :1], nxt)


def _shoelace(xs: np.ndarray, ys: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Absolute shoelace area per row of vertex buffers with n[r] valid entries.

    Terms are summed in the order :func:`polygon_area` sums them, so each
    row's area equals the scalar one bit for bit.
    """
    cols = np.arange(xs.shape[1])
    wrap = cols + 1 >= n[:, None]
    terms = xs * _successors(ys, wrap) - _successors(xs, wrap) * ys
    terms[cols >= n[:, None]] = 0.0
    total = np.zeros(len(xs))
    for i in cols:
        total += terms[:, i]
    return np.abs(total / 2.0)


def _clip_halfplanes(
    xs: np.ndarray, ys: np.ndarray, n: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_clip_halfplane` on every row at once.

    Row r holds a polygon in the first n[r] entries of the vertex buffers
    xs, ys and is clipped against its own directed edge a[r] -> b[r].
    The output buffers are as wide as the longest clipped polygon;
    entries past a row's count are 0.
    """
    ax, ay = a[:, 0:1], a[:, 1:2]
    ex = b[:, 0:1] - ax
    ey = b[:, 1:2] - ay
    cols = np.arange(xs.shape[1])
    wrap = cols + 1 >= n[:, None]
    dx = _successors(xs, wrap)
    dy = _successors(ys, wrap)
    inside = ex * (ys - ay) - ey * (xs - ax) >= -EDGE_EPS
    denom = ex * (dy - ys) - ey * (dx - xs)
    # Vertex c emits itself if inside, then the crossing point of c -> next.
    emit = np.empty(xs.shape + (2,), dtype=bool)
    emit[..., 0] = inside
    emit[..., 1] = (inside != _successors(inside, wrap)) & (denom != 0.0)
    emit &= (cols < n[:, None])[..., None]
    cand = np.empty(xs.shape + (2, 2))
    cand[..., 0, 0] = xs
    cand[..., 0, 1] = ys
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # lanes with denom == 0 hold inf or nan and are never emitted
        s = (ex * (ay - ys) - ey * (ax - xs)) / denom
        cand[..., 1, 0] = xs + s * (dx - xs)
        cand[..., 1, 1] = ys + s * (dy - ys)
    slots = 2 * xs.shape[1]
    emit = emit.reshape(len(xs), slots)
    pos = np.cumsum(emit, axis=1) - 1
    out_n = pos[:, -1] + 1 if slots else np.zeros(len(xs), dtype=np.intp)
    width = int(out_n.max()) if out_n.size else 0
    r, c = np.nonzero(emit)
    out = np.zeros((len(xs), width, 2))
    out[r, pos[r, c]] = cand.reshape(len(xs), slots, 2)[r, c]
    return out[..., 0], out[..., 1], out_n


def polygon_iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """polygon_iou(a[k], b[k]) for aligned (P, 4, 2) quad arrays, bit for bit.

    Pairs whose horizontal boxes do not overlap are 0, as in the scalar
    code. The clip of :func:`convex_intersect` runs on the rest, up to
    PAIRS_PER_CLIP pairs at once over fixed-width vertex buffers, with the
    same inside test, intersection formula, shoelace sums and union guard
    as the scalar code.
    """
    iou = np.zeros(len(a))
    rows = np.flatnonzero(_overlapping(_hbb_bounds(a), _hbb_bounds(b)))
    if len(rows) < len(a):
        a, b = a[rows], b[rows]
    for start in range(0, len(a), PAIRS_PER_CLIP):
        chunk = rows[start : start + PAIRS_PER_CLIP]
        qa = a[start : start + PAIRS_PER_CLIP]
        qb = b[start : start + PAIRS_PER_CLIP]
        four = np.full(len(qa), 4)
        xs, ys, n = qa[:, :, 0], qa[:, :, 1], four
        for i in range(4):
            xs, ys, n = _clip_halfplanes(xs, ys, n, qb[:, i], qb[:, (i + 1) % 4])
        inter = np.where(n >= 3, _shoelace(xs, ys, n), 0.0)
        union = _shoelace(qa[:, :, 0], qa[:, :, 1], four) + _shoelace(qb[:, :, 0], qb[:, :, 1], four)
        union -= inter
        ok = union >= AREA_TOLERANCE
        iou[chunk[ok]] = np.minimum(np.maximum(inter[ok] / union[ok], 0.0), 1.0)
    return iou


def _hbb_bounds(quads: np.ndarray) -> tuple[np.ndarray, ...]:
    """xmin, ymin, xmax, ymax of the horizontal boxes of (N, 4, 2) quads."""
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
    """
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
