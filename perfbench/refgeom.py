"""Reference geometry for the benchmark's generator and output checks.

Written without obbkit on purpose: the answers the checks compare against
must not come from the code under test. Polygons are lists of (x, y)
tuples in image coordinates (y down).
"""

from __future__ import annotations

import math

import numpy as np


def rect_corners(cx: float, cy: float, width: float, height: float, angle_deg: float):
    """Corners of a width x height rectangle rotated by angle_deg about its center."""
    th = math.radians(angle_deg)
    c, s = math.cos(th), math.sin(th)
    half = [(-width / 2, -height / 2), (width / 2, -height / 2),
            (width / 2, height / 2), (-width / 2, height / 2)]
    return [(cx + c * dx - s * dy, cy + s * dx + c * dy) for dx, dy in half]


def canonical_order(pts):
    """Clockwise on screen, starting at the leftmost vertex (smaller y on a tie).

    This is the vertex order a DOTA reader canonicalizes to, so coordinates
    written in this order come back unchanged from a parse/write round trip.
    """
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    ordered = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    extent = max(max(p[0] for p in pts) - min(p[0] for p in pts),
                 max(p[1] for p in pts) - min(p[1] for p in pts), 1.0)
    xmin = min(p[0] for p in ordered)
    ties = [i for i, p in enumerate(ordered) if p[0] <= xmin + extent * 1e-9]
    start = min(ties, key=lambda i: (ordered[i][1], i))
    return ordered[start:] + ordered[:start]


def is_strictly_convex(pts) -> bool:
    n = len(pts)
    crosses = []
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        cx, cy = pts[(i + 2) % n]
        crosses.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
    return all(c > 0 for c in crosses) or all(c < 0 for c in crosses)


def fmt(value: float) -> str:
    """DOTA number formatting: integral values as ints, others as shortest repr."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _signed_area(poly) -> float:
    total = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2.0


def area(poly) -> float:
    return abs(_signed_area(poly))


def _orient_positive(poly):
    return list(poly) if _signed_area(poly) > 0 else list(reversed(poly))


def intersection_area(a, b) -> float:
    """Area of the intersection of two convex polygons (Sutherland-Hodgman)."""
    out = _orient_positive(a)
    clip = _orient_positive(b)
    for i in range(len(clip)):
        ex0, ey0 = clip[i]
        ex1, ey1 = clip[(i + 1) % len(clip)]
        dx, dy = ex1 - ex0, ey1 - ey0
        src, out = out, []
        if not src:
            return 0.0
        for k in range(len(src)):
            px, py = src[k]
            qx, qy = src[(k + 1) % len(src)]
            sp = dx * (py - ey0) - dy * (px - ex0)
            sq = dx * (qy - ey0) - dy * (qx - ex0)
            if sp >= 0:
                out.append((px, py))
            if (sp >= 0) != (sq >= 0):
                t = sp / (sp - sq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
    return area(out) if len(out) >= 3 else 0.0


def iou(a, b) -> float:
    inter = intersection_area(a, b)
    union = area(a) + area(b) - inter
    return inter / union if union > 0 else 0.0


def separated(a, b, margin: float) -> bool:
    """True when some edge normal of a or b separates them by at least margin."""
    for poly in (a, b):
        n = len(poly)
        for i in range(n):
            x0, y0 = poly[i]
            x1, y1 = poly[(i + 1) % n]
            nx, ny = y1 - y0, x0 - x1
            norm = math.hypot(nx, ny)
            if norm == 0.0:
                continue
            pa = [(x * nx + y * ny) / norm for x, y in a]
            pb = [(x * nx + y * ny) / norm for x, y in b]
            if max(pa) + margin <= min(pb) or max(pb) + margin <= min(pa):
                return True
    return False


def bounds(poly):
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return min(xs), min(ys), max(xs), max(ys)


def center(poly):
    return (sum(p[0] for p in poly) / len(poly), sum(p[1] for p in poly) / len(poly))


class Placer:
    """Accepts polygons only when they keep a margin from everything placed."""

    def __init__(self, margin: float):
        self.margin = margin
        self.polys: list = []
        self._circles = np.empty((0, 3))

    @staticmethod
    def _circle(poly):
        cx, cy = center(poly)
        return cx, cy, max(math.hypot(x - cx, y - cy) for x, y in poly)

    def fits(self, poly) -> bool:
        cx, cy, r = self._circle(poly)
        c = self._circles
        near = np.hypot(c[:, 0] - cx, c[:, 1] - cy) < r + c[:, 2] + self.margin
        return all(separated(poly, self.polys[i], self.margin) for i in np.flatnonzero(near))

    def add(self, poly) -> None:
        self._circles = np.vstack([self._circles, self._circle(poly)])
        self.polys.append(poly)
