"""Per-pixel training-target generation for the anchor-free detector.

Feature-grid locations are mapped back to image coordinates, matched to
ground-truth objects by an inside-box test with center sampling, routed
to pyramid levels by their maximum regression distance, and labelled
with left/top/right/bottom offsets, orientation offsets and centerness.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .geometry import Quad, encode_many, quad_arrays


@dataclass(frozen=True)
class FeatureGridSpec:
    """One pyramid level's grid: width x height cells of `stride` pixels."""

    width: int
    height: int
    stride: int
    level: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.stride < 1:
            raise ValueError(f"grid dimensions and stride must be >= 1, got {self}")


@dataclass(frozen=True)
class GroundTruthObject:
    """Annotated object: canonical quad, 1-based class id, difficult flag."""

    quad: Quad
    class_id: int
    difficult: bool = False

    def __post_init__(self):
        if self.class_id < 1:
            raise ValueError("class_id must be >= 1 (0 is reserved for background)")


# field name -> (dtype, trailing shape) of the TargetMaps arrays
_MAP_LAYOUT = dict(
    class_id=(int, ()), ltrb=(float, (4,)), wh=(float, (2,)), centerness=(float, ()),
    difficult=(bool, ()), object_index=(int, ()), points=(float, (2,)), grid=(int, (2,)),
)


@dataclass(frozen=True, eq=False)
class TargetMaps:
    """Training targets for L grid locations, one read-only array per field.

    class_id (L,) is 0 on background; ltrb (L, 4), wh (L, 2) and
    centerness (L,) hold regression values on positives and 0 elsewhere;
    difficult (L,); object_index (L,) is -1 where no object is recorded;
    points (L, 2) are image-plane (x, y) and grid (L, 2) the (x_s, y_s)
    grid index.
    """

    class_id: np.ndarray
    ltrb: np.ndarray
    wh: np.ndarray
    centerness: np.ndarray
    difficult: np.ndarray
    object_index: np.ndarray
    points: np.ndarray
    grid: np.ndarray

    def __post_init__(self):
        # each field becomes a fresh read-only array of its dtype
        n = np.shape(self.class_id)[0] if np.ndim(self.class_id) == 1 else -1
        for name, (dtype, tail) in _MAP_LAYOUT.items():
            arr = np.array(getattr(self, name), dtype=dtype)
            if arr.shape != (n, *tail):
                raise ShapeMismatch(f"{name} has shape {arr.shape}, expected {(n, *tail)}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.class_id.shape[0]

    @classmethod
    def concatenate(cls, maps: Sequence["TargetMaps"]) -> "TargetMaps":
        """The locations of several maps (for example all levels) in order."""
        return cls(*(np.concatenate([getattr(m, name) for m in maps]) for name in _MAP_LAYOUT))


class LevelRanges:
    """Per-level (min_extent, max_extent] intervals routing objects to levels.

    The intervals must be contiguous, increasing, start at 0 and end at
    infinity; a location belongs to a level when its maximum ltrb offset
    falls in that level's interval.
    """

    def __init__(self, pairs: Sequence[tuple[float, float]]):
        pairs = tuple((float(lo), float(hi)) for lo, hi in pairs)
        if not pairs:
            raise ValueError("at least one level range required")
        if pairs[0][0] != 0.0:
            raise ValueError("first range must start at 0")
        if not math.isinf(pairs[-1][1]):
            raise ValueError("last range must extend to infinity")
        for i, (lo, hi) in enumerate(pairs):
            if hi <= lo or (i + 1 < len(pairs) and pairs[i + 1][0] != hi):
                raise ValueError(f"ranges must be contiguous and increasing, got {pairs}")
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i: int) -> tuple[float, float]:
        return self.pairs[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, LevelRanges) and self.pairs == other.pairs

    def __repr__(self) -> str:
        return f"LevelRanges({list(self.pairs)})"

    @classmethod
    def default_fpn(cls) -> "LevelRanges":
        """Five-level defaults: (0,64], (64,128], (128,256], (256,512], (512,inf)."""
        return cls([(0, 64), (64, 128), (128, 256), (256, 512), (512, math.inf)])


DEFAULT_CENTER_RADIUS_MULT = 1.5


def check_center_radius_mult(value: float, *, finite: bool = True) -> None:
    """Raise ValueError unless a center-sampling radius multiplier is >= 0,
    and finite unless finite is False (an infinite radius turns the center
    test off, so every location inside the HBB is a candidate)."""
    if not 0.0 <= value or (finite and value == math.inf):
        bound = "finite and >= 0" if finite else ">= 0"
        raise ValueError(f"center_radius_mult must be {bound}, got {value}")


def grid_specs(
    image_width: float, image_height: float, strides: Sequence[int]
) -> list[FeatureGridSpec]:
    """Grids covering an image, one per stride.

    Cell counts are rounded up so every pixel falls in some cell; power
    of two strides get the conventional pyramid level log2(stride),
    other strides are numbered by position. A stride below 1 raises
    ValueError.
    """
    specs = []
    for i, stride in enumerate(strides):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        level = int(math.log2(stride)) if stride & (stride - 1) == 0 else i
        specs.append(
            FeatureGridSpec(
                max(math.ceil(image_width / stride), 1),
                max(math.ceil(image_height / stride), 1),
                stride,
                level,
            )
        )
    return specs


def _centerness(l, t, r, b):
    """Elementwise centerness of offset scalars or arrays."""
    return np.sqrt((np.minimum(l, r) / np.maximum(l, r)) * (np.minimum(t, b) / np.maximum(t, b)))


def centerness(ltrb: Sequence[float]) -> float:
    """sqrt((min(l,r)/max(l,r)) * (min(t,b)/max(t,b))), in (0, 1]."""
    l, t, r, b = ltrb
    if l <= 0 or t <= 0 or r <= 0 or b <= 0:
        raise ValueError(f"centerness needs strictly positive offsets, got {ltrb}")
    return float(_centerness(l, t, r, b))


def _grid_coords(spec: FeatureGridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Image x of grid columns and y of rows, floor(s/2) + index * s, as parts of one array."""
    coords = spec.stride // 2 + spec.stride * np.arange(max(spec.width, spec.height), dtype=float)
    return coords[: spec.width], coords[: spec.height]


def _claim(
    px: np.ndarray, py: np.ndarray, objects: tuple, radius: float, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (2, P) grid index x_s, y_s of the claimed locations, in row-major
    order, the index of the object each is assigned to, and each location's
    (4, P) offsets l, t, r, b to that object's HBB and (2, P) image point.

    px (W,) and py (H,) are :func:`_grid_coords`; objects holds the HBB
    rows xmin ymin xmax ymax cx cy (6, K) of the objects that can win, by
    area, the first on ties, their search rows (8, K) and their indices
    (:func:`_assign_positives`). A location is a candidate for an object
    when it is strictly inside the HBB, within radius of its center on
    both axes, and its largest offset lies in (lo, hi]; the candidate with
    the smallest HBB area wins, the first object on exact ties.
    """
    bounds, queries, index = objects
    coords = px if px.size >= py.size else py
    # each object's window of grid columns and rows: strictly inside the
    # HBB, and within the radius plus one pixel of slack, so rounding in
    # the window bounds cannot drop a location that passes the exact test.
    # One search finds every bound: the first coordinate at or past v is
    # the first one past the float just below v.
    reach = radius + 1.0
    with np.errstate(over="ignore"):
        queries = queries + np.array([[0.0], [0.0], [-reach], [-reach], [reach], [reach], [0], [0]])
    np.nextafter(queries[2:4], -np.inf, out=queries[2:4])
    found = coords.searchsorted(queries, "right")
    start = np.maximum(found[:2], found[2:4])  # first column, first row
    end = np.minimum(np.minimum(found[4:6], found[6:]), [[px.size], [py.size]])
    span = np.maximum(end - start, 0)
    count = span[0] * span[1]
    j = np.repeat(np.arange(index.size), count)
    down, across = np.divmod(np.arange(j.size) - np.repeat(np.cumsum(count) - count, count),
                             span[0, j])
    grid = start.take(j, axis=1)  # column, row
    grid[0] += across
    grid[1] += down

    point, box = coords[grid], bounds.take(j, axis=1)
    offsets = np.concatenate([point - box[:2], box[2:4] - point])
    near = np.abs(point - box[4:]) <= radius
    max_off = offsets.max(axis=0)
    keep = np.flatnonzero(near[0] & near[1] & (max_off > lo) & (max_off <= hi))
    # candidates run by ascending area, then object: a stable sort by
    # location puts each location's winner first
    loc = grid[1, keep] * px.size + grid[0, keep]
    order = np.argsort(loc, kind="stable")
    loc, keep = loc[order], keep[order]
    first = np.ones(loc.size, dtype=bool)
    first[1:] = loc[1:] != loc[:-1]
    keep = keep[first]
    return grid[:, keep], index[j[keep]], offsets[:, keep], point[:, keep]


def _assign_positives(
    specs: Sequence[FeatureGridSpec],
    ranges: LevelRanges,
    quads: np.ndarray,
    class_id: np.ndarray,
    difficult: np.ndarray,
    center_radius_mult: float,
) -> tuple[TargetMaps, list[int]]:
    """The positives of :func:`assign_targets` of K objects given as
    arrays: canonical vertices quads (K, 4, 2), 1-based class_id (K,) and
    difficult (K,). Returns them as one TargetMaps, level by level and
    row-major within a level (grid holds each row's x_s, y_s), and the row
    where each level starts followed by the row count. Every location not
    listed is background."""
    if len(specs) != len(ranges):
        raise ValueError(f"{len(specs)} grid specs but {len(ranges)} level ranges")
    check_center_radius_mult(center_radius_mult, finite=False)

    obj_hbb, obj_wh = encode_many(quads)
    if not np.isfinite(obj_wh).all():
        raise ValueError("non-finite orientation offsets")
    obj_class = np.asarray(class_id, dtype=int)
    obj_difficult = np.asarray(difficult, dtype=bool)
    # the objects that can win a location (an area that overflows to inf never wins) for _claim
    xmin, ymin, xmax, ymax = obj_hbb.T
    with np.errstate(over="ignore"):  # huge boxes overflow to inf, as in float arithmetic
        area = (xmax - xmin) * (ymax - ymin)
        bounds = np.stack([xmin, ymin, xmax, ymax, (xmin + xmax) / 2.0, (ymin + ymax) / 2.0])
    index = np.argsort(area, kind="stable")
    index = index[area[index] < np.inf]
    bounds = bounds.take(index, axis=1)
    # search rows: xmin ymin, the centers twice, and the floats just below xmax and ymax
    below = np.nextafter(bounds[2:4], -np.inf)
    objects = bounds, np.concatenate([bounds[:2], bounds[4:], bounds[4:], below]), index
    levels, starts = [], [0]
    for spec, (lo, hi) in zip(specs, ranges.pairs):
        radius = center_radius_mult * spec.stride
        grid, k, ltrb, points = _claim(*_grid_coords(spec), objects, radius, lo, hi)
        levels.append((obj_class[k], ltrb.T, obj_wh[k], _centerness(*ltrb), obj_difficult[k], k,
                       points.T, grid.T))
        starts.append(starts[-1] + k.size)
    return TargetMaps(*map(np.concatenate, zip(*levels))), starts


def _dense(spec: FeatureGridSpec, positives: TargetMaps, rows: slice) -> TargetMaps:
    """One level's row-major TargetMaps: the given rows of positives, placed
    by their grid index, scattered into background rows (class 0, object
    -1, zero regression values)."""
    px, py = _grid_coords(spec)
    y_s, x_s = np.divmod(np.arange(spec.width * spec.height), spec.width)
    fields = dict(points=np.stack([px[x_s], py[y_s]], axis=1),
                  grid=np.stack([x_s, y_s], axis=1))
    loc = positives.grid[rows, 1] * spec.width + positives.grid[rows, 0]
    for name in ("class_id", "ltrb", "wh", "centerness", "difficult", "object_index"):
        dtype, tail = _MAP_LAYOUT[name]
        fields[name] = np.full((x_s.size, *tail), -1 if name == "object_index" else 0, dtype)
        fields[name][loc] = getattr(positives, name)[rows]
    return TargetMaps(**fields)


def assign_targets(
    specs: Sequence[FeatureGridSpec],
    ranges: LevelRanges,
    objects: Sequence[GroundTruthObject],
    center_radius_mult: float = DEFAULT_CENTER_RADIUS_MULT,
) -> list[TargetMaps]:
    """Dense per-level training targets for a scene.

    A location is positive for an object when its image point is strictly
    inside the object's surrounding HBB, within center_radius_mult * stride
    of the HBB center on both axes, and the location's maximum ltrb offset
    falls in the level's range. When several objects claim a location the
    one with the smallest HBB area wins (first in the list on exact ties).
    A negative or NaN center_radius_mult raises ValueError; an infinite
    one drops the center test.

    Returns one row-major TargetMaps (y_s outer, x_s inner) per level.
    """
    positives, starts = _assign_positives(
        specs,
        ranges,
        quad_arrays([obj.quad for obj in objects]),
        np.array([obj.class_id for obj in objects], dtype=int),
        np.array([obj.difficult for obj in objects], dtype=bool),
        center_radius_mult,
    )
    return [_dense(spec, positives, slice(lo, hi))
            for spec, lo, hi in zip(specs, starts, starts[1:])]
