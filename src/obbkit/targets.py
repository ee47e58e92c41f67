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
from typing import NamedTuple

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


def grid_specs(
    image_width: float, image_height: float, strides: Sequence[int]
) -> list[FeatureGridSpec]:
    """Grids covering an image, one per stride.

    Cell counts are rounded up so every pixel falls in some cell; power
    of two strides get the conventional pyramid level log2(stride),
    other strides are numbered by position.
    """
    specs = []
    for i, stride in enumerate(strides):
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
    """Image x of each grid column and image y of each grid row: floor(s/2) + index * s."""
    half = spec.stride // 2
    return half + np.arange(spec.width) * spec.stride, half + np.arange(spec.height) * spec.stride


def _claim(
    px: np.ndarray, py: np.ndarray, hbb: np.ndarray, radius: float, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row-major indices of the claimed grid locations, ascending, and the
    index of the object each is assigned to.

    px (W,) and py (H,) are the grid's image coordinates, hbb (K, 4) the
    objects' [xmin, ymin, xmax, ymax]. A location is a candidate for an
    object when it is strictly inside the HBB, within radius of its center
    on both axes, and its largest offset lies in (lo, hi]; the candidate
    with the smallest HBB area wins, the first object on exact ties. An
    object whose area overflows to inf never wins.
    """
    xmin, ymin, xmax, ymax = hbb.T
    # each object's window of grid columns and rows: strictly inside the
    # HBB, and within the radius plus one pixel of slack, so rounding in
    # the window bounds cannot drop a location that passes the exact test
    reach = radius + 1.0
    with np.errstate(over="ignore"):  # huge boxes overflow to inf, as in float arithmetic
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
    # per location: smallest area first, then the lowest object index
    order = np.lexsort((k, area[k], loc))
    loc, k = loc[order], k[order]
    first = np.ones(loc.size, dtype=bool)
    first[1:] = loc[1:] != loc[:-1]
    return loc[first], k[first]


class _Positives(NamedTuple):
    """The positive locations of one level, by ascending row-major index loc
    (P,), with the :class:`TargetMaps` fields other than grid at each
    (or of all levels, as :func:`_flat_positives` joins them)."""

    loc: np.ndarray
    class_id: np.ndarray
    ltrb: np.ndarray
    wh: np.ndarray
    centerness: np.ndarray
    difficult: np.ndarray
    object_index: np.ndarray
    points: np.ndarray


def _assign_positives(
    specs: Sequence[FeatureGridSpec],
    ranges: LevelRanges,
    quads: np.ndarray,
    class_id: np.ndarray,
    difficult: np.ndarray,
    center_radius_mult: float,
) -> list[_Positives]:
    """The positives of :func:`assign_targets`, per level, of K objects
    given as arrays: canonical vertices quads (K, 4, 2), 1-based class_id
    (K,) and difficult (K,). Every location not listed is background."""
    if len(specs) != len(ranges):
        raise ValueError(f"{len(specs)} grid specs but {len(ranges)} level ranges")

    obj_hbb, obj_wh = encode_many(quads)
    if not np.isfinite(obj_wh).all():
        raise ValueError("non-finite orientation offsets")
    obj_class = np.asarray(class_id, dtype=int)
    obj_difficult = np.asarray(difficult, dtype=bool)
    out: list[_Positives] = []
    for spec, (lo, hi) in zip(specs, ranges.pairs):
        px, py = _grid_coords(spec)
        loc, k = _claim(px, py, obj_hbb, center_radius_mult * spec.stride, lo, hi)
        y_s, x_s = np.divmod(loc, spec.width)
        points = np.stack([px[x_s], py[y_s]], axis=1).astype(float)
        box = obj_hbb[k]
        ltrb = np.hstack([points - box[:, :2], box[:, 2:] - points])
        out.append(_Positives(loc, obj_class[k], ltrb, obj_wh[k], _centerness(*ltrb.T),
                              obj_difficult[k], k, points))
    return out


def _flat_positives(
    specs: Sequence[FeatureGridSpec], levels: Sequence[_Positives]
) -> tuple[int, _Positives]:
    """The location count of all levels, and their positives as one set
    whose loc counts the locations of the levels in order (the rows of
    :meth:`TargetMaps.concatenate` of the dense levels)."""
    n, parts = 0, []
    for spec, level in zip(specs, levels, strict=True):
        parts.append(level._replace(loc=level.loc + n))
        n += spec.width * spec.height
    return n, _Positives(*(np.concatenate(field) for field in zip(*parts)))


def _dense(spec: FeatureGridSpec, positives: _Positives) -> TargetMaps:
    """One level's row-major TargetMaps: the positives scattered into
    background rows (class 0, object -1, zero regression values)."""
    px, py = _grid_coords(spec)
    y_s, x_s = np.divmod(np.arange(spec.width * spec.height), spec.width)
    fields = dict(points=np.stack([px[x_s], py[y_s]], axis=1).astype(float),
                  grid=np.stack([x_s, y_s], axis=1))
    for name in ("class_id", "ltrb", "wh", "centerness", "difficult", "object_index"):
        dtype, tail = _MAP_LAYOUT[name]
        fields[name] = np.full((x_s.size, *tail), -1 if name == "object_index" else 0, dtype)
        fields[name][positives.loc] = getattr(positives, name)
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

    Returns one row-major TargetMaps (y_s outer, x_s inner) per level.
    """
    levels = _assign_positives(
        specs,
        ranges,
        quad_arrays([obj.quad for obj in objects]),
        np.array([obj.class_id for obj in objects], dtype=int),
        np.array([obj.difficult for obj in objects], dtype=bool),
        center_radius_mult,
    )
    return [_dense(spec, positives) for spec, positives in zip(specs, levels)]
