"""Per-pixel training-target generation for the anchor-free detector.

Feature-grid locations are mapped back to image coordinates, matched to
ground-truth objects by an inside-box test with center sampling, routed
to pyramid levels by their maximum regression distance, and labelled
with left/top/right/bottom offsets, orientation offsets and centerness.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass

import numpy as np

from .errors import PointOutsideBox, ShapeMismatch
from .geometry import HBB, Point2, Quad, encode


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
        for (lo, hi), (nlo, _) in zip(pairs, pairs[1:]):
            if hi <= lo or nlo != hi:
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


def grid_to_image(spec: FeatureGridSpec, x_s: int, y_s: int) -> Point2:
    """Map a grid location to its image-plane point: x = floor(s/2) + x_s * s."""
    if not (0 <= x_s < spec.width and 0 <= y_s < spec.height):
        raise ValueError(
            f"grid index ({x_s}, {y_s}) outside {spec.width}x{spec.height} grid"
        )
    half = spec.stride // 2
    return Point2(half + x_s * spec.stride, half + y_s * spec.stride)


def ltrb_targets(p: Point2, hbb: HBB) -> tuple[float, float, float, float]:
    """Distances from an interior point to the four box edges.

    Raises PointOutsideBox unless p is strictly inside hbb (all four
    offsets must be positive).
    """
    l = p.x - hbb.xmin
    t = p.y - hbb.ymin
    r = hbb.xmax - p.x
    b = hbb.ymax - p.y
    if l <= 0 or t <= 0 or r <= 0 or b <= 0:
        raise PointOutsideBox(f"point ({p.x}, {p.y}) not strictly inside {hbb}")
    return (l, t, r, b)


def _centerness(l, t, r, b):
    """Elementwise centerness of offset scalars or arrays."""
    return np.sqrt((np.minimum(l, r) / np.maximum(l, r)) * (np.minimum(t, b) / np.maximum(t, b)))


def centerness(ltrb: Sequence[float]) -> float:
    """sqrt((min(l,r)/max(l,r)) * (min(t,b)/max(t,b))), in (0, 1]."""
    l, t, r, b = ltrb
    if l <= 0 or t <= 0 or r <= 0 or b <= 0:
        raise ValueError(f"centerness needs strictly positive offsets, got {ltrb}")
    return float(_centerness(l, t, r, b))


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
    if len(specs) != len(ranges):
        raise ValueError(f"{len(specs)} grid specs but {len(ranges)} level ranges")

    encoded = [encode(obj.quad) for obj in objects]
    obj_hbb = np.array([astuple(e.hbb) for e in encoded]).reshape(-1, 4)
    # one row per object plus a trailing background row, which object index -1 selects
    obj_wh = np.array([(e.w, e.h) for e in encoded] + [(0.0, 0.0)])
    obj_class = np.array([obj.class_id for obj in objects] + [0])
    obj_difficult = np.array([obj.difficult for obj in objects] + [False])
    out: list[TargetMaps] = []
    for spec, (lo, hi) in zip(specs, ranges.pairs):
        px = np.array([grid_to_image(spec, x, 0).x for x in range(spec.width)])
        py = np.array([grid_to_image(spec, 0, y).y for y in range(spec.height)])
        radius = center_radius_mult * spec.stride
        best_area = np.full((spec.height, spec.width), np.inf)
        best_obj = np.full((spec.height, spec.width), -1, dtype=int)
        for j, enc in enumerate(encoded):
            hbb = enc.hbb
            # only the rows and columns strictly inside the HBB can claim
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
