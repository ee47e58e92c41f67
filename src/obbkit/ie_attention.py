"""Channel self-attention fusion of the prediction branches.

Classification and box-regression feature maps are summed, passed
through a channel self-attention block (three 1x1 convolutions over
channels, a row-normalized N x N attention table, a gamma-weighted
shortcut) and added onto the orientation branch. Forward pass only.

The block runs in Gram form. With F the (C, HW) features, the channel
affinities (Wf F)(Wg F)^T equal Wf G Wg^T for the C x C Gram matrix
G = F F^T, and the output gamma * table (Wh F) + F equals
(gamma * table Wh) F + F. So the HW-sized data is read twice, once for
G and once for the product with the C x C mixing matrix, where the
direct form makes five passes (Wf F, Wg F, Wh F, table @ Wh F and the
shortcut sum) and holds four (C, HW) temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

ROW_SUM_TOL = 1e-6


@dataclass
class FeatureMap:
    """N-channel feature map with its spatial extent flattened.

    values has shape (channels, width * height).
    """

    channels: int
    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.channels < 1 or self.width < 1 or self.height < 1:
            raise ValueError("channels, width and height must be >= 1")
        if self.values.shape != (self.channels, self.width * self.height):
            raise ShapeMismatch(
                f"values shape {self.values.shape} does not match "
                f"({self.channels}, {self.width * self.height})"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("feature values must be finite")

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "FeatureMap":
        """Build from a (channels, height, width) array."""
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 3:
            raise ShapeMismatch(f"expected (C, H, W) array, got shape {grid.shape}")
        c, h, w = grid.shape
        return cls(c, w, h, grid.reshape(c, h * w))

    def same_shape(self, other: "FeatureMap") -> bool:
        return (self.channels, self.width, self.height) == (
            other.channels,
            other.width,
            other.height,
        )


@dataclass
class AttentionWeights:
    """1x1 convolution kernels (channel mixing matrices) and the shortcut weight."""

    wf: np.ndarray
    wg: np.ndarray
    wh: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        self.wf = np.asarray(self.wf, dtype=float)
        self.wg = np.asarray(self.wg, dtype=float)
        self.wh = np.asarray(self.wh, dtype=float)
        n = self.wf.shape[0] if self.wf.ndim == 2 else -1
        for name, m in (("wf", self.wf), ("wg", self.wg), ("wh", self.wh)):
            if m.shape != (n, n):
                raise ShapeMismatch(f"{name} must be square of matching size, got {m.shape}")
            if not np.isfinite(m).all():
                raise ValueError(f"{name} must be finite")
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")

    @classmethod
    def seeded(cls, channels: int, seed: int, scale: float = 0.01, gamma: float = 1.0):
        """Deterministic standard-normal init scaled down, for demos and tests."""
        rng = np.random.default_rng(seed)
        wf, wg, wh = rng.standard_normal((3, channels, channels)) * scale
        return cls(wf, wg, wh, gamma)


@dataclass
class AttentionMap:
    """Row-stochastic N x N channel attention table."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = self.matrix.shape[0] if self.matrix.ndim == 2 else -1
        if self.matrix.shape != (n, n):
            raise ShapeMismatch(f"attention map must be square, got {self.matrix.shape}")
        row_sums = self.matrix.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("attention rows must sum to 1")
        if self.matrix.min() < 0.0 or self.matrix.max() > 1.0:
            raise ValueError("attention entries must lie in [0, 1]")


def merge(cls_feat: FeatureMap, reg_feat: FeatureMap) -> FeatureMap:
    """Element-wise sum of the classification and regression features."""
    if not cls_feat.same_shape(reg_feat):
        raise ShapeMismatch("merged feature maps must share the same shape")
    return FeatureMap(
        cls_feat.channels, cls_feat.width, cls_feat.height, cls_feat.values + reg_feat.values
    )


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    matrix = np.asarray(matrix, dtype=float)
    shifted = matrix - matrix.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def attention_logits(feat: FeatureMap, weights: AttentionWeights) -> np.ndarray:
    """Channel-affinity matrix (Wf F)(Wg F)^T, summing over spatial positions.

    Computed as Wf G Wg^T with the Gram matrix G = F F^T.
    """
    if weights.wf.shape[0] != feat.channels:
        raise ShapeMismatch(
            f"{weights.wf.shape[0]}-channel weights applied to {feat.channels}-channel features"
        )
    gram = feat.values @ feat.values.T
    return weights.wf @ gram @ weights.wg.T


def attention_map(feat: FeatureMap, weights: AttentionWeights) -> AttentionMap:
    """Row-stochastic attention table from the channel affinities.

    Entry (q, p) normalizes exp(logits[p, q]) over p, so the softmax runs
    down the columns of the affinity matrix; equivalently, rows of its
    transpose.
    """
    logits = attention_logits(feat, weights)
    return AttentionMap(softmax_rows(logits.T))


def attend(feat: FeatureMap, weights: AttentionWeights) -> FeatureMap:
    """Apply channel attention with the gamma-weighted shortcut.

    Each output channel q mixes the rows of Wh F with the attention row
    q, then Y = gamma * mixed + F, computed as (gamma * table Wh) F + F
    into a fresh array. gamma = 0 returns a copy of F, equal bit for bit.
    """
    table = attention_map(feat, weights).matrix
    if weights.gamma == 0.0:
        values = feat.values.copy()
    else:
        values = (weights.gamma * table @ weights.wh) @ feat.values
        values += feat.values
    return FeatureMap(feat.channels, feat.width, feat.height, values)


def ie_fuse(
    cls_feat: FeatureMap,
    reg_feat: FeatureMap,
    ori_feat: FeatureMap,
    weights: AttentionWeights,
) -> FeatureMap:
    """Full branch fusion: attend(cls + reg) added onto the orientation branch."""
    if not cls_feat.same_shape(ori_feat):
        raise ShapeMismatch("orientation features must match the merged shape")
    # attend's output is a fresh array, so the sum can go into it in place
    values = attend(merge(cls_feat, reg_feat), weights).values
    values += ori_feat.values
    return FeatureMap(ori_feat.channels, ori_feat.width, ori_feat.height, values)
