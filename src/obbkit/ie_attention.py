"""Channel self-attention fusion of the prediction branches.

ie_fuse sums the classification and box-regression feature maps, passes
the sum F through a channel self-attention block (three 1x1 convolutions
over channels, a row-normalized C x C attention table, a gamma-weighted
shortcut) and adds the result onto the orientation branch:

    Y = (gamma * T Wh + I) F + F_ori,   T = softmax_rows((Wf G Wg^T)^T)

Forward pass only. The block runs in Gram form. The channel affinities
(Wf F)(Wg F)^T equal Wf G Wg^T for the C x C Gram matrix G = F F^T, and
gamma * T (Wh F) + F equals M F + F for the mixing matrix
M = gamma * T Wh. So the HW-sized data is read twice, once for G and once
for M F, where the direct form makes five passes (Wf F, Wg F, Wh F,
T @ Wh F and the shortcut sum) and holds four (C, HW) temporaries. Here
the one (C, HW) buffer is the branch sum F, which becomes the output:
F + M F is written into it one column chunk at a time, each chunk's
product a (C, w) temporary of at most ELEMENTS_PER_CHUNK elements, and
the orientation map is added in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

# Elements of the branch sum mixed by one M F product; bounds ie_fuse's one
# temporary (2 MB in float64, 4,096 columns at 64 channels).
ELEMENTS_PER_CHUNK = 1 << 18
# Chunk widths are multiples of this many columns, so that each column sits
# where it sits in one whole-map product, at the same offset from the
# BLAS kernel's column tiles and in the same last tile.
_CHUNK_ALIGN = 64


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


def _attention_table(f: np.ndarray, weights: AttentionWeights) -> np.ndarray:
    """Row-stochastic table T of the (C, HW) features f.

    Entry (q, p) normalizes exp(logits[p, q]) over p, with logits =
    Wf G Wg^T, so the softmax runs down the columns of the affinity
    matrix; the max is subtracted first for overflow safety.
    """
    logits = (weights.wf @ (f @ f.T) @ weights.wg.T).T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _chunk_limit(channels: int) -> int:
    """Most columns of a channels-row map in one chunk: ELEMENTS_PER_CHUNK //
    channels rounded down to a multiple of _CHUNK_ALIGN, but at least _CHUNK_ALIGN."""
    return max(_CHUNK_ALIGN, ELEMENTS_PER_CHUNK // channels // _CHUNK_ALIGN * _CHUNK_ALIGN)


def _column_chunks(channels: int, width: int) -> list[slice]:
    """Column slices of a (channels, width) map, in order, for the M F step.

    The n = ceil(width / _chunk_limit(channels)) slices share one width,
    the least multiple of _CHUNK_ALIGN that covers the map in n slices
    (the last may be shorter). A map within the limit is one slice, so
    one product, as without chunking.
    """
    n = -(-width // _chunk_limit(channels))
    step = -(-width // (n * _CHUNK_ALIGN)) * _CHUNK_ALIGN
    return [slice(start, start + step) for start in range(0, width, step)]


def ie_fuse(
    cls_feat: FeatureMap,
    reg_feat: FeatureMap,
    ori_feat: FeatureMap,
    weights: AttentionWeights,
) -> FeatureMap:
    """Full branch fusion: (gamma * T Wh + I)(cls + reg) + ori.

    gamma = 0 skips the table and returns cls + reg + ori bit for bit.
    The inputs are never written.
    """
    if not cls_feat.same_shape(ori_feat):
        raise ShapeMismatch("orientation features must match the merged shape")
    if not cls_feat.same_shape(reg_feat):
        raise ShapeMismatch("merged feature maps must share the same shape")
    if weights.wf.shape[0] != cls_feat.channels:
        raise ShapeMismatch(
            f"{weights.wf.shape[0]}-channel weights applied to "
            f"{cls_feat.channels}-channel features"
        )
    f = cls_feat.values + reg_feat.values
    if weights.gamma != 0.0:
        mixing = weights.gamma * _attention_table(f, weights) @ weights.wh
        # F + M F in F's own buffer; a chunk's product reads only its own columns
        for chunk in _column_chunks(*f.shape):
            part = f[:, chunk]
            part += mixing @ part
    f += ori_feat.values
    return FeatureMap(ori_feat.channels, ori_feat.width, ori_feat.height, f)
