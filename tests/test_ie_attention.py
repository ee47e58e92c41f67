import math

import numpy as np
import pytest

from obbkit.errors import ShapeMismatch
from obbkit.ie_attention import (
    AttentionMap,
    AttentionWeights,
    FeatureMap,
    attend,
    attention_logits,
    attention_map,
    ie_fuse,
    merge,
    softmax_rows,
)

from helpers import ie_fuse_oracle


def fmap(values) -> FeatureMap:
    values = np.asarray(values, dtype=float)
    return FeatureMap(values.shape[0], values.shape[1], 1, values)


def identity_weights(n, gamma=1.0) -> AttentionWeights:
    eye = np.eye(n)
    return AttentionWeights(eye, eye, eye, gamma)


class TestMerge:
    def test_zero_map_is_identity(self):
        a = fmap([[1.0, 2.0], [3.0, 4.0]])
        z = fmap(np.zeros((2, 2)))
        assert np.array_equal(merge(a, z).values, a.values)

    def test_commutes(self):
        a = fmap([[1.0, 2.0], [3.0, 4.0]])
        b = fmap([[5.0, -1.0], [0.5, 2.0]])
        assert np.array_equal(merge(a, b).values, merge(b, a).values)

    def test_elementwise_sum(self):
        a = fmap([[1.0, 2.0], [3.0, 4.0]])
        b = fmap([[10.0, 20.0], [30.0, 40.0]])
        assert np.array_equal(merge(a, b).values, [[11.0, 22.0], [33.0, 44.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            merge(fmap(np.zeros((2, 2))), fmap(np.zeros((2, 3))))


class TestAttentionMap:
    def test_constant_features_identity_mixing_is_uniform(self):
        feat = fmap(np.full((3, 4), 2.5))
        table = attention_map(feat, identity_weights(3)).matrix
        assert np.allclose(table, 1 / 3, atol=1e-12)

    def test_zero_affinities_are_uniform(self):
        rng = np.random.default_rng(0)
        feat = fmap(rng.standard_normal((4, 6)))
        weights = AttentionWeights(np.zeros((4, 4)), np.zeros((4, 4)), np.eye(4))
        table = attention_map(feat, weights).matrix
        assert np.allclose(table, 0.25, atol=1e-12)

    def test_hand_softmax_row(self):
        # single spatial position: affinities factor as (Wf f)(Wg f)^T, so
        # Wf f = [0, ln 3] and Wg f = [1, 1] put [0, ln 3] in every column
        feat = fmap(np.array([[1.0], [0.0]]))
        weights = AttentionWeights(
            np.array([[0.0, 0.0], [math.log(3.0), 0.0]]),
            np.array([[1.0, 0.0], [1.0, 0.0]]),
            np.eye(2),
        )
        logits = attention_logits(feat, weights)
        assert np.allclose(logits, [[0.0, 0.0], [math.log(3.0), math.log(3.0)]])
        table = attention_map(feat, weights).matrix
        assert np.allclose(table, [[0.25, 0.75], [0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            feat = fmap(rng.standard_normal((n, int(rng.integers(1, 8)))))
            weights = AttentionWeights.seeded(n, int(rng.integers(1 << 30)), scale=0.5)
            table = attention_map(feat, weights).matrix
            assert np.abs(table.sum(axis=1) - 1.0).max() <= 1e-6
            assert table.min() >= 0.0

    def test_validation_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            AttentionMap(np.array([[0.5, 0.4], [0.5, 0.5]]))


class TestSoftmaxRows:
    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = rng.standard_normal((5, 5)) * 10
            base = softmax_rows(m)
            shifted = softmax_rows(m + rng.standard_normal((5, 1)) * 100)
            assert np.abs(base - shifted).max() <= 1e-9

    def test_large_logits_do_not_overflow(self):
        out = softmax_rows(np.array([[1e6, 0.0], [0.0, -1e6]]))
        assert np.isfinite(out).all()
        assert np.allclose(out, [[1.0, 0.0], [1.0, 0.0]])


class TestAttend:
    def test_gamma_zero_is_exact_identity(self):
        rng = np.random.default_rng(3)
        feat = fmap(rng.standard_normal((4, 5)))
        weights = AttentionWeights.seeded(4, 7, gamma=0.0)
        out = attend(feat, weights)
        assert np.array_equal(out.values, feat.values)

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_writing_the_output_leaves_the_input_alone(self, gamma):
        rng = np.random.default_rng(9)
        feat = fmap(rng.standard_normal((4, 5)))
        before = feat.values.copy()
        out = attend(feat, AttentionWeights.seeded(4, 7, gamma=gamma))
        out.values += 1.0
        assert np.array_equal(feat.values, before)

    def test_forced_identity_table(self):
        # a huge diagonal affinity saturates the softmax to an exact
        # identity table, so attend reduces to gamma * Wh F + F
        feat = FeatureMap(2, 2, 1, np.eye(2))
        weights = AttentionWeights(np.diag([1e4, 1e4]), np.eye(2), np.eye(2), gamma=0.5)
        table = attention_map(feat, weights).matrix
        assert np.array_equal(table, np.eye(2))
        out = attend(feat, weights)
        assert np.allclose(out.values, 0.5 * feat.values + feat.values, atol=1e-15)

    def test_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(4)
        feat = fmap(rng.standard_normal((2, 1)))
        weights = AttentionWeights.seeded(2, 11, scale=1.0, gamma=0.7)
        out = attend(feat, weights)
        logits = (weights.wf @ feat.values) @ (weights.wg @ feat.values).T
        table = softmax_rows(logits.T)
        expected = 0.7 * table @ (weights.wh @ feat.values) + feat.values
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_rows_stay_in_convex_hull(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            feat = fmap(rng.standard_normal((4, 6)))
            weights = AttentionWeights.seeded(4, int(rng.integers(1 << 30)), scale=0.3, gamma=1.0)
            mixed = attention_map(feat, weights).matrix @ (weights.wh @ feat.values)
            basis = weights.wh @ feat.values
            assert np.all(mixed <= basis.max(axis=0) + 1e-9)
            assert np.all(mixed >= basis.min(axis=0) - 1e-9)


class TestIeFuse:
    def test_zero_inputs_pass_orientation_through(self):
        rng = np.random.default_rng(6)
        ori = fmap(rng.standard_normal((3, 4)))
        zero = fmap(np.zeros((3, 4)))
        weights = AttentionWeights.seeded(3, 13)
        out = ie_fuse(zero, zero, ori, weights)
        assert np.allclose(out.values, ori.values, atol=1e-12)

    def test_gamma_zero_adds_merge(self):
        rng = np.random.default_rng(7)
        a = fmap(rng.standard_normal((3, 4)))
        b = fmap(rng.standard_normal((3, 4)))
        ori = fmap(rng.standard_normal((3, 4)))
        weights = AttentionWeights.seeded(3, 17, gamma=0.0)
        out = ie_fuse(a, b, ori, weights)
        assert np.array_equal(out.values, a.values + b.values + ori.values)

    def test_matches_direct_composition(self):
        rng = np.random.default_rng(8)
        a = fmap(rng.standard_normal((3, 5)))
        b = fmap(rng.standard_normal((3, 5)))
        ori = fmap(rng.standard_normal((3, 5)))
        weights = AttentionWeights.seeded(3, 19)
        out = ie_fuse(a, b, ori, weights)
        expected = attend(merge(a, b), weights).values + ori.values
        assert np.array_equal(out.values, expected)

    def test_linear_in_orientation(self):
        rng = np.random.default_rng(9)
        a = fmap(rng.standard_normal((3, 4)))
        b = fmap(rng.standard_normal((3, 4)))
        o1 = rng.standard_normal((3, 4))
        o2 = rng.standard_normal((3, 4))
        weights = AttentionWeights.seeded(3, 23)
        lhs = ie_fuse(a, b, fmap(o1 + o2), weights).values - ie_fuse(a, b, fmap(o2), weights).values
        assert np.allclose(lhs, o1, atol=1e-12)


class TestGramForm:
    """ie_fuse reassociated around the Gram matrix against the direct form."""

    @staticmethod
    def scene(rng, channels, width, height, scale, gamma):
        maps = [
            FeatureMap(channels, width, height, rng.standard_normal((channels, width * height)))
            for _ in range(3)
        ]
        weights = AttentionWeights.seeded(channels, int(rng.integers(1 << 30)), scale, gamma)
        return maps, weights

    def test_matches_five_pass_oracle(self):
        # Tolerance per entry: 1e-12 x (|gamma| (|table Wh| @ |F|) + |F| + |ori|),
        # the scale of the terms whose summation order changed. With unit
        # features and weights scaled by at most 0.3 the logits stay small,
        # so the softmax barely amplifies rounding (worst seen: 3e-14).
        rng = np.random.default_rng(31)
        for _ in range(100):
            channels, width, height = (int(v) for v in rng.integers(1, [17, 41, 41]))
            scale = float(rng.choice([0.01, 0.1, 0.3]))
            gamma = float(rng.uniform(-2.0, 2.0))
            (cls, reg, ori), weights = self.scene(rng, channels, width, height, scale, gamma)
            got = ie_fuse(cls, reg, ori, weights).values
            want = ie_fuse_oracle(cls, reg, ori, weights)
            merged = merge(cls, reg)
            mixing = np.abs(attention_map(merged, weights).matrix @ weights.wh)
            scale_of = abs(gamma) * (mixing @ np.abs(merged.values))
            scale_of += np.abs(merged.values) + np.abs(ori.values)
            assert np.all(np.abs(got - want) <= 1e-12 * scale_of)

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_inputs_are_not_written(self, gamma):
        rng = np.random.default_rng(33)
        maps, weights = self.scene(rng, 5, 6, 4, 0.3, gamma)
        before = [m.values.copy() for m in maps]
        attend(maps[0], weights)
        ie_fuse(*maps, weights)
        for m, b in zip(maps, before):
            assert np.array_equal(m.values, b)


class TestAttentionWeights:
    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        eye = np.eye(2)
        with pytest.raises(ValueError, match="gamma must be finite"):
            AttentionWeights(eye, eye, eye, gamma)


class TestFeatureMap:
    def test_from_grid(self):
        grid = np.arange(24.0).reshape(2, 3, 4)
        feat = FeatureMap.from_grid(grid)
        assert (feat.channels, feat.width, feat.height) == (2, 4, 3)
        assert np.array_equal(feat.values, grid.reshape(2, 12))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fmap(np.array([[np.nan, 1.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeMismatch):
            FeatureMap(2, 3, 4, np.zeros((2, 5)))
