import math

import numpy as np
import pytest

from obbkit.errors import ShapeMismatch
from obbkit.ie_attention import (
    ELEMENTS_PER_CHUNK,
    AttentionWeights,
    FeatureMap,
    _attention_table,
    _chunk_limit,
    _column_chunks,
    ie_fuse,
)

from helpers import ie_fuse_oracle


def fmap(values) -> FeatureMap:
    values = np.asarray(values, dtype=float)
    return FeatureMap(values.shape[0], values.shape[1], 1, values)


def zeros_like(feat: FeatureMap) -> FeatureMap:
    return FeatureMap(feat.channels, feat.width, feat.height, np.zeros_like(feat.values))


def identity_weights(n, gamma=1.0) -> AttentionWeights:
    eye = np.eye(n)
    return AttentionWeights(eye, eye, eye, gamma)


def softmax_of_rows(m) -> np.ndarray:
    """The attention table's softmax applied to the rows of m.

    With identity features G = I and with Wg = I the logits are exactly
    Wf, so Wf = m^T puts m itself under the row softmax.
    """
    n = len(m)
    return _attention_table(np.eye(n), AttentionWeights(np.transpose(m), np.eye(n), np.eye(n)))


class TestMerge:
    """The branch sum, read off ie_fuse at gamma = 0 with a zero orientation map."""

    @staticmethod
    def merged(a, b):
        return ie_fuse(a, b, zeros_like(a), identity_weights(a.channels, gamma=0.0)).values

    def test_zero_map_is_identity(self):
        a = fmap([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(self.merged(a, zeros_like(a)), a.values)

    def test_commutes(self):
        a = fmap([[1.0, 2.0], [3.0, 4.0]])
        b = fmap([[5.0, -1.0], [0.5, 2.0]])
        ori = fmap([[0.25, -3.0], [7.0, 0.5]])
        weights = AttentionWeights.seeded(2, 3, scale=1.0, gamma=0.7)
        assert np.array_equal(
            ie_fuse(a, b, ori, weights).values, ie_fuse(b, a, ori, weights).values
        )

    def test_elementwise_sum(self):
        a = fmap([[1.0, 2.0], [3.0, 4.0]])
        b = fmap([[10.0, 20.0], [30.0, 40.0]])
        assert np.array_equal(self.merged(a, b), [[11.0, 22.0], [33.0, 44.0]])

    def test_shape_mismatch(self):
        a, b = fmap(np.zeros((2, 2))), fmap(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            ie_fuse(a, b, a, identity_weights(2))


class TestAttentionMap:
    def test_constant_features_identity_mixing_is_uniform(self):
        table = _attention_table(np.full((3, 4), 2.5), identity_weights(3))
        assert np.allclose(table, 1 / 3, atol=1e-12)

    def test_zero_affinities_are_uniform(self):
        rng = np.random.default_rng(0)
        weights = AttentionWeights(np.zeros((4, 4)), np.zeros((4, 4)), np.eye(4))
        table = _attention_table(rng.standard_normal((4, 6)), weights)
        assert np.allclose(table, 0.25, atol=1e-12)

    def test_hand_softmax_row(self):
        # single spatial position: affinities factor as (Wf f)(Wg f)^T, so
        # Wf f = [0, ln 3] and Wg f = [1, 1] put [0, ln 3] in every column
        weights = AttentionWeights(
            np.array([[0.0, 0.0], [math.log(3.0), 0.0]]),
            np.array([[1.0, 0.0], [1.0, 0.0]]),
            np.eye(2),
        )
        table = _attention_table(np.array([[1.0], [0.0]]), weights)
        assert np.allclose(table, [[0.25, 0.75], [0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            f = rng.standard_normal((n, int(rng.integers(1, 8))))
            weights = AttentionWeights.seeded(n, int(rng.integers(1 << 30)), scale=0.5)
            table = _attention_table(f, weights)
            assert np.abs(table.sum(axis=1) - 1.0).max() <= 1e-6
            assert table.min() >= 0.0


class TestSoftmaxRows:
    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = rng.standard_normal((5, 5)) * 10
            base = softmax_of_rows(m)
            shifted = softmax_of_rows(m + rng.standard_normal((5, 1)) * 100)
            assert np.abs(base - shifted).max() <= 1e-9

    def test_large_logits_do_not_overflow(self):
        out = softmax_of_rows(np.array([[1e6, 0.0], [0.0, -1e6]]))
        assert np.isfinite(out).all()
        assert np.allclose(out, [[1.0, 0.0], [1.0, 0.0]])


class TestAttend:
    """The attention block alone: ie_fuse(F, 0, 0) = (gamma * T Wh + I) F."""

    @staticmethod
    def attend(feat, weights):
        zero = zeros_like(feat)
        return ie_fuse(feat, zero, zero, weights)

    def test_gamma_zero_is_exact_identity(self):
        rng = np.random.default_rng(3)
        feat = fmap(rng.standard_normal((4, 5)))
        weights = AttentionWeights.seeded(4, 7, gamma=0.0)
        out = self.attend(feat, weights)
        assert np.array_equal(out.values, feat.values)

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_writing_the_output_leaves_the_input_alone(self, gamma):
        rng = np.random.default_rng(9)
        feat = fmap(rng.standard_normal((4, 5)))
        before = feat.values.copy()
        out = self.attend(feat, AttentionWeights.seeded(4, 7, gamma=gamma))
        out.values += 1.0
        assert np.array_equal(feat.values, before)

    def test_forced_identity_table(self):
        # a huge diagonal affinity saturates the softmax to an exact
        # identity table, so the block reduces to gamma * Wh F + F
        feat = FeatureMap(2, 2, 1, np.eye(2))
        weights = AttentionWeights(np.diag([1e4, 1e4]), np.eye(2), np.eye(2), gamma=0.5)
        assert np.array_equal(_attention_table(feat.values, weights), np.eye(2))
        out = self.attend(feat, weights)
        assert np.allclose(out.values, 0.5 * feat.values + feat.values, atol=1e-15)

    def test_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(4)
        feat = fmap(rng.standard_normal((2, 1)))
        zero = zeros_like(feat)
        weights = AttentionWeights.seeded(2, 11, scale=1.0, gamma=0.7)
        out = self.attend(feat, weights)
        expected = ie_fuse_oracle(feat, zero, zero, weights)
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_rows_stay_in_convex_hull(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            feat = fmap(rng.standard_normal((4, 6)))
            weights = AttentionWeights.seeded(4, int(rng.integers(1 << 30)), scale=0.3, gamma=1.0)
            mixed = _attention_table(feat.values, weights) @ (weights.wh @ feat.values)
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

    def test_output_bits_are_pinned(self):
        # recorded from the step-by-step composition (branch sum, table,
        # attention with shortcut, orientation sum) that ie_fuse must match
        pinned = {
            0.7: ["-0x1.3dda3e4c06462p-2", "-0x1.5a84c886cad4dp+1", "0x1.9c97e8befc82ap-1",
                  "0x1.08ff382b4bc7ep+0", "-0x1.2f6ded3d075e8p+1", "0x1.04687d0eb7da9p+2"],
            0.0: ["-0x1.f26f4ba477d24p-3", "-0x1.729f8b3a113dcp+0", "-0x1.e968bd388b489p+0",
                  "0x1.1fe3196d96891p+0", "-0x1.243cf2785d5aap+0", "0x1.7d709223c5e4cp+0"],
        }
        rng = np.random.default_rng(41)
        maps = [FeatureMap(2, 3, 1, rng.standard_normal((2, 3))) for _ in range(3)]
        for gamma, bits in pinned.items():
            weights = AttentionWeights.seeded(2, 43, scale=1.0, gamma=gamma)
            out = ie_fuse(*maps, weights).values
            assert [v.hex() for v in out.ravel().tolist()] == bits

    def test_gram_overflow_is_value_error(self):
        # G = F F^T overflows, the table turns NaN and the output check
        # rejects it; gamma = 0 never forms G and returns the finite sum
        big = fmap(np.full((2, 3), 1e200))
        zero = zeros_like(big)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="feature values must be finite"):
                ie_fuse(big, zero, zero, identity_weights(2, gamma=0.5))
        out = ie_fuse(big, zero, zero, identity_weights(2, gamma=0.0))
        assert np.array_equal(out.values, big.values)

    def test_channel_mismatch(self):
        a = fmap(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            ie_fuse(a, a, a, identity_weights(3))

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
            merged = cls.values + reg.values
            mixing = np.abs(_attention_table(merged, weights) @ weights.wh)
            scale_of = abs(gamma) * (mixing @ np.abs(merged))
            scale_of += np.abs(merged) + np.abs(ori.values)
            assert np.all(np.abs(got - want) <= 1e-12 * scale_of)

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_inputs_are_not_written(self, gamma):
        rng = np.random.default_rng(33)
        maps, weights = self.scene(rng, 5, 6, 4, 0.3, gamma)
        before = [m.values.copy() for m in maps]
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
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            fmap(np.array([[np.nan, 1.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeMismatch):
            FeatureMap(2, 3, 4, np.zeros((2, 5)))


class TestChunkedMixing:
    """ie_fuse forms M F + F in the branch sum's buffer, one column chunk of
    at most ELEMENTS_PER_CHUNK elements at a time."""

    @staticmethod
    def one_product(cls, reg, ori, weights) -> np.ndarray:
        """The fusion with M F as one whole-map product: M F + F + ori."""
        f = cls.values + reg.values
        values = (weights.gamma * _attention_table(f, weights) @ weights.wh) @ f
        values += f
        values += ori.values
        return values

    @staticmethod
    def scene(channels, width, seed):
        rng = np.random.default_rng(seed)
        maps = [FeatureMap(channels, width, 1, rng.standard_normal((channels, width)))
                for _ in range(3)]
        return maps, AttentionWeights.seeded(channels, seed, scale=0.01, gamma=0.7)

    def test_chunks_cover_the_map_within_the_budget(self):
        for channels in (1, 2, 3, 16, 31, 64, 257, 5000):
            limit = _chunk_limit(channels)
            assert limit % 64 == 0
            assert limit * channels <= ELEMENTS_PER_CHUNK or limit == 64
            for width in (1, limit - 1, limit, limit + 1, 2 * limit + 1, 4 * limit):
                chunks = _column_chunks(channels, width)
                assert len(chunks) == -(-width // limit)
                assert [c.start for c in chunks] == list(range(0, width, chunks[0].stop))
                assert chunks[0].stop % 64 == 0 and chunks[0].stop <= limit
                assert chunks[-1].stop >= width

    @pytest.mark.parametrize("channels", [1, 2, 3, 16, 31, 64, 257])
    def test_width_sweep(self, channels):
        limit = _chunk_limit(channels)
        for width in (1, limit - 1, limit, limit + 1, 2 * limit + 1, 4 * limit):
            (cls, reg, ori), weights = self.scene(channels, width, channels * 7919 + width)
            before = [m.values.copy() for m in (cls, reg, ori)]
            got = ie_fuse(cls, reg, ori, weights).values
            for m, b in zip((cls, reg, ori), before):
                assert np.array_equal(m.values, b)
            if width <= limit:
                # one chunk is one product, as without chunking
                assert got.tobytes() == self.one_product(cls, reg, ori, weights).tobytes()
            merged = cls.values + reg.values
            mixing = np.abs(_attention_table(merged, weights) @ weights.wh)
            scale_of = weights.gamma * (mixing @ np.abs(merged))
            scale_of += np.abs(merged) + np.abs(ori.values)
            want = ie_fuse_oracle(cls, reg, ori, weights)
            assert np.all(np.abs(got - want) <= 1e-12 * scale_of)
            plain = AttentionWeights(weights.wf, weights.wg, weights.wh, 0.0)
            summed = cls.values + reg.values + ori.values
            assert ie_fuse(cls, reg, ori, plain).values.tobytes() == summed.tobytes()

    @pytest.mark.parametrize("grid", [128, 64, 32, 16, 8])
    def test_detect_levels_keep_their_bits(self, grid):
        # the perfbench detect pyramid: 64 channels over 128^2 .. 8^2 locations
        (cls, reg, ori), weights = self.scene(64, grid * grid, grid)
        got = ie_fuse(cls, reg, ori, weights).values
        assert got.tobytes() == self.one_product(cls, reg, ori, weights).tobytes()
