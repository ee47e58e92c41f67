"""The training path's kernels against their reference forms, bit for bit.

`_sigmoid` and the focal kernel `_focal_branch` (summed by `_focal_sum`)
are written with fewer temporaries than the expression forms kept in
helpers.py, and `assign_targets` builds only the positives before it
fills the background; every float they produce must be identical to the
reference. A seeded two-level `fit_demo` run is pinned by the float.hex
of every loss component at every step and by a hash of its final
predictions. `fit_demo` keeps one class logit per label group and adds
the focal term as count x value per group, exactly and rounded once. It
is checked on drawn scenes against the dense (L, C + 7) fit it replaced
(`fit_demo_dense_oracle`), whose class sum is the math.fsum of its
per-entry values, and its class sum against the math.fsum of the focal
kernel's branch values over the dense maps. `assign_targets` scatters
each level's positives into background maps; it is checked against a
build of every dense field (`dense_assign_oracle`). The fit-demo command
fits from the positives alone, with no dense map; it is checked against
the public `fit_demo` on the concatenated dense maps.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obbkit import losses
from obbkit.errors import ShapeMismatch
from obbkit.geometry import quad_arrays
from obbkit.losses import (
    LossWeights,
    PredictionBatch,
    _fit_positives,
    _focal_branch,
    _focal_sum,
    _sigmoid,
    fit_demo,
    total_loss,
)
from obbkit.targets import (
    FeatureGridSpec,
    GroundTruthObject,
    LevelRanges,
    TargetMaps,
    _assign_positives,
    assign_targets,
    grid_specs,
)

from helpers import (
    assign_targets_oracle,
    axis_box,
    dense_assign_oracle,
    fit_demo_dense_oracle,
    focal_branch_oracle,
    focal_sum_oracle,
    rotated_rect,
    sigmoid_oracle,
    target_maps,
)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: tells -0.0 from 0.0 and NaN payloads apart."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


_EDGE_LOGITS = [0.0, -0.0, 30.0, -30.0, 1e-310, -1e-310, 36.7, -36.7, 709.0, -709.0,
                746.0, -746.0, 1e300, -1e300, math.inf, -math.inf]


class TestSigmoid:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(_EDGE_LOGITS), st.floats(allow_nan=False)),
            min_size=1, max_size=120,
        ),
        st.integers(1, 4),
    )
    def test_matches_select_form(self, values, step):
        z = np.array(values)
        assert same_bits(_sigmoid(z), sigmoid_oracle(z))
        # a strided view, as a column of a parameter block
        assert same_bits(_sigmoid(z[::step]), sigmoid_oracle(z[::step]))

    def test_signed_zeros_and_bounds(self):
        z = np.array([[0.0, -0.0], [30.0, -30.0]])
        before = z.copy()
        out = _sigmoid(z)
        assert same_bits(out, sigmoid_oracle(z))
        assert out[0, 0] == out[0, 1] == 0.5
        assert same_bits(z, before)  # the input is left alone
        # mixed signs around NaNs of either sign, in one row block
        mixed = np.array([[-1.0, math.nan, 2.0, -math.nan], [0.0, -800.0, -math.inf, 745.0]])
        assert same_bits(_sigmoid(mixed), sigmoid_oracle(mixed))


class TestFocalSum:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 6),
        st.floats(0.0, 1.0),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]), st.floats(0.0, 8.0)),
        st.sampled_from(["contiguous", "strided", "transposed"]),
        st.sampled_from([1.0, 3.0, 31.0, 1e6]),
    )
    def test_matches_expression_form(self, seed, rows, cols, alpha, beta, layout, normalizer):
        rng = np.random.default_rng(seed)
        # scores strictly inside (0, 1), some pressed against either end
        # (fit_demo bounds its logits by 30)
        raw = rng.uniform(-30.0, 30.0, (rows, 2 * cols))
        scores = sigmoid_oracle(raw)
        if layout == "strided":
            scores = scores[:, ::2]
        elif layout == "transposed":
            scores = np.ascontiguousarray(scores[:, :cols].T).T
        else:
            scores = np.ascontiguousarray(scores[:, :cols])
        pos = np.flatnonzero(rng.random(rows * cols) < rng.uniform(0.0, 0.5))
        loss, grad = _focal_sum(scores, pos, alpha, beta, normalizer)
        ref_loss, _ = focal_sum_oracle(scores, pos, alpha, beta)
        _, ref_grad = focal_branch_oracle(scores, pos, alpha, beta)
        assert loss.hex() == ref_loss.hex()
        assert same_bits(grad, ref_grad / normalizer)

    def test_no_positives(self):
        scores = sigmoid_oracle(np.linspace(-5.0, 5.0, 24).reshape(8, 3))
        pos = np.array([], dtype=int)
        loss, grad = _focal_sum(scores, pos, 0.3, 4.0)
        ref_loss, ref_grad = focal_sum_oracle(scores, pos, 0.3, 4.0)
        assert loss.hex() == ref_loss.hex()
        assert same_bits(grad, ref_grad)


def test_full_size_class_pass_matches_oracles():
    """The perfbench `train` shape, 21,824 locations x 15 classes."""
    rng = np.random.default_rng(15)
    logits = rng.uniform(-30.0, 30.0, (21824, 15))
    logits[rng.random(logits.shape) < 0.01] = 0.0
    scores = _sigmoid(logits)
    assert same_bits(scores, sigmoid_oracle(logits))
    pos = np.flatnonzero(rng.random(scores.size) < 0.003)
    loss, grad = _focal_sum(scores, pos, 0.3, 4.0)
    ref_loss, ref_grad = focal_sum_oracle(scores, pos, 0.3, 4.0)
    assert loss.hex() == ref_loss.hex()
    assert same_bits(grad, ref_grad)


def _box(x0, y0, w, h):
    return axis_box(x0, y0, x0 + w, y0 + h)


@st.composite
def scenes(draw):
    """Objects on a small two-level grid, with overlaps and exact-area ties.

    Axis-aligned boxes have integer corners, so equal-area boxes (a box and
    its copies, or w x h against h x w) tie exactly; rotated boxes overlap
    them. Centers on integers make |x - center| == radius happen exactly.
    """
    objects = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["box", "copy", "swap", "rotated"]))
        class_id = draw(st.integers(1, 3))
        difficult = draw(st.booleans())
        if kind in ("copy", "swap") and objects:
            src = objects[draw(st.integers(0, len(objects) - 1))].quad
            b = src.bounds()
            w, h = b.xmax - b.xmin, b.ymax - b.ymin
            if kind == "swap" and float(w).is_integer() and float(h).is_integer():
                w, h = h, w
            dx, dy = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
            x0, y0 = b.xmin + dx, b.ymin + dy
            quad = _box(x0, y0, w, h) if float(x0).is_integer() else src.translated(dx, dy)
        elif kind == "rotated":
            quad = rotated_rect(
                draw(st.integers(0, 64)), draw(st.integers(0, 64)),
                draw(st.integers(3, 60)), draw(st.integers(3, 60)),
                draw(st.sampled_from([0.0, 15.0, 30.0, 45.0, -60.0, 89.0])),
            )
        else:
            quad = _box(
                draw(st.integers(-10, 60)), draw(st.integers(-10, 60)),
                draw(st.integers(1, 60)), draw(st.integers(1, 60)),
            )
        objects.append(GroundTruthObject(quad, class_id, difficult))
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    specs = [FeatureGridSpec(width, height, 4, 2),
             FeatureGridSpec(max(width // 2, 1), max(height // 2, 1), 8, 3)]
    split = draw(st.sampled_from([4.0, 8.0, 12.0, 16.0, 30.0]))
    ranges = LevelRanges([(0, split), (split, math.inf)])
    radius_mult = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 100.0]))
    return specs, ranges, objects, radius_mult


class TestAssignTargets:
    @settings(max_examples=300, deadline=None)
    @given(scenes())
    def test_matches_per_object_loop(self, scene):
        specs, ranges, objects, radius_mult = scene
        got = assign_targets(specs, ranges, objects, radius_mult)
        expected = assign_targets_oracle(specs, ranges, objects, radius_mult)
        assert len(got) == len(expected)
        for level, ref in zip(got, expected):
            for name in ("class_id", "ltrb", "wh", "centerness", "difficult",
                         "object_index", "points", "grid"):
                assert np.array_equal(getattr(level, name), getattr(ref, name)), name
                assert same_bits(getattr(level, name), getattr(ref, name)), name

    def test_exact_area_tie_goes_to_the_first_object(self):
        # the same 16 x 16 area twice, shifted so both claim the grid point (12, 12)
        objects = [GroundTruthObject(_box(5, 5, 16, 16), 2),
                   GroundTruthObject(_box(4, 4, 16, 16), 1)]
        spec = FeatureGridSpec(4, 4, 8, 3)
        ranges = LevelRanges([(0, math.inf)])
        (maps,) = assign_targets([spec], ranges, objects, 10.0)
        (ref,) = assign_targets_oracle([spec], ranges, objects, 10.0)
        assert np.array_equal(maps.object_index, ref.object_index)
        center = 1 * 4 + 1
        assert maps.object_index[center] == 0

    def test_infinite_area_never_claims(self):
        huge = GroundTruthObject(_box(-1e200, -1e200, 2e200, 2e200), 1)
        small = GroundTruthObject(_box(4, 4, 16, 16), 2)
        spec = FeatureGridSpec(4, 4, 8, 3)
        ranges = LevelRanges([(0, math.inf)])
        got = assign_targets([spec], ranges, [huge, small], math.inf)
        ref = assign_targets_oracle([spec], ranges, [huge, small], math.inf)
        assert np.array_equal(got[0].object_index, ref[0].object_index)
        assert 0 not in got[0].object_index


FIELDS = ("class_id", "ltrb", "wh", "centerness", "difficult", "object_index", "points", "grid")


@st.composite
def dense_scenes(draw):
    """scenes() plus objects wholly outside the grid, boxes whose area
    overflows to inf, and single-level ranges."""
    specs, ranges, objects, radius_mult = draw(scenes())
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            quad = _box(draw(st.sampled_from([-300, 400])), draw(st.integers(-300, 400)), 30, 30)
        else:
            quad = _box(-1e200, -1e200, 2e200, 2e200)
        objects.insert(draw(st.integers(0, len(objects))),
                       GroundTruthObject(quad, draw(st.integers(1, 3))))
    if draw(st.booleans()):
        specs, ranges = specs[:1], LevelRanges([(0, math.inf)])
    return specs, ranges, objects, radius_mult


def object_arrays(objects):
    """quads (K, 4, 2), class ids (K,) and difficult flags (K,) of objects."""
    return (quad_arrays([obj.quad for obj in objects]),
            np.array([obj.class_id for obj in objects], dtype=int),
            np.array([obj.difficult for obj in objects], dtype=bool))


class TestDenseAssignment:
    """assign_targets scatters the positives into background maps; building
    every dense field directly, as dense_assign_oracle does, is the oracle."""

    @staticmethod
    def check(specs, ranges, objects, *radius_mult):
        got = assign_targets(specs, ranges, objects, *radius_mult)
        want = dense_assign_oracle(specs, ranges, *object_arrays(objects), *radius_mult)
        assert len(got) == len(want) == len(specs)
        for level, ref in zip(got, want):
            for name in FIELDS:
                assert same_bits(getattr(level, name), getattr(ref, name)), name

    @settings(max_examples=300, deadline=None)
    @given(dense_scenes())
    def test_matches_the_dense_build(self, scene):
        self.check(*scene)

    @pytest.mark.parametrize("objects", [
        [],
        [GroundTruthObject(_box(-1e200, -1e200, 2e200, 2e200), 1)],
        [GroundTruthObject(_box(500, 500, 30, 30), 2), GroundTruthObject(_box(4, 4, 16, 16), 1)],
    ])
    def test_default_radius_and_edge_scenes(self, objects):
        self.check(grid_specs(32, 24, (4, 8)), LevelRanges([(0, 8), (8, math.inf)]), objects)


# A seeded two-level scene: 4 objects (object 1 difficult), 9 positives on
# the stride-8 level and 22 on the stride-16 level, 3 classes.
PINNED_SPECS = grid_specs(128, 128, (8, 16))
PINNED_RANGES = LevelRanges([(0, 24), (24, math.inf)])


def pinned_objects() -> list[GroundTruthObject]:
    rng = np.random.default_rng(2)
    objects = []
    for k in range(4):
        cx, cy = rng.uniform(24.0, 104.0, 2)
        w, h = rng.uniform(8.0, 64.0, 2)
        quad = rotated_rect(cx, cy, w, h, rng.uniform(-90.0, 90.0))
        objects.append(GroundTruthObject(quad, k % 3 + 1, difficult=k == 1))
    return objects


def pinned_scene() -> TargetMaps:
    return TargetMaps.concatenate(assign_targets(PINNED_SPECS, PINNED_RANGES, pinned_objects()))


# float.hex of total, cls_loss, reg_loss and ori_loss at steps 0..40 (lr 0.05),
# with the class sum added exactly; numpy's pairwise sum of the dense entries
# gives a cls_loss a few ulp away from step 3 on, and another total at steps
# 20 and 32
PINNED_TRAJECTORY = (
    "0x1.a0bc6438e65a1p+4 0x1.8f40b5ed9812dp+3 0x1.0550ffb9ed4d5p+9 0x1.1050fd0af6f35p+8",
    "0x1.a0b7eaa5c217ep+4 0x1.8f20fb28ebe7bp+3 0x1.054e2f18f9c8dp+9 0x1.104ef095ed1d5p+8",
    "0x1.a0aef5ec8ce13p+4 0x1.8ee1904128774p+3 0x1.05488cfecfb1ap+9 0x1.104ad5faa84d4p+8",
    "0x1.a09d062307b57p+4 0x1.8e62e4ea9bbc5p+3 0x1.053d456180e56p+9 0x1.104299f98846dp+8",
    "0x1.a0790cd7e024ap+4 0x1.8d6637b6dc10ep+3 0x1.0526a8433d648p+9 0x1.1032069e109d7p+8",
    "0x1.a030b07c49086p+4 0x1.8b6f7fe413df1p+3 0x1.04f93475affd5p+9 0x1.101071064ce6ap+8",
    "0x1.9f9e39122dfe7p+4 0x1.878c8047ccdf2p+3 0x1.049d5637d8cdbp+9 0x1.0fcb7e21491abp+8",
    "0x1.9e718ab9cef15p+4 0x1.7fef72979f453p+3 0x1.03e137592dbb2p+9 0x1.0f3a1280e8831p+8",
    "0x1.9bf2f2ae73e21p+4 0x1.7152e19d5904ep+3 0x1.02534a0cc86f3p+9 0x1.0df58b0b84df9p+8",
    "0x1.9623990e9f96ap+4 0x1.566166da67db6p+3 0x1.fd7091124c270p+8 0x1.0ac15c4335ce0p+8",
    "0x1.840fc9506e9dep+4 0x1.28588049273c5p+3 0x1.e6dc6af0de913p+8 0x1.ff7ece315d0dap+7",
    "0x1.010b7be6b3df2p+4 0x1.c7c496f7d3fc4p+2 0x1.3efb638c39bc8p+8 0x1.57d7944dc6e7bp+7",
    "0x1.8b0e560720d25p+3 0x1.bbc397514d3d5p+2 0x1.0091913322e1fp+8 0x1.dcd50f19fed36p+6",
    "0x1.11e9fd153ef5dp+3 0x1.b8dfbddc97960p+2 0x1.9193bb86d4626p+7 0x1.cd6a838dc3748p+5",
    "0x1.b003413148e82p+2 0x1.b77179cbdaea5p+2 0x1.d57c081ba67a9p+6 0x1.54132e971918ap+6",
    "0x1.442a26beaa042p+2 0x1.b605463e03bcfp+2 0x1.59a34057d7472p+6 0x1.fe1c2cab63ca0p+5",
    "0x1.e4478f64e761fp+1 0x1.b55012041a8e3p+2 0x1.1367689eb01f1p+6 0x1.4cd1d2559cbdep+5",
    "0x1.84c9f133bffc2p+1 0x1.b49b6023ea37ep+2 0x1.e6ca0169f1149p+5 0x1.a7d3abcbab3a0p+4",
    "0x1.205c8fbd2fbe0p+1 0x1.b441400660dd3p+2 0x1.4d9a86d8a00e0p+5 0x1.55214f4a40ad0p+4",
    "0x1.bd6cb9a98535cp+0 0x1.b4143e217641ep+2 0x1.073337c4546d0p+5 0x1.c72e514ed75b5p+3",
    "0x1.964efbd30a0c6p+0 0x1.b3fdc0b81f66bp+2 0x1.e4f28a2349fdep+4 0x1.828e1b2f23410p+3",
    "0x1.93d04e7200b9fp+0 0x1.b3e7455397117p+2 0x1.dcd46e2d171c3p+4 0x1.892ab0f5c90f9p+3",
    "0x1.9036bfe598f04p+0 0x1.b3d0cbf39c562p+2 0x1.d9dd8df525efcp+4 0x1.8130a5b596986p+3",
    "0x1.831b5ffb9c66bp+0 0x1.b3c5902582d9ep+2 0x1.d30213f93cc94p+4 0x1.5c2323e9c30e6p+3",
    "0x1.82095880f4e67p+0 0x1.b3bff276e9b8dp+2 0x1.d26a3a28571b8p+4 0x1.592fc96791e9ap+3",
    "0x1.819658156c548p+0 0x1.b3ba54e8910c0p+2 0x1.d190e96482589p+4 0x1.59279815b6906p+3",
    "0x1.80f01f9e2384cp+0 0x1.b3b4b77a77cf4p+2 0x1.d0f759b8ac58dp+4 0x1.57d96b5635092p+3",
    "0x1.8096052eab438p+0 0x1.b3af1a2c9d004p+2 0x1.d03d09180a9c1p+4 0x1.57f3b4ce73ed4p+3",
    "0x1.7fd19d8bc5f8ep+0 0x1.b3a97cfeff9bap+2 0x1.cf8278a15eecep+4 0x1.567292bb617d2p+3",
    "0x1.7fa775427f7ccp+0 0x1.b3a3dff19e9e5p+2 0x1.ceccc55f0e163p+4 0x1.573d6baac2881p+3",
    "0x1.7ed61734a5553p+0 0x1.b39e430479050p+2 0x1.ce2f7efcf4be8p+4 0x1.554f7a6fdaaa8p+3",
    "0x1.7e977f57df7f2p+0 0x1.b398a6378dccbp+2 0x1.cd7b122bd399dp+4 0x1.55c8960113f27p+3",
    "0x1.7dc58d4ef5f6fp+0 0x1.b393098adbf2dp+2 0x1.ccba284d82e86p+4 0x1.541fae318552cp+3",
    "0x1.7da44a55a8221p+0 0x1.b38d6cfe6273cp+2 0x1.cc19f1c7d168ep+4 0x1.54e205fd17786p+3",
    "0x1.7cc8eec510519p+0 0x1.b387d092204c6p+2 0x1.cb70b9155bc5ep+4 0x1.52e542c7d78a0p+3",
    "0x1.7c9dcf073024dp+0 0x1.b3823446147b5p+2 0x1.cab6e6eb7a7e8p+4 0x1.53b49a41db540p+3",
    "0x1.7bbe0e947ca66p+0 0x1.b37c981a3dfc3p+2 0x1.c9fd76e5f0b81p+4 0x1.51c73ea662968p+3",
    "0x1.7ba931ee5ea8ep+0 0x1.b376fc0e9bcd0p+2 0x1.c96fa473bc38ep+4 0x1.5294da8ce8764p+3",
    "0x1.7ad0e0ec81cd3p+0 0x1.b37160232ceb0p+2 0x1.c8c20dc5bdbf4p+4 0x1.50ac9bf765070p+3",
    "0x1.7aa073fdbf4a3p+0 0x1.b36bc457f0533p+2 0x1.c8105052b22dap+4 0x1.51573ea5e8baap+3",
    "0x1.79bec88f0e187p+0 0x1.b36628ace5029p+2 0x1.c744cd2da3e40p+4 0x1.4f869a789c559p+3",
)
PINNED_FINAL_BATCH = "42e1aea739d803c65fa045956859ba49e320c7afccbd49656a43bb420de56107"
PINNED_FROZEN_BATCH = "440d7e9c6f1cd55587182b6e16954ee855a3a0e6e57573cca727dc9535c25e17"


def batch_digest(batch) -> str:
    h = hashlib.sha256()
    for arr in (batch.class_scores, batch.centerness, batch.ltrb, batch.wh):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def hex_row(breakdown) -> str:
    return " ".join(
        v.hex() for v in (breakdown.total, breakdown.cls_loss, breakdown.reg_loss,
                          breakdown.ori_loss)
    )


class TestPinnedFitDemo:
    def test_scene_shape(self):
        targets = pinned_scene()
        pos = targets.class_id > 0
        assert int(pos[:256].sum()) == 9 and int(pos[256:].sum()) == 22
        assert set(targets.object_index[pos].tolist()) == {0, 1, 2, 3}
        assert targets.difficult[pos].any()

    def test_trajectory_and_final_batch(self):
        result = fit_demo(pinned_scene(), LossWeights(), steps=40, lr=0.05, num_classes=3)
        assert [hex_row(b) for b in result.trajectory] == list(PINNED_TRAJECTORY)
        assert {(b.num_pos, b.normalizer) for b in result.trajectory} == {(31, 31)}
        assert batch_digest(result.final_batch) == PINNED_FINAL_BATCH

    def test_frozen_path(self):
        result = fit_demo(pinned_scene(), LossWeights(), steps=40, lr=0.0, num_classes=3)
        assert [hex_row(b) for b in result.trajectory] == [PINNED_TRAJECTORY[0]] * 41
        assert batch_digest(result.final_batch) == PINNED_FROZEN_BATCH

    @pytest.mark.parametrize("steps, lr, match", [
        (-3, 0.05, "steps"), (8, math.nan, "lr"), (8, -0.05, "lr"), (8, math.inf, "lr"),
    ])
    def test_rejects_bad_arguments(self, steps, lr, match):
        with pytest.raises(ValueError, match=match):
            fit_demo(pinned_scene(), LossWeights(), steps=steps, lr=lr, num_classes=3)


def other_scene(seed: int) -> TargetMaps:
    """Same grid as pinned_scene, other objects: equal-shaped class blocks."""
    rng = np.random.default_rng(seed)
    objects = [
        GroundTruthObject(rotated_rect(*rng.uniform(24.0, 104.0, 2), *rng.uniform(8.0, 64.0, 2),
                                       rng.uniform(-90.0, 90.0)), k % 3 + 1)
        for k in range(3)
    ]
    specs = grid_specs(128, 128, (8, 16))
    return TargetMaps.concatenate(
        assign_targets(specs, LevelRanges([(0, 24), (24, math.inf)]), objects)
    )


class TestIsolation:
    """Results own their arrays: later calls on other scenes leave them alone."""

    def test_fit_demo_result_survives_later_fits(self):
        result = fit_demo(pinned_scene(), LossWeights(), steps=40, lr=0.05, num_classes=3)
        quads, fused = result.decoded_quads.copy(), list(result.fused_scores)
        fit_demo(other_scene(3), LossWeights(), steps=12, lr=0.05, num_classes=3)
        fit_demo(other_scene(4), LossWeights(), steps=5, lr=0.05, num_classes=5)
        assert [hex_row(b) for b in result.trajectory] == list(PINNED_TRAJECTORY)
        assert batch_digest(result.final_batch) == PINNED_FINAL_BATCH
        assert same_bits(result.decoded_quads, quads)
        assert result.fused_scores == fused

    def test_total_loss_gradients_survive_later_calls(self):
        targets = pinned_scene()
        rng = np.random.default_rng(5)

        def preds():
            n = len(targets)
            return PredictionBatch(rng.uniform(0.01, 0.99, (n, 3)), rng.uniform(0.01, 0.99, n),
                                   rng.uniform(1.0, 40.0, (n, 4)), rng.uniform(1.0, 40.0, (n, 2)))

        result = total_loss(preds(), targets, LossWeights())
        names = ("class_score_grad", "centerness_grad", "ltrb_grad", "wh_grad")
        before = {name: getattr(result, name).copy() for name in names}
        total_loss(preds(), targets, LossWeights())
        total_loss(preds(), other_scene(3), LossWeights())
        fit_demo(other_scene(3), LossWeights(), steps=3, lr=0.05, num_classes=3)
        for name in names:
            assert same_bits(getattr(result, name), before[name]), name


@st.composite
def fit_scenes(draw):
    """Targets, num_classes, steps and lr for fit_demo on a few free locations.

    num_classes may exceed the largest class id; "one_class" scenes make
    every location a positive of the only class, so no entry has y = 0;
    long runs on few positives reach the frozen fixed point.
    """
    n = draw(st.integers(1, 10))
    if draw(st.sampled_from(["mixed", "one_class"])) == "one_class":
        labels, num_classes = [1] * n, draw(st.sampled_from([None, 1]))
    else:
        labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
        extra = draw(st.sampled_from([None, 0, 1, 3]))
        num_classes = None if extra is None else max(labels) + extra
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = target_maps(labels, ltrb=rng.uniform(0.5, 40.0, (n, 4)),
                          wh=rng.uniform(0.5, 40.0, (n, 2)), points=rng.uniform(0.0, 64.0, (n, 2)))
    steps = draw(st.one_of(st.integers(0, 30), st.just(200)))
    lr = draw(st.sampled_from([0.0, 0.05, 1e-3, 0.7, 20.0]))
    return targets, num_classes, steps, lr


def counted(run, kernel=_focal_branch):
    """run()'s result and how many loss evaluations it made (one focal pass
    each); kernel stands in for _focal_branch during the run."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_focal_branch", counting)
        result = run()
    return result, len(calls)


def counted_fit(
    fit, targets, num_classes, steps, lr, weights=LossWeights(), kernel=_focal_branch
):
    """fit's result and how many loss evaluations it made."""
    return counted(
        lambda: fit(targets, weights, steps=steps, lr=lr, num_classes=num_classes), kernel
    )


def dense_class_sum(batch: PredictionBatch, targets: TargetMaps) -> float:
    """The focal class sum of batch under the default weights, added exactly
    (math.fsum) over the per-entry branch values of the dense kernel."""
    scores = batch.class_scores
    _, onehot = losses._label_positions(targets.class_id, scores.shape[1])
    weights = LossWeights()
    branch, _ = _focal_branch(scores, onehot, weights.focal_alpha, weights.focal_beta)
    return -math.fsum(branch.ravel().tolist())


class TestGroupedFitDemo:
    """fit_demo's two group logits against a logit per (location, class) entry."""

    @settings(max_examples=40, deadline=None)
    @given(fit_scenes())
    def test_matches_dense_fit(self, scene):
        got, got_evals = counted_fit(fit_demo, *scene)
        want, want_evals = counted_fit(fit_demo_dense_oracle, *scene)
        assert [hex_row(b) for b in got.trajectory] == [hex_row(b) for b in want.trajectory]
        assert [(b.num_pos, b.normalizer) for b in got.trajectory] == [
            (b.num_pos, b.normalizer) for b in want.trajectory
        ]
        assert batch_digest(got.final_batch) == batch_digest(want.final_batch)
        assert same_bits(got.decoded_quads, want.decoded_quads)
        assert [v.hex() for v in got.fused_scores] == [v.hex() for v in want.fused_scores]
        assert got.positive_indices == want.positive_indices
        # the same evaluations: both stop trying at the same fixed point
        assert got_evals == want_evals

    def test_one_class_scene_freezes_as_the_dense_fit_does(self):
        rng = np.random.default_rng(4)
        targets = target_maps([1] * 4, ltrb=rng.uniform(1.0, 30.0, (4, 4)),
                              wh=rng.uniform(0.5, 30.0, (4, 2)))
        got, got_evals = counted_fit(fit_demo, targets, 1, 200, 0.05)
        want, want_evals = counted_fit(fit_demo_dense_oracle, targets, 1, 200, 0.05)
        assert [hex_row(b) for b in got.trajectory] == [hex_row(b) for b in want.trajectory]
        assert got.trajectory[-100:] == [got.trajectory[-1]] * 100  # frozen
        assert got_evals == want_evals

    def test_class_sum_is_the_exact_sum_on_the_pinned_scene(self):
        # a run of k steps ends at the trajectory's row k, so every row is checked
        targets = pinned_scene()
        for steps in range(len(PINNED_TRAJECTORY)):
            result = fit_demo(targets, LossWeights(), steps=steps, lr=0.05, num_classes=3)
            exact = dense_class_sum(result.final_batch, targets)
            assert result.trajectory[-1].cls_loss.hex() == exact.hex(), steps

    @settings(max_examples=40, deadline=None)
    @given(fit_scenes())
    def test_class_sum_is_the_exact_sum(self, scene):
        targets, num_classes, steps, lr = scene
        result = fit_demo(targets, LossWeights(), steps=steps, lr=lr, num_classes=num_classes)
        exact = dense_class_sum(result.final_batch, targets)
        assert result.trajectory[-1].cls_loss.hex() == exact.hex()

    def test_a_group_with_no_entry_is_not_a_move(self):
        # With no pull on y = 1 entries and no regression weight, only the
        # y = 0 logit has a gradient. When every location is a positive of
        # the only class, no entry has y = 0, so the first step moves
        # nothing and the fit is at its fixed point.
        def no_pull_on_positives(scores, pos, *args, **kwargs):
            branch, grad = _focal_branch(scores, pos, *args, **kwargs)
            grad.flat[pos] = 0.0
            return branch, grad

        targets = target_maps([1] * 3, ltrb=np.full((3, 4), 5.0), wh=np.full((3, 2), 2.0))
        weights = LossWeights(reg_weight=0.0, ori_weight=0.0)
        for fit in (fit_demo, fit_demo_dense_oracle):
            result, evals = counted_fit(fit, targets, 1, 20, 0.05, weights, no_pull_on_positives)
            assert evals == 2, fit.__name__  # the start and one trial
            assert result.trajectory == [result.trajectory[0]] * 21
        # with a y = 0 entry, that logit moves on every step
        targets = target_maps([1, 1, 0], ltrb=np.full((3, 4), 5.0), wh=np.full((3, 2), 2.0))
        _, evals = counted_fit(fit_demo, targets, 1, 20, 0.05, weights, no_pull_on_positives)
        assert evals > 2


def positives_fit(specs, ranges, objects, radius_mult, num_classes, steps, lr):
    """The fit-demo command's path: the positives of all levels as one
    record, fitted with no dense map. Returns the positives' rows in the
    concatenated dense maps (the level offset + y_s * W + x_s), the
    positives and the fit (trajectory, group scores, predictions, decoded
    quads, fused scores)."""
    pos, starts = _assign_positives(specs, ranges, *object_arrays(objects), radius_mult)
    sizes = [spec.width * spec.height for spec in specs]
    per_row = np.diff(starts)
    offset = np.repeat(np.cumsum([0, *sizes[:-1]]), per_row)
    width = np.repeat([spec.width for spec in specs], per_row)
    loc = offset + pos.grid[:, 1] * width + pos.grid[:, 0]
    return loc, pos, _fit_positives(sum(sizes), pos.class_id, (pos.centerness, pos.ltrb, pos.wh),
                                    pos.points, LossWeights(), steps, lr, num_classes)


@st.composite
def positive_fit_scenes(draw):
    """A scene with positives, num_classes, steps and lr."""
    specs, ranges, objects, radius_mult = draw(scenes())
    levels = assign_targets(specs, ranges, objects, radius_mult)
    assume(any(level.class_id.any() for level in levels))
    num_classes = draw(st.integers(3, 5))
    steps = draw(st.one_of(st.integers(0, 20), st.just(120)))
    lr = draw(st.sampled_from([0.0, 0.05, 0.7, 20.0]))
    return specs, ranges, objects, radius_mult, num_classes, steps, lr


class TestPositivesOnlyFit:
    """fit-demo's fit from the positives alone against the public fit_demo on
    the concatenated dense maps: the same floats and the same evaluations."""

    def check(self, specs, ranges, objects, radius_mult, num_classes, steps, lr):
        flat = TargetMaps.concatenate(assign_targets(specs, ranges, objects, radius_mult))
        want, want_evals = counted(lambda: fit_demo(
            flat, LossWeights(), steps=steps, lr=lr, num_classes=num_classes))
        (loc, pos, fit), got_evals = counted(lambda: positives_fit(
            specs, ranges, objects, radius_mult, num_classes, steps, lr))
        trajectory, _, _, decoded, fused = fit
        assert [hex_row(b) for b in trajectory] == [hex_row(b) for b in want.trajectory]
        assert [(b.num_pos, b.normalizer) for b in trajectory] == [
            (b.num_pos, b.normalizer) for b in want.trajectory
        ]
        assert loc.tolist() == want.positive_indices
        assert same_bits(pos.object_index, flat.object_index[want.positive_indices])
        assert same_bits(decoded, want.decoded_quads)
        assert [v.hex() for v in fused.tolist()] == [v.hex() for v in want.fused_scores]
        assert got_evals == want_evals

    def test_pinned_scene(self):
        self.check(PINNED_SPECS, PINNED_RANGES, pinned_objects(), 1.5, 3, 40, 0.05)

    @settings(max_examples=60, deadline=None)
    @given(positive_fit_scenes())
    def test_drawn_scenes(self, scene):
        self.check(*scene)

    def test_class_id_above_num_classes_raises_the_same_error(self):
        flat = pinned_scene()
        with pytest.raises(ShapeMismatch) as dense:
            fit_demo(flat, LossWeights(), steps=4, lr=0.05, num_classes=2)
        with pytest.raises(ShapeMismatch) as positives:
            positives_fit(PINNED_SPECS, PINNED_RANGES, pinned_objects(), 1.5, 2, 4, 0.05)
        assert str(positives.value) == str(dense.value)
        assert str(dense.value) == "target class id 3 exceeds 2 prediction classes"
