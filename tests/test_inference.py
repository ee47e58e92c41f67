import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit import inference
from obbkit.errors import ShapeMismatch
from obbkit.geometry import polygon_iou, polygon_iou_block, quad_arrays
from obbkit.inference import (
    Detection,
    InferenceConfig,
    decode_location,
    fuse_scores,
    rotated_nms,
    run_inference,
)
from obbkit.losses import PredictionBatch
from obbkit.targets import (
    FeatureGridSpec,
    GroundTruthObject,
    LevelRanges,
    assign_targets,
)

from helpers import axis_box, random_rect, rotated_nms_oracle, rotated_rect


class TestFuseScores:
    def test_perfect(self):
        assert fuse_scores(1.0, 1.0) == 1.0

    def test_product(self):
        assert abs(fuse_scores(0.8, 0.5) - 0.4) < 1e-15

    def test_zero_centerness_kills_score(self):
        assert fuse_scores(0.9, 0.0) == 0.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            fuse_scores(1.5, 0.5)


class TestDecodeLocation:
    def test_axis_aligned(self):
        spec = FeatureGridSpec(8, 8, 1, 0)
        quad = decode_location(spec, 2, 1, (2, 1, 2, 1), (0, 0))
        b = quad.bounds()
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (0, 0, 4, 2)
        assert quad.as_flat() == (0, 0, 4, 0, 4, 2, 0, 2)

    def test_diamond(self):
        spec = FeatureGridSpec(8, 8, 1, 0)
        quad = decode_location(spec, 1, 1, (1, 1, 1, 1), (1, 1))
        assert quad.as_flat() == (0, 1, 1, 0, 2, 1, 1, 2)

    def test_oversized_orientation_clamped(self):
        spec = FeatureGridSpec(8, 8, 1, 0)
        quad = decode_location(spec, 2, 1, (2, 1, 2, 1), (50, 50))
        b = quad.bounds()
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (0, 0, 4, 2)


def det(quad, class_id=1, score=0.5):
    return Detection(quad, class_id, score)


clustered_dets = st.lists(
    st.builds(
        lambda cx, cy, w, h, angle, class_id, score: Detection(
            rotated_rect(cx, cy, w, h, angle), class_id, score
        ),
        st.floats(0, 60),
        st.floats(0, 60),
        st.floats(4, 40),
        st.floats(4, 40),
        st.floats(-90, 90),
        st.integers(1, 3),
        st.sampled_from([0.2, 0.5, 0.5, 0.9]),  # ties on purpose
    ),
    max_size=25,
)


@contextlib.contextmanager
def nms_band(pairs):
    """Set rotated_nms's band size for the duration of the block."""
    saved = inference.NMS_PAIRS_PER_BAND
    inference.NMS_PAIRS_PER_BAND = pairs
    try:
        yield
    finally:
        inference.NMS_PAIRS_PER_BAND = saved


class TestRotatedNms:
    def test_single_detection_kept(self):
        d = det(axis_box(0, 0, 2, 2))
        assert rotated_nms([d], 0.5) == [d]

    def test_identical_quads_suppressed(self):
        q = rotated_rect(5, 5, 4, 2, 30)
        keep = rotated_nms([det(q, 1, 0.9), det(q, 1, 0.8)], 0.5)
        assert len(keep) == 1
        assert keep[0].score == 0.9

    def test_per_class_suppression(self):
        q = axis_box(0, 0, 2, 2)
        keep = rotated_nms([det(q, 1, 0.9), det(q, 2, 0.8)], 0.5)
        assert len(keep) == 2

    def test_subset_sorted_and_idempotent(self):
        rng = np.random.default_rng(55)
        dets = [
            det(random_rect(rng, 40, 4, 30), int(rng.integers(1, 3)), float(rng.random()))
            for _ in range(30)
        ]
        keep = rotated_nms(dets, 0.4)
        assert all(k in dets for k in keep)
        scores = [k.score for k in keep]
        assert scores == sorted(scores, reverse=True)
        assert rotated_nms(keep, 0.4) == keep

    def test_score_tie_broken_by_input_index(self):
        q = axis_box(0, 0, 2, 2)
        a = det(q, 1, 0.5)
        b = det(q.translated(0.1, 0), 1, 0.5)
        keep = rotated_nms([a, b], 0.5)
        assert keep == [a]

    def test_threshold_one_keeps_everything_in_score_order(self):
        q = axis_box(0, 0, 2, 2)
        a, b, c = det(q, 1, 0.5), det(q, 1, 0.9), det(q, 1, 0.5)
        assert rotated_nms([a, b, c], 1.0) == [b, a, c]

    @pytest.mark.parametrize("thresh", [-0.5, 1.5, math.nan])
    def test_threshold_outside_unit_interval(self, thresh):
        with pytest.raises(ValueError, match="must lie in"):
            rotated_nms([det(axis_box(0, 0, 2, 2))], thresh)

    @settings(max_examples=150, deadline=None)
    @given(clustered_dets, st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1, 60, 1 << 18]))
    def test_matches_scalar_oracle(self, dets, thresh, band):
        # 1 and 60 split the block into bands of one and of several rows
        with nms_band(band):
            got = rotated_nms(dets, thresh)
        want = rotated_nms_oracle(dets, thresh)
        assert [id(d) for d in got] == [id(d) for d in want]

    def test_2000_scattered_boxes_all_kept_in_score_order(self):
        # one class on a 50 x 40 grid of 25 px cells: neighbours' HBBs
        # overlap, their IoU stays far below 0.5 (the scalar loop took 23.7 s)
        rng = np.random.default_rng(2000)
        dets = []
        for k in range(2000):
            cx = 25.0 * (k % 50) + rng.uniform(-3, 3)
            cy = 25.0 * (k // 50) + rng.uniform(-3, 3)
            w, h = rng.uniform(10, 30, 2)
            dets.append(det(rotated_rect(cx, cy, w, h, rng.uniform(-90, 90)), 1, float(rng.random())))
        quads = quad_arrays([d.quad for d in dets])
        assert np.tril(polygon_iou_block(quads, quads) > 0.0, -1).sum() > 500
        order = sorted(range(2000), key=lambda i: (-dets[i].score, i))
        assert rotated_nms(dets, 0.5) == [dets[i] for i in order]


def batch_for(spec, entries, num_classes=2):
    """entries: {(x_s, y_s): (class_scores, centerness, ltrb, wh)}"""
    n = spec.width * spec.height
    scores = np.full((n, num_classes), 1e-4)
    cent = np.full(n, 1e-4)
    ltrb = np.ones((n, 4))
    wh = np.zeros((n, 2))
    for (x_s, y_s), (cls_scores, c, box, orient) in entries.items():
        idx = y_s * spec.width + x_s
        scores[idx] = cls_scores
        cent[idx] = c
        ltrb[idx] = box
        wh[idx] = orient
    return PredictionBatch(scores, cent, ltrb, wh)


class TestRunInference:
    def test_empty_maps(self):
        spec = FeatureGridSpec(4, 4, 8, 3)
        batch = batch_for(spec, {})
        assert run_inference([batch], [spec]) == []

    def test_single_hot_location(self):
        spec = FeatureGridSpec(4, 4, 8, 3)
        batch = batch_for(spec, {(1, 1): ((0.9, 1e-4), 0.8, (4, 4, 4, 4), (2, 2))})
        dets = run_inference([batch], [spec])
        assert len(dets) == 1
        assert dets[0].class_id == 1
        assert abs(dets[0].score - 0.72) < 1e-12
        expected = decode_location(spec, 1, 1, (4, 4, 4, 4), (2, 2))
        assert polygon_iou(dets[0].quad, expected) == 1.0

    def test_two_object_scene_recovered(self):
        spec = FeatureGridSpec(8, 8, 8, 3)
        intended = {
            (1, 1): rotated_rect(12, 12, 16, 8, 30),
            (5, 5): rotated_rect(44, 44, 20, 12, -45),
        }
        entries = {}
        for (x_s, y_s), quad in intended.items():
            from obbkit.geometry import encode
            from obbkit.targets import grid_to_image, ltrb_targets

            enc = encode(quad)
            point = grid_to_image(spec, x_s, y_s)
            box = ltrb_targets(point, enc.hbb)
            entries[(x_s, y_s)] = ((0.95, 1e-4), 0.9, box, (enc.w, enc.h))
        batch = batch_for(spec, entries)
        dets = run_inference([batch], [spec])
        assert len(dets) == 2
        for d in dets:
            best = max(polygon_iou(d.quad, q) for q in intended.values())
            assert best >= 0.99

    def test_raising_threshold_never_adds_detections(self):
        rng = np.random.default_rng(66)
        spec = FeatureGridSpec(6, 6, 8, 3)
        n = spec.width * spec.height
        batch = PredictionBatch(
            rng.uniform(0.01, 0.99, (n, 2)),
            rng.uniform(0.01, 0.99, n),
            rng.uniform(1, 20, (n, 4)),
            rng.uniform(0, 3, (n, 2)),
        )
        counts = []
        for thresh in (0.05, 0.2, 0.5, 0.8):
            cfg = InferenceConfig(score_threshold=thresh, nms_iou_threshold=1.0)
            counts.append(len(run_inference([batch], [spec], cfg)))
        assert counts == sorted(counts, reverse=True)

    def test_nms_can_be_disabled(self):
        # two near-duplicate boxes around adjacent locations
        spec = FeatureGridSpec(2, 1, 8, 3)
        entries = {
            (0, 0): ((0.9, 1e-4), 1 - 1e-9, (4.0, 4.0, 4.0, 4.0), (0, 0)),
            (1, 0): ((0.8, 1e-4), 1 - 1e-9, (11.9, 4.0, -3.9 + 8.0, 4.0), (0, 0)),
        }
        batch = batch_for(spec, entries)
        with_nms = run_inference([batch], [spec], InferenceConfig(nms_iou_threshold=0.3))
        without = run_inference([batch], [spec], InferenceConfig(nms_iou_threshold=1.0))
        assert len(with_nms) == 1
        assert len(without) == 2

    def test_max_detections_truncates(self):
        spec = FeatureGridSpec(3, 3, 8, 3)
        entries = {
            (x, y): ((0.5 + 0.01 * (x + y), 1e-4), 0.9, (4, 4, 4, 4), (0, 0))
            for x in range(3)
            for y in range(3)
        }
        batch = batch_for(spec, entries)
        cfg = InferenceConfig(max_detections=3, nms_iou_threshold=1.0)
        dets = run_inference([batch], [spec], cfg)
        assert len(dets) == 3
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)

    def test_shape_mismatch(self):
        spec = FeatureGridSpec(4, 4, 8, 3)
        batch = batch_for(FeatureGridSpec(2, 2, 8, 3), {})
        with pytest.raises(ShapeMismatch):
            run_inference([batch], [spec])


class TestTargetDecodeIdentity:
    def test_assigned_targets_decode_to_object(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            quad = random_rect(rng, 120, 16, 90)
            obj = GroundTruthObject(quad, 1)
            specs = [FeatureGridSpec(32, 32, 8, 3)]
            levels = assign_targets(specs, LevelRanges([(0, math.inf)]), [obj])
            positives = [t for t in levels[0] if t.is_positive]
            assert positives
            for t in positives:
                decoded = decode_location(specs[0], t.x_s, t.y_s, t.ltrb, t.wh)
                assert polygon_iou(decoded, quad) >= 1 - 1e-9
