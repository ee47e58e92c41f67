import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obbkit import geometry, inference
from obbkit.errors import ShapeMismatch
from obbkit.geometry import (
    Point2,
    encode,
    hbb_overlap,
    polygon_iou,
    polygon_iou_pairs,
    quad_arrays,
    quad_from_offsets,
    quad_list,
    quads_from_offsets,
)
from obbkit.inference import (
    Detection,
    DetectionSet,
    nms_per_image,
    run_inference,
)
from obbkit.losses import PredictionBatch
from obbkit.targets import (
    FeatureGridSpec,
    GroundTruthObject,
    LevelRanges,
    assign_targets,
    grid_specs,
)

from helpers import (
    axis_box,
    grid_to_image,
    nms_keep_oracle,
    polygon_iou_block,
    random_rect,
    rotated_nms_oracle,
    rotated_rect,
    run_inference_oracle,
)


def one_location(class_score, centerness, ltrb=(1, 1, 1, 1), wh=(0, 0)):
    """A prediction batch of one location and one class."""
    return PredictionBatch([[class_score]], [centerness], [ltrb], [wh])


class TestFuseScores:
    """The fused score run_inference gives: class score x centerness."""

    @staticmethod
    def fused(class_score, centerness):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "SCORE_THRESHOLD", 0.0)
            (d,) = run_inference(
                [one_location(class_score, centerness)], [FeatureGridSpec(1, 1, 8, 3)]
            )
        return d.score

    def test_perfect(self):
        assert self.fused(1.0, 1.0) == 1.0

    def test_product(self):
        assert abs(self.fused(0.8, 0.5) - 0.4) < 1e-15

    def test_zero_centerness_kills_score(self):
        assert self.fused(0.9, 0.0) == 0.0
        assert run_inference([one_location(0.9, 0.0)], [FeatureGridSpec(1, 1, 8, 3)]) == []

    def test_range_check(self):
        with pytest.raises(ValueError, match="must lie in"):
            self.fused(1.5, 0.5)


class TestDecodeLocation:
    """run_inference decodes a location's offsets around its grid point."""

    @staticmethod
    def decode_at(spec, x_s, y_s, ltrb, wh):
        n = spec.width * spec.height
        scores = np.zeros((n, 1))
        scores[y_s * spec.width + x_s] = 1.0
        batch = PredictionBatch(scores, np.ones(n), np.tile(ltrb, (n, 1)), np.tile(wh, (n, 1)))
        (d,) = run_inference([batch], [spec])
        return d.quad

    def test_axis_aligned(self):
        spec = FeatureGridSpec(8, 8, 1, 0)
        quad = self.decode_at(spec, 2, 1, (2, 1, 2, 1), (0, 0))
        b = quad.bounds()
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (0, 0, 4, 2)
        assert quad.as_flat() == (0, 0, 4, 0, 4, 2, 0, 2)

    def test_diamond(self):
        spec = FeatureGridSpec(8, 8, 1, 0)
        quad = self.decode_at(spec, 1, 1, (1, 1, 1, 1), (1, 1))
        assert quad.as_flat() == (0, 1, 1, 0, 2, 1, 1, 2)

    def test_oversized_orientation_clamped(self):
        spec = FeatureGridSpec(8, 8, 1, 0)
        quad = self.decode_at(spec, 2, 1, (2, 1, 2, 1), (50, 50))
        b = quad.bounds()
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (0, 0, 4, 2)

    def test_grid_point_uses_half_stride(self):
        spec = FeatureGridSpec(4, 4, 8, 3)
        quad = self.decode_at(spec, 2, 1, (4, 4, 4, 4), (0, 0))
        assert quad.as_flat() == (16, 8, 24, 8, 24, 16, 16, 16)


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


def nms_band(pairs):
    """Set the band size of the candidate-pair finder (NMS and matching) for the block."""
    return mock.patch.object(geometry, "PAIRS_PER_BAND", pairs)


def assert_band_pairs(quads, groups, partners, budget):
    """geometry._band_pairs at the given budget yields consecutive bands
    that cover every row and expand at most max(budget, largest group)
    partners each, and its pairs are exactly the same-group pairs of
    hbb_overlap (earlier partners only when the rows pair with each other)."""
    sweeps, real = [], geometry._sweep_ranges

    def recording(*args):
        sweeps.append(real(*args))
        return sweeps[-1]

    with nms_band(budget), mock.patch.object(geometry, "_sweep_ranges", recording):
        bands = list(geometry._band_pairs(quads, groups, partners))
    lo, hi, _ = sweeps[0]
    expanded = (hi - lo)[len(lo) - len(quads):]  # the rows follow any partners
    keys = groups if partners is None else partners[1]
    largest = max(np.unique(keys, return_counts=True)[1], default=0)
    edges = [0] + [bottom for _, bottom, _, _ in bands]
    assert [top for top, _, _, _ in bands] == edges[:-1] and edges[-1] == len(quads)
    for top, bottom, row, partner in bands:
        assert top < bottom and expanded[top:bottom].sum() <= max(budget, largest)
        assert ((top <= row) & (row < bottom)).all() and (np.diff(row) >= 0).all()
    empty = np.zeros(0, dtype=int)
    row, partner = (np.concatenate([empty] + [band[i] for band in bands]) for i in (2, 3))
    if partners is None:
        want = np.tril(hbb_overlap(quads, quads) & (groups[:, None] == groups), -1)
    else:
        want = hbb_overlap(quads, partners[0]) & (groups[:, None] == partners[1])
    order = np.lexsort((partner, row))
    assert [row[order].tolist(), partner[order].tolist()] == [x.tolist() for x in np.nonzero(want)]


def nms_one_image(dets, iou_thresh):
    """nms_per_image on one image's Detection list: the kept detections in visit order."""
    return nms_per_image(DetectionSet.from_mapping({"img": dets}), iou_thresh).per_image()["img"]


class TestRotatedNms:
    def test_single_detection_kept(self):
        d = det(axis_box(0, 0, 2, 2))
        assert nms_one_image([d], 0.5) == [d]

    def test_identical_quads_suppressed(self):
        q = rotated_rect(5, 5, 4, 2, 30)
        keep = nms_one_image([det(q, 1, 0.9), det(q, 1, 0.8)], 0.5)
        assert len(keep) == 1
        assert keep[0].score == 0.9

    def test_per_class_suppression(self):
        q = axis_box(0, 0, 2, 2)
        keep = nms_one_image([det(q, 1, 0.9), det(q, 2, 0.8)], 0.5)
        assert len(keep) == 2

    def test_subset_sorted_and_idempotent(self):
        rng = np.random.default_rng(55)
        dets = [
            det(random_rect(rng, 40, 4, 30), int(rng.integers(1, 3)), float(rng.random()))
            for _ in range(30)
        ]
        keep = nms_one_image(dets, 0.4)
        assert all(k in dets for k in keep)
        scores = [k.score for k in keep]
        assert scores == sorted(scores, reverse=True)
        assert nms_one_image(keep, 0.4) == keep

    def test_score_tie_broken_by_input_index(self):
        q = axis_box(0, 0, 2, 2)
        a = det(q, 1, 0.5)
        b = det(q.translated(0.1, 0), 1, 0.5)
        keep = nms_one_image([a, b], 0.5)
        assert keep == [a]

    def test_threshold_one_keeps_everything_in_score_order(self):
        q = axis_box(0, 0, 2, 2)
        a, b, c = det(q, 1, 0.5), det(q, 1, 0.9), det(q, 1, 0.5)
        assert nms_one_image([a, b, c], 1.0) == [b, a, c]

    @pytest.mark.parametrize("thresh", [-0.5, 1.5, math.nan])
    def test_threshold_outside_unit_interval(self, thresh):
        with pytest.raises(ValueError, match="must lie in"):
            nms_one_image([det(axis_box(0, 0, 2, 2))], thresh)

    @settings(max_examples=150, deadline=None)
    @given(clustered_dets, st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1, 60, 1 << 18]))
    def test_matches_scalar_oracle(self, dets, thresh, band):
        # 1 and 60 split the block into bands of one and of several rows
        with nms_band(band):
            got = nms_one_image(dets, thresh)
        want = rotated_nms_oracle(dets, thresh)
        assert got == want

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
        assert nms_one_image(dets, 0.5) == [dets[i] for i in order]


@st.composite
def jittered_clusters(draw):
    """(quads, classes, scores) arrays: clusters of jittered copies of a
    rotated box, classes 1-3 interleaved within a cluster, scores from a
    few values so that ties occur."""
    quads, classes, scores = [], [], []
    for _ in range(draw(st.integers(0, 5))):
        cx, cy = draw(st.floats(0, 80)), draw(st.floats(0, 80))
        w, h, angle = draw(st.floats(6, 30)), draw(st.floats(4, 20)), draw(st.floats(-90, 90))
        for _ in range(draw(st.integers(1, 12))):
            dx, dy, da = (draw(st.floats(-2, 2)) for _ in range(3))
            quads.append(rotated_rect(cx + dx, cy + dy, w, h, angle + 5 * da))
            classes.append(draw(st.integers(1, 3)))
            scores.append(draw(st.sampled_from([0.3, 0.6, 0.6, 0.9])))
    return quad_arrays(quads), np.array(classes), np.array(scores)


class TestNmsKeep:
    """_nms_keep against the band loop that clips every candidate pair."""

    @settings(max_examples=150, deadline=None)
    @given(jittered_clusters(), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([1, 7, 64, 512]))
    @example((quad_arrays([]), np.zeros(0, dtype=int), np.zeros(0)), 0.5, 7)
    def test_matches_band_oracle(self, boxes, thresh, band_pairs):
        # a budget of 1 pair gives bands of one row, larger ones bands of a
        # few rows, whose pairs reach back to kept and to suppressed rows
        # of earlier bands as well as into their own band
        with nms_band(band_pairs):
            got = inference._nms_keep(*boxes, thresh)
            want = nms_keep_oracle(*boxes, thresh)
        assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(jittered_clusters(), st.sampled_from([1, 7, 64, 512]))
    def test_bands_stay_within_the_pair_budget(self, boxes, band_pairs):
        quads, classes, _ = boxes
        # the rows with each other (NMS), and odd rows against even ones (matching)
        assert_band_pairs(quads, classes, None, band_pairs)
        assert_band_pairs(quads[1::2], classes[1::2], (quads[::2], classes[::2]), band_pairs)

    def test_sweep_ranges_hold_every_overlapping_pair(self):
        # rounded corners, duplicates and zero-width boxes; a zero-width
        # box still passes the strict HBB test against a wider box around it
        rng = np.random.default_rng(11)
        quads = np.round(quad_arrays([random_rect(rng, 60, 0, 20) for _ in range(150)]))
        quads[::7, :, 0] = quads[::7, :1, 0]
        quads[1::9] = quads[::9][: len(quads[1::9])]
        classes = rng.integers(1, 4, 150)
        overlap = hbb_overlap(quads, quads) & (classes[:, None] == classes[None, :])
        assert overlap[::7].any()
        some = rng.random(150) < 0.4
        for band_pairs in (1, 7, 64, 1 << 18):
            # every row as a partner (NMS), and only some rows against the others (matching)
            assert_band_pairs(quads, classes, None, band_pairs)
            partners = (quads[some], classes[some])
            assert_band_pairs(quads[~some], classes[~some], partners, band_pairs)

    @staticmethod
    def counted_keep(monkeypatch, quads, classes, scores, thresh):
        """_nms_keep with the sizes of its polygon_iou_pairs calls."""
        clipped = []

        def counting(a, b):
            clipped.append(len(a))
            return polygon_iou_pairs(a, b)

        with monkeypatch.context() as patch:
            patch.setattr(inference, "polygon_iou_pairs", counting)
            return inference._nms_keep(quads, classes, scores, thresh), clipped

    def test_clips_one_pair_per_suppressed_row(self, monkeypatch):
        # 8 clusters of 8 jittered boxes: once each cluster's best row is
        # kept, its 7 other rows are suppressed by the pair with it, and
        # their pairs with each other are never clipped
        rng = np.random.default_rng(7)
        quads = quad_arrays([
            rotated_rect(40.0 * (k // 8) + rng.uniform(-1, 1), rng.uniform(-1, 1), 20, 10,
                         30 + rng.uniform(-3, 3))
            for k in range(64)
        ])
        classes, scores = np.ones(64, dtype=int), rng.random(64)
        want = nms_keep_oracle(quads, classes, scores, 0.5)
        got, clipped = self.counted_keep(monkeypatch, quads, classes, scores, 0.5)
        assert np.array_equal(got, want)
        assert len(want) == 8  # one survivor per cluster
        assert sum(clipped) == 56 < 8 * 28
        assert len(clipped) <= inference._NMS_ROUNDS

    @pytest.mark.parametrize("step, thresh, survivors", [(7, 0.5, 200), (7, 0.1, 100), (4, 0.5, 200)])
    def test_chain_falls_back_after_the_rounds(self, monkeypatch, step, thresh, survivors):
        # 10 px squares `step` px apart, scored along the chain: each waits
        # on the one before it, so the rounds settle only the head of the
        # chain. At step 7 a square overlaps its neighbours only (IoU 3/17);
        # at step 4 also the squares two away (IoU 3/7 and 1/9).
        quads = quad_arrays([axis_box(step * k, 0.0, step * k + 10, 10.0) for k in range(200)])
        classes, scores = np.ones(200, dtype=int), np.linspace(1.0, 0.0, 200)
        want = nms_keep_oracle(quads, classes, scores, thresh)
        got, clipped = self.counted_keep(monkeypatch, quads, classes, scores, thresh)
        assert np.array_equal(got, want)
        assert len(want) == survivors
        assert len(clipped) <= inference._NMS_ROUNDS + 1
        # no pair is clipped twice; at 0.1 pairs with a suppressed square are skipped
        pairs = 199 if step == 7 else 199 + 198
        assert sum(clipped) == pairs if thresh == 0.5 else sum(clipped) < pairs


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
        expected = quad_from_offsets(Point2(12, 12), (4, 4, 4, 4), (2, 2))
        assert polygon_iou(dets[0].quad, expected) == 1.0

    def test_two_object_scene_recovered(self):
        spec = FeatureGridSpec(8, 8, 8, 3)
        intended = {
            (1, 1): rotated_rect(12, 12, 16, 8, 30),
            (5, 5): rotated_rect(44, 44, 20, 12, -45),
        }
        entries = {}
        for (x_s, y_s), quad in intended.items():
            enc = encode(quad)
            point, b = grid_to_image(spec, x_s, y_s), enc.hbb
            box = (point.x - b.xmin, point.y - b.ymin, b.xmax - point.x, b.ymax - point.y)
            entries[(x_s, y_s)] = ((0.95, 1e-4), 0.9, box, (enc.w, enc.h))
        batch = batch_for(spec, entries)
        dets = run_inference([batch], [spec])
        assert len(dets) == 2
        for d in dets:
            best = max(polygon_iou(d.quad, q) for q in intended.values())
            assert best >= 0.99

    def test_raising_threshold_never_adds_detections(self, monkeypatch):
        rng = np.random.default_rng(66)
        spec = FeatureGridSpec(6, 6, 8, 3)
        n = spec.width * spec.height
        batch = PredictionBatch(
            rng.uniform(0.01, 0.99, (n, 2)),
            rng.uniform(0.01, 0.99, n),
            rng.uniform(1, 20, (n, 4)),
            rng.uniform(0, 3, (n, 2)),
        )
        monkeypatch.setattr(inference, "NMS_IOU_THRESHOLD", 1.0)
        counts = []
        for thresh in (0.05, 0.2, 0.5, 0.8):
            monkeypatch.setattr(inference, "SCORE_THRESHOLD", thresh)
            counts.append(len(run_inference([batch], [spec])))
        assert counts == sorted(counts, reverse=True)

    def test_nms_can_be_disabled(self, monkeypatch):
        # two near-duplicate boxes around adjacent locations
        spec = FeatureGridSpec(2, 1, 8, 3)
        entries = {
            (0, 0): ((0.9, 1e-4), 1 - 1e-9, (4.0, 4.0, 4.0, 4.0), (0, 0)),
            (1, 0): ((0.8, 1e-4), 1 - 1e-9, (11.9, 4.0, -3.9 + 8.0, 4.0), (0, 0)),
        }
        batch = batch_for(spec, entries)
        monkeypatch.setattr(inference, "NMS_IOU_THRESHOLD", 0.3)
        with_nms = run_inference([batch], [spec])
        monkeypatch.setattr(inference, "NMS_IOU_THRESHOLD", 1.0)
        without = run_inference([batch], [spec])
        assert len(with_nms) == 1
        assert len(without) == 2

    def test_max_detections_truncates(self, monkeypatch):
        spec = FeatureGridSpec(3, 3, 8, 3)
        entries = {
            (x, y): ((0.5 + 0.01 * (x + y), 1e-4), 0.9, (4, 4, 4, 4), (0, 0))
            for x in range(3)
            for y in range(3)
        }
        batch = batch_for(spec, entries)
        monkeypatch.setattr(inference, "MAX_DETECTIONS", 3)
        monkeypatch.setattr(inference, "NMS_IOU_THRESHOLD", 1.0)
        dets = run_inference([batch], [spec])
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
            (maps,) = assign_targets(specs, LevelRanges([(0, math.inf)]), [obj])
            pos = maps.class_id > 0
            assert pos.any()
            decoded = quads_from_offsets(maps.points[pos], maps.ltrb[pos], maps.wh[pos])
            for q in quad_list(decoded):
                assert polygon_iou(q, quad) >= 1 - 1e-9


# few distinct values, so fused scores tie across locations and classes
unit_scores = st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.8, 1.0])


@st.composite
def prediction_maps(draw):
    """One to three levels of small grids with shared class count and tied scores."""
    num_classes = draw(st.integers(1, 3))
    specs, batches = [], []
    for level in range(draw(st.integers(1, 3))):
        stride = draw(st.sampled_from([4, 8, 16]))
        spec = FeatureGridSpec(draw(st.integers(1, 4)), draw(st.integers(1, 3)), stride, level)
        n = spec.width * spec.height
        arr = lambda elems, size: np.array(draw(st.lists(elems, min_size=size, max_size=size)))
        ltrb = arr(st.floats(0.0, 3.0 * stride), 4 * n).reshape(n, 4)
        wh = arr(st.floats(-stride, 4.0 * stride), 2 * n).reshape(n, 2)
        batches.append(PredictionBatch(
            arr(unit_scores, n * num_classes).reshape(n, num_classes), arr(unit_scores, n), ltrb, wh
        ))
        specs.append(spec)
    return batches, specs


def single_level(values, spec=FeatureGridSpec(3, 2, 8, 3)):
    """A two-class batch on spec: scores 0.5 everywhere except the overrides in values."""
    n = spec.width * spec.height
    fields = dict(
        class_scores=np.full((n, 2), 0.5),
        centerness=np.full(n, 0.5),
        ltrb=np.full((n, 4), 6.0),
        wh=np.full((n, 2), 2.0),
    )
    for (name, index), value in values.items():
        fields[name][index] = value
    return [PredictionBatch(**fields)], [spec]


class TestRunInferenceArrays:
    @settings(max_examples=200, deadline=None)
    @given(
        prediction_maps(),
        st.sampled_from([0.0, 0.2, 0.25, 1.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0, 3, 2000]),
    )
    def test_matches_scalar_oracle(self, maps, score_thresh, nms_thresh, max_dets):
        batches, specs = maps
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "SCORE_THRESHOLD", score_thresh)
            mp.setattr(inference, "NMS_IOU_THRESHOLD", nms_thresh)
            mp.setattr(inference, "MAX_DETECTIONS", max_dets)
            assert run_inference(batches, specs) == run_inference_oracle(batches, specs)

    @pytest.mark.parametrize("field", ["class_scores", "centerness"])
    @pytest.mark.parametrize("value", [math.nan, -0.1, 1.5])
    def test_bad_score_anywhere_raises(self, field, value):
        # location 4's other factor is 0, so its fused score is below any threshold
        index = (4, 1) if field == "class_scores" else 4
        other = ("centerness", 4) if field == "class_scores" else ("class_scores", 4)
        batches, specs = single_level({(field, index): value, other: 0.0})
        with pytest.raises(ValueError, match="must lie in"):
            run_inference(batches, specs)
        with pytest.raises(ValueError, match="must lie in"):
            run_inference_oracle(batches, specs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ltrb", (-7.0, 1.0, 1.0, 1.0)),  # left edge right of the right edge
            ("ltrb", (1.0, 1.0, 1.0, -7.0)),
            ("ltrb", (math.inf, 1.0, 1.0, 1.0)),
            ("ltrb", (1.0, math.nan, 1.0, 1.0)),
            ("wh", (math.nan, 1.0)),
            ("wh", (1.0, math.nan)),
        ],
    )
    def test_bad_offsets_raise_only_where_decoded(self, field, value, monkeypatch):
        batches, specs = single_level({(field, 2): value})
        for run in (run_inference, run_inference_oracle):
            with pytest.raises(ValueError):
                run(batches, specs)
        # the same offsets at a location whose fused score misses the threshold
        batches, specs = single_level({(field, 2): value, ("centerness", 2): 0.01})
        assert run_inference(batches, specs) == run_inference_oracle(batches, specs)
        monkeypatch.setattr(inference, "NMS_IOU_THRESHOLD", 1.0)
        assert len(run_inference(batches, specs)) == 10

    def test_infinite_wh_clamps(self):
        batches, specs = single_level({("wh", 2): (math.inf, -math.inf)})
        assert run_inference(batches, specs) == run_inference_oracle(batches, specs)

    def test_no_levels(self):
        assert run_inference([], []) == []

    @pytest.mark.parametrize("field", ["class_scores", "centerness"])
    @pytest.mark.parametrize(
        "value, ok", [(-0.0, True), (1.0, True), (math.nextafter(1.0, 2.0), False), (math.nan, False)]
    )
    def test_score_range_edges(self, field, value, ok):
        # a level with no classes has no scores to check; the edge value sits last
        spec = FeatureGridSpec(4, 1, 64, 6)
        empty = PredictionBatch(np.zeros((4, 0)), np.ones(4), np.full((4, 4), 4.0), np.zeros((4, 2)))
        fields = dict(class_scores=np.full((4, 2), 0.5), centerness=np.ones(4),
                      ltrb=np.full((4, 4), 4.0), wh=np.zeros((4, 2)))
        fields[field].reshape(-1)[-1] = value
        batches = [empty, PredictionBatch(**fields), empty]
        if ok:
            assert len(run_inference(batches, [spec] * 3)) > 0
        else:
            with pytest.raises(ValueError, match=r"scores must lie in \[0, 1\]"):
                run_inference(batches, [spec] * 3)
        assert run_inference([empty], [spec]) == []

    def test_top_n_breaks_ties_by_candidate_order(self, monkeypatch):
        # five tied candidates far apart; the cap keeps the first two of the level
        spec = FeatureGridSpec(5, 1, 64, 6)
        batches = [PredictionBatch(np.full((5, 1), 0.5), np.ones(5), np.full((5, 4), 4.0), np.zeros((5, 2)))]
        everything = run_inference(batches, [spec])
        assert len(everything) == 5
        monkeypatch.setattr(inference, "PRE_NMS_TOP_N", 2)
        assert run_inference(batches, [spec]) == everything[:2]
        # the cap is per level: a second level keeps its own two
        monkeypatch.setattr(inference, "NMS_IOU_THRESHOLD", 1.0)
        both = run_inference(batches * 2, [spec, spec])
        assert both == [everything[i] for i in (0, 1, 0, 1)]

    @pytest.mark.parametrize("counts", [(500, 700, 400), (0, 1600, 0), (999, 3, 598), (1000, 1, 599)])
    def test_top_n_cut_through_ties_keeps_the_earliest(self, counts, monkeypatch):
        # 1,600 candidates scored 0.9, 0.6 and 0.3 (counts of each) in shuffled
        # order; the capped run must return the first PRE_NMS_TOP_N detections
        # of the uncapped one, which a stable sort by score lists
        spec = FeatureGridSpec(400, 2, 8, 3)
        rng = np.random.default_rng(sum(counts[:2]))
        values = rng.permutation(np.repeat([0.9, 0.6, 0.3], counts)).reshape(800, 2)
        ltrb = rng.uniform(2.0, 6.0, (800, 4))
        batches = [PredictionBatch(values, np.ones(800), ltrb, np.zeros((800, 2)))]
        monkeypatch.setattr(inference, "NMS_IOU_THRESHOLD", 1.0)
        monkeypatch.setattr(inference, "MAX_DETECTIONS", 1600)
        capped = run_inference(batches, [spec])
        assert len(capped) == inference.PRE_NMS_TOP_N < 1600
        monkeypatch.setattr(inference, "PRE_NMS_TOP_N", 1600)
        assert capped == run_inference(batches, [spec])[: len(capped)]

    def test_top_n_keeps_highest_scores_in_candidate_order(self, monkeypatch):
        spec = FeatureGridSpec(4, 1, 64, 6)
        scores = np.array([[0.2, 0.9], [0.7, 0.1], [0.9, 0.3], [0.4, 0.8]])
        batches = [PredictionBatch(scores, np.ones(4), np.full((4, 4), 4.0), np.zeros((4, 2)))]
        monkeypatch.setattr(inference, "PRE_NMS_TOP_N", 3)
        monkeypatch.setattr(inference, "NMS_IOU_THRESHOLD", 1.0)
        dets = run_inference(batches, [spec])
        assert [(d.class_id, d.score) for d in dets] == [(2, 0.9), (1, 0.9), (2, 0.8)]

    def test_dense_map_is_capped(self):
        # every (location, class) pair of a 1024 x 1024 pyramid clears the
        # threshold: 327,360 candidates, 1000 per level after the cap (the
        # uncapped path took 18.5 s on 32,768 candidates)
        specs = grid_specs(1024, 1024, (8, 16, 32, 64, 128))
        rng = np.random.default_rng(21824)
        batches = [
            PredictionBatch(
                rng.uniform(0.5, 1.0, (s.width * s.height, 15)),
                rng.uniform(0.5, 1.0, s.width * s.height),
                rng.uniform(0.5 * s.stride, 2.0 * s.stride, (s.width * s.height, 4)),
                rng.uniform(0.0, 2.0 * s.stride, (s.width * s.height, 2)),
            )
            for s in specs
        ]
        assert sum(b.class_scores.size for b in batches) == 21824 * 15
        start = time.perf_counter()
        dets = run_inference(batches, specs)
        assert time.perf_counter() - start < 5.0
        assert 0 < len(dets) <= 4960
        # the same maps with every pair below its level's 1000th best fused
        # score zeroed: the cap no longer binds and the result is unchanged
        thinned = []
        for b in batches:
            fused = b.class_scores * b.centerness[:, None]
            floor = np.sort(fused, axis=None)[-1000] if fused.size > 1000 else 0.0
            thinned.append(PredictionBatch(
                np.where(fused >= floor, b.class_scores, 0.0), b.centerness, b.ltrb, b.wh
            ))
        assert run_inference(thinned, specs) == dets
