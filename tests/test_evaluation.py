import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit import geometry
from obbkit.errors import UnknownCategory, UnknownClass
from obbkit.evaluation import (
    FP,
    IGNORED,
    MODE_11POINT,
    MODE_ALLPOINT,
    TP,
    ClassTable,
    GtIndex,
    average_precision,
    evaluate,
    match_detections,
    pr_curve,
)
from obbkit.inference import Detection, DetectionSet
from obbkit.targets import GroundTruthObject

from helpers import (
    average_precision_11_oracle,
    axis_box,
    match_flags_oracle,
    polygon_iou_oracle,
    random_rect,
    rotated_rect,
)


def _ds(dets_per_image):
    """The DetectionSet of a {image_id: [Detection]} mapping."""
    return DetectionSet.from_mapping(dets_per_image)


def fixture_scene():
    """Hand-checked 5-detection, 2-class scene.

    plane flags come out [TP, FP, TP] with 2 ground truth, ship [TP, FP]
    with 2 ground truth; mAP is 23/33 in 11-point mode and 2/3 in
    all-point mode.
    """
    classes = ClassTable(("plane", "ship"))
    gt = GtIndex.from_mapping(
        {
            "P0001": [
                GroundTruthObject(axis_box(0, 0, 10, 10), 1),
                GroundTruthObject(axis_box(20, 0, 30, 10), 1),
                GroundTruthObject(axis_box(0, 20, 10, 30), 2),
            ],
            "P0002": [GroundTruthObject(axis_box(0, 0, 10, 10), 2)],
        },
        classes,
    )
    dets = {
        "P0001": [
            Detection(axis_box(0, 0, 10, 10), 1, 0.9),
            Detection(axis_box(0, 0, 10, 10), 1, 0.8),
            Detection(axis_box(22, 0, 32, 10), 1, 0.7),  # IoU 2/3 with its gt
            Detection(axis_box(0, 28, 10, 38), 2, 0.6),  # IoU 1/9, a miss
        ],
        "P0002": [Detection(axis_box(0, 0, 10, 10), 2, 0.85)],
    }
    return dets, gt


@st.composite
def scenes(draw):
    """Two annotated images and one with detections only, two classes,
    clustered boxes, tied scores, some difficult GT."""
    classes = ClassTable(("plane", "ship"))

    def box():
        return rotated_rect(
            draw(st.floats(0, 40)),
            draw(st.floats(0, 40)),
            draw(st.floats(4, 30)),
            draw(st.floats(4, 30)),
            draw(st.floats(-90, 90)),
        )

    images = ("A", "B")
    gt = {
        image: [
            GroundTruthObject(box(), draw(st.integers(1, 2)), draw(st.booleans()))
            for _ in range(draw(st.integers(0, 5)))
        ]
        for image in images
    }
    dets = {}
    for image in images + ("no-annotation",):
        dets[image] = []
        for _ in range(draw(st.integers(0, 8))):
            if gt.get(image) and draw(st.booleans()):
                # a jittered copy of a ground truth box, often of the right class
                obj = gt[image][draw(st.integers(0, len(gt[image]) - 1))]
                quad = obj.quad.translated(draw(st.floats(-4, 4)), draw(st.floats(-4, 4)))
            else:
                quad = box()
            score = draw(st.sampled_from([0.3, 0.6, 0.6, 0.9]))
            dets[image].append(Detection(quad, draw(st.integers(1, 2)), score))
    return dets, GtIndex.from_mapping(gt, classes)


class TestMatchDetections:
    def test_exact_hit_is_tp(self):
        dets, gt = fixture_scene()
        m = match_detections(_ds(dets), gt, 0.5)
        assert list(m[1].flags) == [TP, FP, TP]
        assert list(m[2].flags) == [TP, FP]
        assert m[1].num_gt == 2 and m[2].num_gt == 2

    def test_double_detection_is_fp(self):
        classes = ClassTable(("plane",))
        gt = GtIndex.from_mapping({"A": [GroundTruthObject(axis_box(0, 0, 10, 10), 1)]},
                                  classes)
        dets = {
            "A": [
                Detection(axis_box(0, 0, 10, 10), 1, 0.9),
                Detection(axis_box(0, 0, 10, 10), 1, 0.8),
            ]
        }
        m = match_detections(_ds(dets), gt, 0.5)
        assert list(m[1].flags) == [TP, FP]

    def test_low_iou_is_fp(self):
        classes = ClassTable(("plane",))
        gt = GtIndex.from_mapping({"A": [GroundTruthObject(axis_box(0, 0, 10, 10), 1)]},
                                  classes)
        dets = {"A": [Detection(axis_box(6, 0, 16, 10), 1, 0.9)]}  # IoU 4/16
        m = match_detections(_ds(dets), gt, 0.5)
        assert list(m[1].flags) == [FP]

    def test_difficult_ignored_both_ways(self):
        classes = ClassTable(("plane",))
        gt = GtIndex.from_mapping(
            {"A": [GroundTruthObject(axis_box(0, 0, 10, 10), 1, difficult=True)]}, classes
        )
        dets = {
            "A": [
                Detection(axis_box(0, 0, 10, 10), 1, 0.9),
                Detection(axis_box(0, 0, 10, 10), 1, 0.8),
            ]
        }
        m = match_detections(_ds(dets), gt, 0.5)
        assert list(m[1].flags) == [IGNORED, IGNORED]
        assert m[1].num_gt == 0

    def test_unknown_class_raises(self):
        dets, gt = fixture_scene()
        dets["P0001"].append(Detection(axis_box(0, 0, 1, 1), 7, 0.5))
        with pytest.raises(UnknownClass):
            match_detections(_ds(dets), gt, 0.5)

    def test_greedy_matches_exhaustive_max_tp(self):
        rng = np.random.default_rng(88)
        classes = ClassTable(("c",))
        for _ in range(40):
            n_gt = int(rng.integers(1, 4))
            gts = []
            while len(gts) < n_gt:
                q = random_rect(rng, 80, 10, 40)
                if all(polygon_iou_oracle(q, g.quad) < 0.2 for g in gts):
                    gts.append(GroundTruthObject(q, 1))
            gt = GtIndex.from_mapping({"A": gts}, classes)
            dets = []
            for _ in range(int(rng.integers(1, 7))):
                base = gts[int(rng.integers(0, n_gt))].quad
                dets.append(
                    Detection(
                        base.translated(rng.uniform(-6, 6), rng.uniform(-6, 6)),
                        1,
                        float(rng.random()),
                    )
                )
            m = match_detections(_ds({"A": dets}), gt, 0.5)
            greedy_tp = int((m[1].flags == TP).sum())

            ious = [[polygon_iou_oracle(d.quad, g.quad) for g in gts] for d in dets]
            best = 0
            for assignment in itertools.product(range(-1, n_gt), repeat=len(dets)):
                used = [j for j in assignment if j >= 0]
                if len(used) != len(set(used)):
                    continue
                if any(j >= 0 and ious[i][j] < 0.5 for i, j in enumerate(assignment)):
                    continue
                best = max(best, len(used))
            assert greedy_tp == best


    def test_best_match_already_taken_is_fp(self):
        # VOC / DOTA devkit rule: the second detection's best ground truth
        # (IoU 0.905) is already matched, so it is a FP even though the
        # other ground truth (IoU 0.739) is free; "best unmatched" gave AP 1.0
        classes = ClassTable(("plane",))
        gt = GtIndex.from_mapping(
            {
                "A": [
                    GroundTruthObject(axis_box(0, 0, 10, 10), 1),
                    GroundTruthObject(axis_box(2, 0, 12, 10), 1),
                ]
            },
            classes,
        )
        dets = {
            "A": [
                Detection(axis_box(0, 0, 10, 10), 1, 0.9),
                Detection(axis_box(0.5, 0, 10.5, 10), 1, 0.8),
            ]
        }
        ds = _ds(dets)
        assert list(match_detections(ds, gt, 0.5)[1].flags) == [TP, FP]
        assert evaluate(ds, gt, 0.5, MODE_11POINT).mean_ap == pytest.approx(6 / 11, abs=1e-15)
        assert evaluate(ds, gt, 0.5, MODE_ALLPOINT).mean_ap == pytest.approx(0.5, abs=1e-15)

    def test_iou_equal_to_threshold_is_fp(self):
        classes = ClassTable(("plane",))
        gt = GtIndex.from_mapping({"A": [GroundTruthObject(axis_box(0, 0, 10, 10), 1)]},
                                  classes)
        dets = {"A": [Detection(axis_box(0, 0, 10, 5), 1, 0.9)]}  # IoU exactly 0.5
        assert list(match_detections(_ds(dets), gt, 0.5)[1].flags) == [FP]
        assert list(match_detections(_ds(dets), gt, 0.4999)[1].flags) == [TP]

    def test_difficult_best_match_hides_a_free_ground_truth(self):
        classes = ClassTable(("plane",))
        gt = GtIndex.from_mapping(
            {
                "A": [
                    GroundTruthObject(axis_box(2, 0, 12, 10), 1),
                    GroundTruthObject(axis_box(0, 0, 10, 10), 1, difficult=True),
                ]
            },
            classes,
        )
        dets = {"A": [Detection(axis_box(0, 0, 10, 10), 1, 0.9)]}
        assert list(match_detections(_ds(dets), gt, 0.5)[1].flags) == [IGNORED]

    @settings(max_examples=100, deadline=None)
    @given(scenes(), st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.sampled_from([1, 5, 1 << 18]))
    def test_matches_scalar_oracle(self, scene, thresh, band_pairs):
        dets, gt = scene
        # small budgets split the sweep's pair expansion into many bands
        with mock.patch.object(geometry, "PAIRS_PER_BAND", band_pairs):
            got = match_detections(_ds(dets), gt, thresh)
        for class_id in (1, 2):
            scores, flags = match_flags_oracle(dets, gt, class_id, thresh)
            assert got[class_id].scores.tolist() == scores
            assert got[class_id].flags.tolist() == flags


class TestPrCurve:
    def test_single_tp(self):
        curve = pr_curve([TP], [0.9], 1)
        assert np.allclose(curve.recalls, [1.0])
        assert np.allclose(curve.precisions, [1.0])

    def test_cumulative_sweep(self):
        curve = pr_curve([TP, FP, TP], [0.9, 0.8, 0.7], 2)
        assert np.allclose(curve.recalls, [0.5, 0.5, 1.0])
        assert np.allclose(curve.precisions, [1.0, 0.5, 2 / 3])

    def test_unsorted_input_is_sorted_by_score(self):
        curve = pr_curve([FP, TP, TP], [0.8, 0.9, 0.7], 2)
        assert np.allclose(curve.precisions, [1.0, 0.5, 2 / 3])

    def test_no_detections(self):
        curve = pr_curve([], [], 3)
        assert (curve.recalls.size, curve.tp_total, curve.fp_total) == (0, 0, 0)
        assert average_precision(curve, MODE_11POINT) == 0.0

    def test_zero_gt_defines_ap_zero(self):
        curve = pr_curve([FP, FP], [0.9, 0.8], 0)
        # the curve is empty, but the totals still count every detection
        assert (curve.recalls.size, curve.tp_total, curve.fp_total) == (0, 0, 2)
        assert average_precision(curve, MODE_11POINT) == 0.0
        assert average_precision(curve, MODE_ALLPOINT) == 0.0

    def test_ignored_drop_out(self):
        curve = pr_curve([TP, IGNORED, FP], [0.9, 0.8, 0.7], 1)
        assert curve.recalls.size == 2
        assert (curve.tp_total, curve.fp_total) == (1, 1)


class TestAveragePrecision:
    def test_perfect_curve(self):
        curve = pr_curve([TP], [0.9], 1)
        assert average_precision(curve, MODE_11POINT) == 1.0
        assert average_precision(curve, MODE_ALLPOINT) == 1.0

    def test_hand_computed_11_point(self):
        curve = pr_curve([TP, FP, TP], [0.9, 0.8, 0.7], 2)
        assert abs(average_precision(curve, MODE_11POINT) - 28 / 33) < 1e-12

    def test_hand_computed_all_point(self):
        curve = pr_curve([TP, FP, TP], [0.9, 0.8, 0.7], 2)
        assert abs(average_precision(curve, MODE_ALLPOINT) - 5 / 6) < 1e-12

    def test_11_point_matches_mask_oracle_bits(self):
        # seeded curves: empty, all false positives, ground truth counts whose
        # recalls k / num_gt tie with grid points, and ignored rows mixed in
        rng = np.random.default_rng(29)
        curves = [pr_curve([], [], 4), pr_curve([FP] * 5, rng.random(5), 3)]
        curves += [pr_curve([TP] * k + [FP] * 3, rng.random(k + 3), 10) for k in range(11)]
        for _ in range(200):
            n = int(rng.integers(0, 40))
            flags = rng.choice([TP, FP, IGNORED], n, p=[0.45, 0.45, 0.1])
            scores = rng.choice([0.2, 0.5, 0.9], n) if rng.random() < 0.3 else rng.random(n)
            curves.append(pr_curve(flags, scores, int(rng.integers(0, 30))))
        got = [average_precision(c, MODE_11POINT).hex() for c in curves]
        assert got == [average_precision_11_oracle(c).hex() for c in curves]
        assert got[0] == got[1] == (0.0).hex()
        assert len(set(got)) > 50

    def test_11_point_tolerance_differs_from_reference(self):
        # recall 3/10 = 0.29999999999999999 sits just under the grid point
        # np.arange gives as 0.30000000000000004; the t - 1e-12 tolerance
        # counts it, the reference rec >= t (VOC, DOTA devkit) does not
        curve = pr_curve([TP, TP, TP], [0.9, 0.8, 0.7], 10)
        reference = sum(
            float(curve.precisions[curve.recalls >= t].max()) if (curve.recalls >= t).any() else 0.0
            for t in np.arange(0.0, 1.1, 0.1)
        ) / 11.0
        assert reference == pytest.approx(3 / 11, abs=1e-15)
        assert average_precision(curve, MODE_11POINT) == pytest.approx(4 / 11, abs=1e-15)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            average_precision(pr_curve([TP], [0.9], 1), "bogus")


class TestEvaluate:
    def test_fixture_map_both_modes(self):
        dets, gt = fixture_scene()
        report11 = evaluate(_ds(dets), gt, 0.5, MODE_11POINT)
        assert (report11.tp, report11.fp) == ({"plane": 2, "ship": 1}, {"plane": 1, "ship": 1})
        assert abs(report11.per_class["plane"] - 28 / 33) < 1e-12
        assert abs(report11.per_class["ship"] - 6 / 11) < 1e-12
        assert abs(report11.mean_ap - 23 / 33) < 1e-12
        report_all = evaluate(_ds(dets), gt, 0.5, MODE_ALLPOINT)
        assert abs(report_all.per_class["plane"] - 5 / 6) < 1e-12
        assert abs(report_all.per_class["ship"] - 0.5) < 1e-12
        assert abs(report_all.mean_ap - 2 / 3) < 1e-12

    def test_perfect_detections(self):
        _, gt = fixture_scene()
        dets = {
            img: [Detection(o.quad, o.class_id, 1.0) for o in objs]
            for img, objs in gt.images.items()
        }
        for mode in (MODE_11POINT, MODE_ALLPOINT):
            report = evaluate(_ds(dets), gt, 0.5, mode)
            assert report.mean_ap == 1.0
            assert all(v == 1.0 for v in report.per_class.values())

    def test_zero_gt_class_excluded_from_mean(self):
        classes = ClassTable(("plane", "ghost"))
        gt = GtIndex.from_mapping({"A": [GroundTruthObject(axis_box(0, 0, 10, 10), 1)]},
                                  classes)
        dets = {"A": [Detection(axis_box(0, 0, 10, 10), 1, 0.9)]}
        report = evaluate(_ds(dets), gt, 0.5, MODE_11POINT)
        assert report.per_class["ghost"] == 0.0
        assert report.mean_ap == 1.0
        assert (report.tp, report.fp) == ({"plane": 1, "ghost": 0}, {"plane": 0, "ghost": 0})

    def test_duplicating_detections_never_raises_ap(self):
        rng = np.random.default_rng(99)
        dets, gt = fixture_scene()
        base = evaluate(_ds(dets), gt, 0.5, MODE_11POINT).mean_ap
        doubled = {img: list(d) + list(d) for img, d in dets.items()}
        assert evaluate(_ds(doubled), gt, 0.5, MODE_11POINT).mean_ap <= base + 1e-12

    def test_ap_non_increasing_in_iou_threshold(self):
        dets, gt = fixture_scene()
        ds = _ds(dets)
        maps = [evaluate(ds, gt, t, MODE_11POINT).mean_ap for t in (0.3, 0.5, 0.7, 0.9)]
        assert maps == sorted(maps, reverse=True)

    def test_tp_bounded_by_gt(self):
        dets, gt = fixture_scene()
        m = match_detections(_ds(dets), gt, 0.1)
        for class_id, matches in m.items():
            assert (matches.flags == TP).sum() <= gt.num_ground_truth(class_id)

    @pytest.mark.parametrize("thresh", [-0.5, 1.5, math.nan])
    def test_threshold_outside_unit_interval(self, thresh):
        dets, gt = fixture_scene()
        with pytest.raises(ValueError, match="must lie in"):
            match_detections(_ds(dets), gt, thresh)


class TestClassTable:
    def test_lookup(self):
        table = ClassTable(("a", "b"))
        assert table.id_of("b") == 2
        assert table.name_of(1) == "a"

    def test_unknown_raise(self):
        table = ClassTable(("a",))
        with pytest.raises(UnknownCategory):
            table.id_of("zzz")
        with pytest.raises(UnknownClass):
            table.name_of(5)

    def test_gt_index_validates_ids(self):
        with pytest.raises(UnknownClass):
            GtIndex.from_mapping({"A": [GroundTruthObject(axis_box(0, 0, 1, 1), 9)]},
                                 ClassTable(("a",)))
