"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with the measured
quantity. Run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they go.
"""

import itertools
import math
import time

import numpy as np

from obbkit import cli
from obbkit.evaluation import (
    MODE_11POINT,
    MODE_ALLPOINT,
    ClassTable,
    GtIndex,
    evaluate,
)
from obbkit.geometry import (
    Point2,
    decode,
    encode,
    polygon_iou,
    quad_from_offsets,
    quad_list,
    raster_iou_oracle,
)
from obbkit.ie_attention import AttentionWeights, FeatureMap, _attention_table, ie_fuse
from obbkit.inference import Detection, DetectionSet
from obbkit.losses import (
    LossWeights,
    PredictionBatch,
    bce,
    fit_demo,
    focal_loss,
    grad_check,
    inner_box,
    iou_hbb_loss,
    iou_obb_loss,
    smooth_l1,
    total_loss,
)
from obbkit.targets import (
    FeatureGridSpec,
    GroundTruthObject,
    LevelRanges,
    TargetMaps,
    assign_targets,
)

from helpers import axis_box, random_rect, rotated_rect, target_maps


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_geometry_roundtrip():
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    worst = 1.0
    for _ in range(10_000):
        quad = random_rect(rng, center_span=1000.0, size_lo=2.0, size_hi=500.0)
        worst = min(worst, polygon_iou(decode(encode(quad)), quad))
    elapsed = time.perf_counter() - start
    ok = worst >= 1 - 1e-9 and elapsed < 5.0
    report(
        "criterion 1 geometry roundtrip",
        ok,
        f"worst IoU deficit {1 - worst:.2e}, {elapsed:.2f}s for 10000 boxes",
    )


def test_02_iou_oracle_equivalence():
    rng = np.random.default_rng(20240802)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a = random_rect(rng)
        b = random_rect(rng)
        if rng.random() < 0.5:
            b = a.translated(rng.uniform(-200, 200), rng.uniform(-200, 200))
        worst = max(worst, abs(polygon_iou(a, b) - raster_iou_oracle(a, b, 1000)))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 60.0
    report(
        "criterion 2 IoU oracle equivalence",
        ok,
        f"max |exact - raster| {worst:.5f}, {elapsed:.1f}s for 1000 pairs",
    )


def _focal_points(rng):
    labels = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    for _ in range(100):
        yield lambda x: focal_loss(x, labels, 0.3, 4.0, 2.0), rng.uniform(0.05, 0.95, 5)


def _bce_points(rng):
    def fn(x):
        value, grad = bce(float(x[0]), 0.35)
        return value, np.array([grad])

    for _ in range(100):
        yield fn, rng.uniform(0.05, 0.95, 1)


def _smooth_l1_points(rng):
    target = np.array([0.5, -1.0, 2.0, 0.25])
    while True:
        pred = target + rng.uniform(-3, 3, 4)
        err = np.abs(pred - target)
        if np.all(np.abs(err - 1.0) > 1e-3) and np.all(err > 1e-3):
            yield lambda x: smooth_l1(x, target), pred


def _iou_hbb_points(rng):
    target = np.array([2.0, 3.0, 4.0, 1.5])
    while True:
        pred = target * rng.uniform(0.3, 2.0, 4)
        if np.all(np.abs(pred - target) > 1e-3):
            yield lambda x: iou_hbb_loss(x, target), pred


def _iou_obb_points(rng):
    target = np.array([3.0, 2.0, 3.0, 2.0, 1.0, 0.5])
    target_inner = np.abs(target[:4] - target[[4, 5, 4, 5]])
    while True:
        pred = target * rng.uniform(0.4, 2.0, 6)
        gap = np.abs(pred[:4] - pred[[4, 5, 4, 5]])
        if np.any(gap < 1e-2) or np.any(np.abs(gap - target_inner) < 1e-2):
            continue
        if np.any(np.abs(gap - target_inner) < 1e-3):
            continue
        yield lambda x: iou_obb_loss(x, target), pred


def _composite_points(rng):
    """Random two-location scenes with every coordinate clear of kinks."""
    targets = target_maps(
        [1, 0], ltrb=[(2.0, 1.0, 4.0, 3.0), (0, 0, 0, 0)], wh=[(1.0, 2.0), (0, 0)],
        centerness=[math.sqrt((2 / 4) * (1 / 3)), 0.0],
    )
    weights = LossWeights()
    t_ltrb = np.array([2.0, 1.0, 4.0, 3.0])
    t_wh = np.array([1.0, 2.0])
    t_inner = np.abs(t_ltrb - t_wh[[0, 1, 0, 1]])

    def build(x):
        return PredictionBatch(
            x[:4].reshape(2, 2), x[4:6], x[6:14].reshape(2, 4), x[14:18].reshape(2, 2)
        )

    def fn(x):
        res = total_loss(build(x), targets, weights)
        grad = np.concatenate(
            [
                res.class_score_grad.reshape(-1),
                res.centerness_grad,
                res.ltrb_grad.reshape(-1),
                res.wh_grad.reshape(-1),
            ]
        )
        return res.breakdown.total, grad

    while True:
        scores = rng.uniform(0.05, 0.95, 6)
        ltrb = rng.uniform(0.3, 8.0, (2, 4))
        wh = rng.uniform(0.1, 4.0, (2, 2))
        p_ltrb, p_wh = ltrb[0], wh[0]
        gap = np.abs(p_ltrb - p_wh[[0, 1, 0, 1]])
        box_err = np.abs(p_ltrb - t_ltrb)
        ori_err = np.abs(p_wh - t_wh)
        clear = (
            np.all(np.abs(box_err - 1.0) > 1e-3)
            and np.all(box_err > 1e-3)
            and np.all(np.abs(ori_err - 1.0) > 1e-3)
            and np.all(ori_err > 1e-3)
            and np.all(gap > 1e-2)
            and np.all(np.abs(gap - t_inner) > 1e-3)
        )
        if not clear:
            continue
        yield fn, np.concatenate([scores[:4], scores[4:6], ltrb.reshape(-1), wh.reshape(-1)])


def test_03_gradient_verification():
    rng = np.random.default_rng(20240803)
    suites = {
        "focal": _focal_points(rng),
        "bce": _bce_points(rng),
        "smooth_l1": _smooth_l1_points(rng),
        "iou_hbb": _iou_hbb_points(rng),
        "iou_obb": _iou_obb_points(rng),
        "composite": _composite_points(rng),
    }
    worst_by_loss = {}
    for name, stream in suites.items():
        worst = 0.0
        for fn, point in itertools.islice(stream, 100):
            worst = max(worst, grad_check(fn, point, eps=1e-5))
        worst_by_loss[name] = worst
    ok = all(v <= 1e-4 for v in worst_by_loss.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst_by_loss.items())
    report("criterion 3 gradient verification", ok, detail)


def test_04_loss_value_fixtures():
    focal_value, _ = focal_loss(np.array([0.5]), np.array([1.0]), 0.3, 4.0, 1.0)
    expected = 0.3 * 0.0625 * math.log(2)
    focal_ok = abs(focal_value - expected) <= 1e-9
    inner_ok = (
        np.array_equal(inner_box([1, 1, 1, 1], [0, 0]), np.array([1.0, 1, 1, 1]))
        and np.array_equal(inner_box([3, 2, 3, 2], [1, 1]), np.array([2.0, 1, 2, 1]))
        and np.array_equal(inner_box([1, 1, 1, 1], [2, 2]), np.array([1.0, 1, 1, 1]))
    )
    report(
        "criterion 4 loss fixtures",
        focal_ok and inner_ok,
        f"focal at 0.5 err {abs(focal_value - expected):.1e}, inner-box fixtures exact {inner_ok}",
    )


def test_05_attention_invariants():
    rng = np.random.default_rng(20240805)
    worst_row = 0.0
    identity_exact = True
    for _ in range(1000):
        channels = int(rng.integers(2, 8))
        spatial = int(rng.integers(1, 10))
        feat = FeatureMap(channels, spatial, 1, rng.standard_normal((channels, spatial)) * 3)
        weights = AttentionWeights.seeded(channels, int(rng.integers(1 << 30)), scale=0.3)
        table = _attention_table(feat.values, weights)
        worst_row = max(worst_row, float(np.abs(table.sum(axis=1) - 1.0).max()))
        if table.min() < 0:
            worst_row = math.inf
        frozen = AttentionWeights(weights.wf, weights.wg, weights.wh, gamma=0.0)
        zero = FeatureMap(channels, spatial, 1, np.zeros((channels, spatial)))
        if not np.array_equal(ie_fuse(feat, zero, zero, frozen).values, feat.values):
            identity_exact = False
    # with identity features (G = I) and Wg = I the logits are exactly Wf,
    # so Wf = m^T puts the rows of m under the table's softmax
    eye = np.eye(6)

    def softmax_of_rows(m):
        return _attention_table(eye, AttentionWeights(m.T, eye, eye))

    worst_shift = 0.0
    for _ in range(1000):
        m = rng.standard_normal((6, 6)) * 20
        shifted = m + rng.standard_normal((6, 1)) * 50
        worst_shift = max(
            worst_shift, float(np.abs(softmax_of_rows(m) - softmax_of_rows(shifted)).max())
        )
    ok = worst_row <= 1e-6 and identity_exact and worst_shift <= 1e-9
    report(
        "criterion 5 attention invariants",
        ok,
        f"row-sum err {worst_row:.1e}, gamma=0 exact {identity_exact}, shift err {worst_shift:.1e}",
    )


def _brute_force_assignment(specs, ranges, objects, radius_mult):
    encs = [encode(obj.quad) for obj in objects]
    per_level = []
    for spec, (lo, hi) in zip(specs, ranges.pairs):
        rows = []
        for y_s in range(spec.height):
            for x_s in range(spec.width):
                px = spec.stride // 2 + x_s * spec.stride
                py = spec.stride // 2 + y_s * spec.stride
                candidates = []
                for j, enc in enumerate(encs):
                    b = enc.hbb
                    if not (b.xmin < px < b.xmax and b.ymin < py < b.ymax):
                        continue
                    if abs(px - (b.xmin + b.xmax) / 2) > radius_mult * spec.stride:
                        continue
                    if abs(py - (b.ymin + b.ymax) / 2) > radius_mult * spec.stride:
                        continue
                    m = max(px - b.xmin, py - b.ymin, b.xmax - px, b.ymax - py)
                    if not (lo < m <= hi):
                        continue
                    candidates.append((b.area, j))
                rows.append(min(candidates)[1] if candidates else -1)
        per_level.append(rows)
    return per_level


def test_06_target_assignment_oracle():
    rng = np.random.default_rng(20240806)
    specs = [FeatureGridSpec(32, 32, 4, 2), FeatureGridSpec(32, 32, 8, 3)]
    ranges = LevelRanges([(0, 48), (48, math.inf)])
    mismatches = 0
    worst_deficit = 0.0
    for _ in range(100):
        count = int(rng.integers(1, 6))
        objects = [
            GroundTruthObject(random_rect(rng, 110, 8, 70), int(rng.integers(1, 4)))
            for _ in range(count)
        ]
        levels = assign_targets(specs, ranges, objects, center_radius_mult=1.5)
        expected = _brute_force_assignment(specs, ranges, objects, 1.5)
        for level, exp in zip(levels, expected):
            got = np.where(level.class_id > 0, level.object_index, -1).tolist()
            if got != exp:
                mismatches += 1
            for i in np.flatnonzero(level.class_id > 0):
                decoded = quad_from_offsets(Point2(*level.points[i]), level.ltrb[i], level.wh[i])
                deficit = 1.0 - polygon_iou(decoded, objects[level.object_index[i]].quad)
                worst_deficit = max(worst_deficit, deficit)
    ok = mismatches == 0 and worst_deficit <= 1e-9
    report(
        "criterion 6 target assignment oracle",
        ok,
        f"{mismatches} grid mismatches, worst decode IoU deficit {worst_deficit:.2e}",
    )


def test_07_fit_demo_convergence():
    objects = [
        GroundTruthObject(rotated_rect(60, 60, 56, 30, 30), 1),
        GroundTruthObject(rotated_rect(170, 60, 64, 40, -50), 2),
        GroundTruthObject(rotated_rect(110, 170, 90, 44, 70), 3),
    ]
    specs = [FeatureGridSpec(28, 28, 8, 3), FeatureGridSpec(14, 14, 16, 4)]
    ranges = LevelRanges([(0, 64), (64, math.inf)])
    flat = TargetMaps.concatenate(assign_targets(specs, ranges, objects))

    start = time.perf_counter()
    result = fit_demo(flat, LossWeights(), steps=2000, lr=0.05)
    elapsed = time.perf_counter() - start

    best: dict[int, tuple[float, int]] = {}
    for k, idx in enumerate(result.positive_indices):
        j = int(flat.object_index[idx])
        if j not in best or result.fused_scores[k] > best[j][0]:
            best[j] = (result.fused_scores[k], k)
    ious = [
        polygon_iou(quad_list(result.decoded_quads[[best[j][1]]])[0], objects[j].quad)
        for j in range(len(objects))
    ]
    totals = [b.total for b in result.trajectory]
    increases = sum(
        1 for i in range(51, len(totals)) if totals[i] > totals[i - 1] + 1e-15
    )
    ok = min(ious) >= 0.95 and increases == 0 and elapsed < 30.0
    report(
        "criterion 7 fit-demo convergence",
        ok,
        f"object IoUs {[f'{v:.3f}' for v in ious]}, {increases} increases after step 50, "
        f"{elapsed:.1f}s",
    )


def test_08_evaluation_harness():
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
            Detection(axis_box(22, 0, 32, 10), 1, 0.7),
            Detection(axis_box(0, 28, 10, 38), 2, 0.6),
        ],
        "P0002": [Detection(axis_box(0, 0, 10, 10), 2, 0.85)],
    }
    err11 = abs(evaluate(DetectionSet.from_mapping(dets), gt, 0.5, MODE_11POINT).mean_ap - 23 / 33)
    err_all = abs(evaluate(DetectionSet.from_mapping(dets), gt, 0.5, MODE_ALLPOINT).mean_ap - 2 / 3)
    perfect = {
        img: [Detection(o.quad, o.class_id, 1.0) for o in objs]
        for img, objs in gt.images.items()
    }
    perfect_ok = (
        evaluate(DetectionSet.from_mapping(perfect), gt, 0.5, MODE_11POINT).mean_ap == 1.0
        and evaluate(DetectionSet.from_mapping(perfect), gt, 0.5, MODE_ALLPOINT).mean_ap == 1.0
    )
    ok = err11 <= 1e-6 and err_all <= 1e-6 and perfect_ok
    report(
        "criterion 8 evaluation harness",
        ok,
        f"11-point err {err11:.1e}, all-point err {err_all:.1e}, perfect AP exact {perfect_ok}",
    )


def test_09_determinism_across_threads(tmp_path, capsys):
    gt_dir = tmp_path / "gt"
    det_dir = tmp_path / "dets"
    gt_dir.mkdir()
    det_dir.mkdir()
    (gt_dir / "P0001.txt").write_text(
        "0 0 10 0 10 10 0 10 plane 0\n"
        "20 0 30 0 30 10 20 10 plane 0\n"
        "0 20 10 20 10 30 0 30 ship 0\n"
    )
    (gt_dir / "P0002.txt").write_text("0 0 10 0 10 10 0 10 ship 0\n")
    (det_dir / "plane.txt").write_text(
        "P0001 0.9 0 0 10 0 10 10 0 10\n"
        "P0001 0.8 0 0 10 0 10 10 0 10\n"
        "P0001 0.7 22 0 32 0 32 10 22 10\n"
    )
    (det_dir / "ship.txt").write_text(
        "P0002 0.85 0 0 10 0 10 10 0 10\nP0001 0.6 0 28 10 28 10 38 0 38\n"
    )
    fit_gt = tmp_path / "fitgt"
    fit_gt.mkdir()
    (fit_gt / "scene.txt").write_text(
        "35.75 33.0 60.0 19.0 84.25 61.0 60.0 75.0 plane 0\n"
        "149.43 75.35 190.57 26.32 201.0 44.65 159.86 93.68 ship 0\n"
    )

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    eval_outputs = []
    fit_outputs = []
    for threads in ("1", "4", "8"):
        eval_outputs.append(
            run(
                ["eval", "--gt", str(gt_dir), "--dets", str(det_dir), "--threads", threads]
            )
        )
        fit_outputs.append(
            run(
                ["fit-demo", "--gt", str(fit_gt), "--steps", "150", "--lr", "0.05",
                 "--set", "strides=8,16", "--set", "level_ranges=0:64,64:inf",
                 "--threads", threads, "--trace-every", "50"]
            )
        )
    eval_ok = eval_outputs[0] == eval_outputs[1] == eval_outputs[2]
    fit_ok = fit_outputs[0] == fit_outputs[1] == fit_outputs[2]
    report(
        "criterion 9 determinism",
        eval_ok and fit_ok,
        f"eval byte-identical {eval_ok}, fit-demo byte-identical {fit_ok} over threads 1/4/8",
    )
