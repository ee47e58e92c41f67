"""Self-tests of the benchmark: generator, output checks and tracer.

    python3 -m pytest perfbench -q     (from the repository root)
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import refgeom as rg  # noqa: E402
import tracer as tr  # noqa: E402


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    base = tmp_path_factory.mktemp("gen")
    return {name: (make(7, base / name), base / name) for name, make in gen.GENERATORS.items()}


# ------------------------------------------------------------------ generator


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_same_seed_gives_identical_inputs(tmp_path, generated, workload):
    gen.GENERATORS[workload](7, tmp_path / "again")
    assert _tree_bytes(tmp_path / "again") == _tree_bytes(generated[workload][1])
    gen.GENERATORS[workload](8, tmp_path / "other")
    assert _tree_bytes(tmp_path / "other") != _tree_bytes(generated[workload][1])


def test_dota_eval_counts_are_coprime_to_ten(generated):
    root = generated["dota_eval"][1]
    counts = dict.fromkeys(gen.CLASSES, 0)
    for f in (root / "gt").glob("*.txt"):
        for line in f.read_text().splitlines()[2:]:
            *_coords, name, difficult = line.split()
            counts[name] += difficult == "0"
    assert all(n % 2 and n % 5 for n in counts.values()), counts


def test_voc_ap_matches_hand_computed_values():
    # TP FP TP with 3 ground truths: recall 1/3, 1/3, 2/3; precision 1, 1/2, 2/3
    ap = gen.voc_ap_11([gen.TP, gen.FP, gen.IGNORED, gen.TP], 3)
    assert ap == pytest.approx((4 * 1.0 + 3 * (2 / 3)) / 11)


def test_reference_iou_and_separation():
    a = rg.rect_corners(0, 0, 10, 10, 0)
    b = rg.rect_corners(5, 0, 10, 10, 0)
    assert rg.iou(a, b) == pytest.approx(50 / 150)
    assert rg.iou(a, rg.rect_corners(30, 0, 10, 10, 30)) == 0.0
    assert rg.separated(a, rg.rect_corners(13, 0, 10, 10, 0), 2.0)
    assert not rg.separated(a, rg.rect_corners(11, 0, 10, 10, 0), 2.0)


# ------------------------------------------------------------------ checks


def _kept_dir(tmp_path, expected) -> Path:
    kept = tmp_path / "kept"
    kept.mkdir(parents=True)
    for name, text in expected["kept_files"].items():
        (kept / name).write_text(text)
    return kept


def test_nms_check_catches_a_dropped_detection(tmp_path, generated):
    expected = generated["dota_eval"][0]
    kept = _kept_dir(tmp_path, expected)
    stdout = "\n".join(expected["nms_stdout"]) + "\n"
    assert checks.check_nms(stdout, kept, expected) == []
    victim = next(p for p in sorted(kept.glob("*.txt")) if p.read_text())
    victim.write_text("".join(victim.read_text().splitlines(keepends=True)[1:]))
    assert checks.check_nms(stdout, kept, expected)
    intact = _kept_dir(tmp_path / "b", expected)
    assert checks.check_nms(stdout.replace("kept", "kept 1", 1), intact, expected)


def test_eval_check_catches_a_perturbed_map(generated):
    expected = generated["dota_eval"][0]
    report = {"per_class": dict(expected["ap"]), "map": expected["map"], "iou_threshold": 0.5,
              "mode": "11point"}
    assert checks.check_eval(report, expected) == []
    assert checks.check_eval(dict(report, map=expected["map"] + 1e-7), expected)
    name = next(iter(expected["ap"]))
    assert checks.check_eval(dict(report, per_class=dict(report["per_class"], **{name: 0.5})), expected)


def test_detection_check_catches_dropped_and_misclassified_detections(generated):
    image = generated["detect"][0]["images"][0]
    dets = [(c, tuple(v for p in image["objects"][j] for v in p)) for j, c in image["pairs"]]
    assert checks.check_detections(dets, image) == []
    assert checks.check_detections(dets[1:], image)
    wrong = [((dets[0][0] % len(gen.CLASSES)) + 1, dets[0][1])] + dets[1:]
    assert checks.check_detections(wrong, image)
    shifted = [(dets[0][0], tuple(v + 3.0 for v in dets[0][1]))] + dets[1:]
    assert checks.check_detections(shifted, image)


def test_fusion_check_catches_a_perturbed_projection(generated):
    image = generated["detect"][0]["images"][0]
    projections = [list(p) for p in image["projections"]]
    bounds = [[1.0] * len(p) for p in projections]
    assert checks.check_fusion(projections, bounds, image) == []
    projections[2][0] += 1e-6
    assert checks.check_fusion(projections, bounds, image)


def _train_stdout(expected) -> str:
    lines = []
    for exp in expected["images"]:
        lines.append(f"# image {exp['image']}")
        steps = [exp["step0_total"] * (1 - 0.01 * k) for k in range(expected["steps"] + 1)]
        lines += [f"step {k} total {t:.6g} cls 1 reg 1 ori 1" for k, t in enumerate(steps)]
        for j, (name, assigned) in enumerate(zip(exp["names"], exp["assigned"])):
            state = "iou 0.5 score 0.5" if assigned else "unassigned"
            lines.append(f"object {j} {name} {state}")
    return "\n".join(lines) + "\n"


def test_train_check_catches_rising_loss_wrong_start_and_missing_objects(generated):
    expected = generated["train"][0]
    good = _train_stdout(expected)
    assert checks.check_train(good, expected) == []
    rising = good.replace(f"step 2 total {expected['images'][0]['step0_total'] * 0.98:.6g}",
                          f"step 2 total {expected['images'][0]['step0_total'] * 1.5:.6g}", 1)
    assert rising != good and checks.check_train(rising, expected)
    start = expected["images"][0]["step0_total"]
    shifted = good.replace(f"step 0 total {start:.6g}", f"step 0 total {start * 1.001:.6g}", 1)
    assert shifted != good and checks.check_train(shifted, expected)
    dropped = "\n".join(line for line in good.splitlines() if not line.startswith("object 3 "))
    assert checks.check_train(dropped, expected)


def test_printed_close_allows_rounding_only():
    assert checks.printed_close(64.4334, 64.43335092858766)
    assert checks.printed_close(100.0, 99.99996)
    assert not checks.printed_close(64.4333, 64.43335092858766)
    assert not checks.printed_close(64.4335, 64.43335092858766)


# ------------------------------------------------------------------ tracer


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_tracer_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    hooks = {"outer": lambda *a: setattr(clock, "t", clock.t + 100.0)}
    t = tr.Tracer(hooks, clock=clock)

    def leaf():
        clock.t += 1.0

    def inner():
        clock.t += 2.0
        t.call("leaf", leaf, leaf=True)
        clock.t += 3.0

    def outer():
        clock.t += 5.0
        t.call("inner", inner)
        t.call("leaf", leaf, leaf=True)
        clock.t += 7.0

    t.call("top", lambda: (t.call("outer", outer), setattr(clock, "t", clock.t + 11.0)))
    self_s = t.self_seconds()
    assert self_s == {"top": 11.0, "outer": 12.0, "inner": 5.0, "leaf": 2.0}
    assert t.calls("leaf") == 2 and t.calls("leaf", "inner") == 1 and t.calls("inner", "outer") == 1
    assert t.hook_s == 100.0
    top = t.spans[0]
    assert sum(self_s.values()) == top[2] - top[1] - t.hook_s
    assert [s[0] for s in t.spans] == ["top", "outer", "inner"]
    assert [s[3] for s in t.spans] == [None, 0, 1]


def test_missing_wrapped_names_read_zero_and_do_not_crash():
    import obbkit.geometry

    specs = (("obbkit.geometry", "no_such_function", "geometry.gone", False),
             ("obbkit.no_such_module", "f", "missing.f", False),
             ("obbkit.geometry", "polygon_iou", "geometry.polygon_iou", True))
    original = obbkit.geometry.polygon_iou
    t = tr.Tracer(tr.HOOKS)
    with t.installed(specs):
        assert obbkit.geometry.polygon_iou is not original
        quad = obbkit.geometry.canonicalize([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert obbkit.geometry.polygon_iou(quad, quad) == 1.0
    assert obbkit.geometry.polygon_iou is original
    assert t.calls("geometry.gone") == 0 and t.calls("geometry.polygon_iou") == 1
    values = tr.layer_values(t, images=1)
    assert values["inference.rotated_nms.calls"] == 0 and values["geometry.polygon_iou.hit_ratio"] == 1.0


def test_hook_on_a_changed_return_type_reads_zero():
    t = tr.Tracer(tr.HOOKS)
    t.call("targets.assign_targets", lambda specs: object(), ([],))
    assert t.counters["targets.positives"] == 0


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(tr.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(gen.GENERATORS)
    assert set(tr.layer_values(tr.Tracer(), 1)) | {"trace.overhead_ratio", "trace.wall_s", "failed_ratio"} \
        == {name for name, _u, _b in tr.PER_LAYER}


# ------------------------------------------------------------------ one real pass


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_one_pass_of_each_workload_passes_its_checks(tmp_path, generated, workload):
    import obbkit
    import obbkit.cli
    import worker

    inputs = tmp_path / workload
    shutil.copytree(generated[workload][1], inputs)
    p = worker.WORKLOADS[workload](inputs, obbkit).run_pass()
    assert p.errors == [] and p.failed == 0 and p.attempted >= 1 and p.wall > 0
