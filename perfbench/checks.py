"""Output checks for the three workloads.

Each check returns a list of problems; an empty list means the output
equals what the generator knows it must be. Checks take plain data
(text, dicts, tuples) so the self-tests can feed them corrupted outputs.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path

import refgeom as rg

EVAL_TOL = 1e-9
DETECT_MIN_IOU = 0.999
PRINTED_DIGITS = 6  # fit-demo prints losses with "%.6g"

_STEP = re.compile(r"^step (\d+) total (\S+) cls \S+ reg \S+ ori \S+$")
_OBJECT = re.compile(r"^object (\d+) (\S+) (?:iou \S+ score \S+|(unassigned))$")


def check_nms(stdout: str, kept_dir, expected: dict) -> list[str]:
    errors = []
    if stdout.splitlines() != expected["nms_stdout"]:
        errors.append(f"nms stdout {stdout.splitlines()[:2]} != {expected['nms_stdout'][:2]}")
    kept_dir = Path(kept_dir)
    names = {p.name for p in kept_dir.glob("*.txt")} if kept_dir.is_dir() else set()
    if names != set(expected["kept_files"]):
        errors.append(f"kept files {sorted(names)} != {sorted(expected['kept_files'])}")
    for name, text in expected["kept_files"].items():
        if name in names and (kept_dir / name).read_text() != text:
            errors.append(f"kept file {name} differs from the expected NMS output")
    return errors


def check_eval(report: dict, expected: dict) -> list[str]:
    errors = []
    if abs(report.get("map", math.nan) - expected["map"]) > EVAL_TOL:
        errors.append(f"mAP {report.get('map')} != {expected['map']}")
    per_class = report.get("per_class", {})
    if set(per_class) != set(expected["ap"]):
        errors.append(f"classes {sorted(per_class)} != {sorted(expected['ap'])}")
    for name, ap in expected["ap"].items():
        if name in per_class and abs(per_class[name] - ap) > EVAL_TOL:
            errors.append(f"AP[{name}] {per_class[name]} != {ap}")
    if report.get("mode") != "11point" or report.get("iou_threshold") != 0.5:
        errors.append(f"mode/iou {report.get('mode')}/{report.get('iou_threshold')} != 11point/0.5")
    return errors


def check_detections(dets, image: dict) -> list[str]:
    """dets: (class_id, 8 vertex coordinates) per detection."""
    errors = []
    objects = image["objects"]
    centers = [rg.center(q) for q in objects]
    got: Counter = Counter()
    for class_id, flat in dets:
        quad = list(zip(flat[0::2], flat[1::2]))
        cx, cy = rg.center(quad)
        j = min(range(len(objects)), key=lambda k: (centers[k][0] - cx) ** 2 + (centers[k][1] - cy) ** 2)
        overlap = rg.iou(quad, objects[j])
        if overlap < DETECT_MIN_IOU:
            errors.append(f"detection of class {class_id} has IoU {overlap:.6f} with object {j}")
        got[(j, class_id)] += 1
    want = Counter((j, c) for j, c in image["pairs"])
    if got != want:
        missing = sorted((want - got).elements())[:3]
        extra = sorted((got - want).elements())[:3]
        errors.append(f"{sum(got.values())} detections, want {sum(want.values())}; "
                      f"missing (object, class) {missing}, unexpected {extra}")
    return errors


def check_fusion(projections, bounds, image: dict) -> list[str]:
    """Fused maps projected on the probe vector, per level, against the reference.

    bounds[k][c] is |fused| @ |probe| for level k, channel c: the scale a
    change of summation order can move the projection by, times 1e-9.
    """
    errors = []
    for level, (got, bound, want) in enumerate(zip(projections, bounds, image["projections"])):
        if len(got) != len(want):
            errors.append(f"level {level}: {len(got)} fused channels, want {len(want)}")
            continue
        worst = max(abs(g - w) - 1e-9 * b for g, b, w in zip(got, bound, want))
        if worst > 0:
            errors.append(f"level {level}: fused features differ from the reference")
    return errors


def printed_close(printed: float, exact: float, digits: int = PRINTED_DIGITS) -> bool:
    """Whether `printed` is `exact` shown with `digits` significant digits.

    Half a unit in the last printed digit, plus rtol 1e-9, is allowed, so a
    different but valid summation order still passes.
    """
    if exact == 0.0:
        return printed == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - digits + 1)
    return abs(printed - exact) <= half_unit * (1 + 1e-9) + 1e-9 * abs(exact)


def check_train(stdout: str, expected: dict) -> list[str]:
    errors = []
    blocks: dict[str, list[str]] = {}
    order = []
    current = None
    for line in stdout.splitlines():
        if line.startswith("# image "):
            current = line[len("# image "):]
            order.append(current)
            blocks[current] = []
        elif current is not None:
            blocks[current].append(line)
    want_order = [e["image"] for e in expected["images"]]
    if order != want_order:
        return [f"images {order} != {want_order}"]
    for exp in expected["images"]:
        lines = blocks[exp["image"]]
        steps = [(int(m.group(1)), float(m.group(2))) for m in map(_STEP.match, lines) if m]
        objects = [m for m in map(_OBJECT.match, lines) if m]
        tag = f"image {exp['image']}"
        if not steps or steps[0][0] != 0 or steps[-1][0] != expected["steps"]:
            errors.append(f"{tag}: printed steps {[s for s, _ in steps]} do not run 0..{expected['steps']}")
            continue
        for (s0, t0), (s1, t1) in zip(steps, steps[1:]):
            if t1 > t0:
                errors.append(f"{tag}: loss rises from {t0} at step {s0} to {t1} at step {s1}")
        if not printed_close(steps[0][1], exp["step0_total"]):
            errors.append(f"{tag}: step-0 total {steps[0][1]} != {exp['step0_total']}")
        got = [(int(m.group(1)), m.group(2), m.group(3) is None) for m in objects]
        want = [(j, name, assigned) for j, (name, assigned)
                in enumerate(zip(exp["names"], exp["assigned"]))]
        if got != want:
            errors.append(f"{tag}: {len(got)} object lines, want {len(want)} "
                          f"(first difference at {next((a for a, b in zip(got, want) if a != b), None)})")
    return errors
