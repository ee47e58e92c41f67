"""Seeded inputs with known answers for the three benchmark workloads.

Every input is a pure function of (seed, workload): the same seed writes
byte-identical files. Alongside the inputs each generator writes
expected.json, the answers the output checks compare against. They come
from the construction itself and from refgeom, never from obbkit:

- dota_eval: ground truth is pairwise disjoint, and every raw detection is
  either a jittered copy of exactly one ground-truth box (IoU > 0.8 with
  it, 0 with everything else) or sits in empty space. NMS at 0.5 therefore
  keeps the best copy of each object plus every false positive, each kept
  copy matches its own object under both the "best unmatched" and the
  "argmax over all" matching rules, and per-class non-difficult counts are
  coprime to 10 so no recall lands on an 11-point sample.
- detect: background fused scores stay under the 0.05 threshold, and each
  object's blob of locations decodes to exactly that object's box, so the
  detections are one per (object, class) pair the generator planted.
- train: target assignment and the step-0 loss are recomputed here from
  the documented assignment rule and loss formulas at the zero init.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import refgeom as rg

CLASSES = (
    "baseball-diamond", "basketball-court", "bridge", "ground-track-field", "harbor",
    "helicopter", "large-vehicle", "plane", "roundabout", "ship", "small-vehicle",
    "soccer-ball-field", "storage-tank", "swimming-pool", "tennis-court",
)
IMAGE_SIZE = 1024
STRIDES = (8, 16, 32, 64, 128)
LEVEL_RANGES = ((0.0, 64.0), (64.0, 128.0), (128.0, 256.0), (256.0, 512.0), (512.0, math.inf))
CENTER_RADIUS_MULT = 1.5
GRID_SIZES = tuple(math.ceil(IMAGE_SIZE / s) for s in STRIDES)
LOCATIONS = sum(g * g for g in GRID_SIZES)

# dota_eval scene shape
EVAL_IMAGES = 4
EVAL_GT_PER_IMAGE = 200
EVAL_FP_SHARE = 0.15
EVAL_DIFFICULT_SHARE = 0.05

# detect scene shape
DETECT_IMAGES = 3
DETECT_OBJECTS = 100
DETECT_CHANNELS = 64
DETECT_SECOND_CLASS_SHARE = 0.3

# train scene shape: (count, min length, max length, thin) per size tier,
# ordered so the objects whose extents reach the coarse levels go first
TRAIN_IMAGES = 2
TRAIN_TIERS = ((1, 900.0, 980.0, True), (2, 450.0, 700.0, True), (6, 220.0, 420.0, False),
               (15, 110.0, 210.0, False), (76, 16.0, 100.0, False))
TRAIN_STEPS = 8

IGNORED, FP, TP = -1, 0, 1


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _zipf(rng, n):
    """n class ids 0..14 in Zipf(1) proportions over a seeded rank order.

    The per-class counts are fixed quotas and only which class gets which
    quota and where it lands vary with the seed, so the amount of per-class
    work does not swing from seed to seed.
    """
    p = 1.0 / np.arange(1, len(CLASSES) + 1)
    share = n * p / p.sum()
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share, kind="stable")[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(rng.permutation(len(CLASSES)), counts))


def _rounded_rect(cx, cy, length, width, angle):
    quad = [(round(x, 2), round(y, 2)) for x, y in rg.rect_corners(cx, cy, length, width, angle)]
    return rg.canonical_order(quad)


def _inside_image(poly, pad=1.0):
    xmin, ymin, xmax, ymax = rg.bounds(poly)
    return xmin >= pad and ymin >= pad and xmax <= IMAGE_SIZE - pad and ymax <= IMAGE_SIZE - pad


def _line(quad) -> str:
    return " ".join(rg.fmt(v) for p in quad for v in p)


def voc_ap_11(flags, num_gt: int) -> float:
    """VOC 11-point AP of score-sorted TP/FP/IGNORED flags, as the DOTA devkit computes it."""
    flags = np.array([f for f in flags if f != IGNORED], dtype=int)
    if flags.size == 0 or num_gt == 0:
        return 0.0
    tp = np.cumsum(flags == TP)
    fp = np.cumsum(flags == FP)
    rec = tp / num_gt
    prec = tp / (tp + fp)
    ap = 0.0
    for t in np.arange(0.0, 1.1, 0.1):
        ap += (prec[rec >= t].max() if (rec >= t).any() else 0.0) / 11.0
    return float(ap)


# ------------------------------------------------------------------ dota_eval


def _fix_counts(objects):
    """Make each class's non-difficult count coprime to 10 by toggling difficult flags."""
    for c in range(len(CLASSES)):
        members = [o for o in objects if o["cls"] == c]
        nondiff = sum(not o["difficult"] for o in members)
        up = nondiff == 0 or sum(o["difficult"] for o in members) >= 3
        while math.gcd(nondiff, 10) != 1:
            pool = [o for o in members if o["difficult"] == up]
            pool[0]["difficult"] = not up
            nondiff += 1 if up else -1


def make_dota_eval(seed: int, root: Path) -> dict:
    rng = _rng(seed, "dota_eval")
    images = [f"P{i:04d}" for i in range(EVAL_IMAGES)]
    gt_objects, fps = [], []
    for image in images:
        placer = rg.Placer(margin=2.0)
        n_fp = round(EVAL_GT_PER_IMAGE * EVAL_FP_SHARE)
        for want, bucket in ((EVAL_GT_PER_IMAGE, gt_objects), (n_fp, fps)):
            count = 0
            for _ in range(40 * want):
                if count == want:
                    break
                length = math.exp(rng.uniform(math.log(16.0), math.log(64.0)))
                width = max(length / rng.uniform(1.0, 3.0), 8.0)
                angle = rng.uniform(8.0, 82.0)
                cx, cy = rng.uniform(0.0, IMAGE_SIZE, 2)
                # the envelope holds every jittered copy, so copies of different
                # objects stay disjoint whenever the envelopes do
                env = rg.rect_corners(cx, cy, length * 1.2 + 6.0, width * 1.2 + 6.0, angle)
                if not _inside_image(env) or not placer.fits(env):
                    continue
                placer.add(env)
                quad = _rounded_rect(cx, cy, length, width, angle)
                bucket.append({"image": image, "quad": quad, "geom": (cx, cy, length, width, angle),
                               "difficult": False})
                count += 1
    labels = np.concatenate([_zipf(rng, EVAL_GT_PER_IMAGE) for _ in images])
    difficult = rng.permutation(len(gt_objects)) < round(EVAL_DIFFICULT_SHARE * len(gt_objects))
    for o, c, d in zip(gt_objects, labels, difficult):
        o["cls"], o["difficult"] = int(c), bool(d)
    _fix_counts(gt_objects)
    for o, c in zip(fps, _zipf(rng, len(fps))):
        o["cls"] = int(c)

    dets = []
    copies = rng.permutation(np.resize([2, 3, 4], len(gt_objects)))
    for j, o in enumerate(gt_objects):
        cx, cy, length, width, angle = o["geom"]
        for _ in range(int(copies[j])):
            for _try in range(50):
                dx, dy = rng.uniform(-0.02, 0.02, 2) * width
                copy = _rounded_rect(cx + dx, cy + dy, length * rng.uniform(0.97, 1.03),
                                     width * rng.uniform(0.97, 1.03), angle + rng.uniform(-1.5, 1.5))
                if rg.iou(copy, o["quad"]) > 0.8 and rg.is_strictly_convex(copy):
                    break
            else:
                copy = o["quad"]
            dets.append({"image": o["image"], "cls": o["cls"], "quad": copy, "gt": j})
    for o in fps:
        dets.append({"image": o["image"], "cls": o["cls"], "quad": o["quad"], "gt": None})
    for d, k in zip(dets, rng.choice(900_000, size=len(dets), replace=False)):
        d["score"] = (100_000 + int(k)) / 1e6  # unique scores: no tie-breaking rule matters

    gt_dir, raw_dir = root / "gt", root / "raw"
    gt_dir.mkdir(parents=True)
    raw_dir.mkdir(parents=True)
    for image in images:
        lines = ["imagesource:GoogleEarth", "gsd:0.146"]
        lines += [f"{_line(o['quad'])} {CLASSES[o['cls']]} {int(o['difficult'])}"
                  for o in gt_objects if o["image"] == image]
        (gt_dir / f"{image}.txt").write_text("\n".join(lines) + "\n")
    for c, name in enumerate(CLASSES):
        mine = [d for d in dets if d["cls"] == c]
        order = rng.permutation(len(mine))
        text = "".join(f"{mine[i]['image']} {rg.fmt(mine[i]['score'])} {_line(mine[i]['quad'])}\n"
                       for i in order)
        (raw_dir / f"Task1_{name}.txt").write_text(text)

    # NMS keeps the best copy of each object and every false positive
    kept, seen = [], set()
    for d in sorted(dets, key=lambda d: -d["score"]):
        if d["gt"] is None or d["gt"] not in seen:
            seen.add(d["gt"])
            kept.append(d)
    nms_stdout = [f"{image}: kept {sum(d['image'] == image for d in kept)} of "
                  f"{sum(d['image'] == image for d in dets)}" for image in images]
    kept_files = {}
    for c, name in enumerate(CLASSES):
        lines = [f"{d['image']} {rg.fmt(d['score'])} {_line(d['quad'])}"
                 for image in images for d in kept if d["image"] == image and d["cls"] == c]
        kept_files[f"{name}.txt"] = "\n".join(lines) + ("\n" if lines else "")

    ap = {}
    for c, name in enumerate(CLASSES):
        flags = []
        for d in kept:  # already score-sorted
            if d["cls"] != c:
                continue
            if d["gt"] is None:
                flags.append(FP)
            else:
                flags.append(IGNORED if gt_objects[d["gt"]]["difficult"] else TP)
        num_gt = sum(o["cls"] == c and not o["difficult"] for o in gt_objects)
        ap[name] = voc_ap_11(flags, num_gt)
    expected = {
        "images": images,
        "nms_stdout": nms_stdout,
        "kept_files": kept_files,
        "ap": ap,
        "map": float(np.mean(list(ap.values()))),
        "sizes": {"image": f"{IMAGE_SIZE}x{IMAGE_SIZE}", "images": len(images),
                  "gt_per_image": [sum(o["image"] == i for o in gt_objects) for i in images],
                  "raw_dets_per_image": [sum(d["image"] == i for d in dets) for i in images],
                  "classes": len(CLASSES)},
    }
    (root / "expected.json").write_text(json.dumps(expected))
    return expected


# --------------------------------------------------------------------- detect


def reference_ie_fuse(cls_feat, reg_feat, ori_feat, wf, wg, wh):
    """Channel self-attention fusion with gamma 1, written from the IENet formula."""
    x = cls_feat + reg_feat
    logits = ((wf @ x) @ (wg @ x).T).T
    table = np.exp(logits - logits.max(axis=1, keepdims=True))
    table /= table.sum(axis=1, keepdims=True)
    return table @ (wh @ x) + x + ori_feat


def level_slices():
    out, start = [], 0
    for g in GRID_SIZES:
        out.append(slice(start, start + g * g))
        start += g * g
    return out


def make_detect(seed: int, root: Path) -> dict:
    rng = _rng(seed, "detect")
    c = DETECT_CHANNELS
    weights = rng.standard_normal((3, c, c)) * 0.01
    probe = rng.standard_normal(LOCATIONS)
    root.mkdir(parents=True)
    np.save(root / "weights.npy", weights)
    np.save(root / "probe.npy", probe)
    slices = level_slices()
    expected_images = []
    for k in range(DETECT_IMAGES):
        feats = rng.standard_normal((3, c, LOCATIONS))
        k_cls = len(CLASSES)
        head = np.empty((LOCATIONS, k_cls + 7))
        head[:, :k_cls] = rng.uniform(0.0, 0.2, (LOCATIONS, k_cls))
        head[:, k_cls] = rng.uniform(0.0, 0.2, LOCATIONS)
        head[:, k_cls + 1:k_cls + 5] = rng.uniform(1.0, 64.0, (LOCATIONS, 4))
        head[:, k_cls + 5:] = rng.uniform(0.0, 16.0, (LOCATIONS, 2))

        placer = rg.Placer(margin=2.0)
        taken: set = set()
        labels = _zipf(rng, DETECT_OBJECTS)
        n_confusable = round(DETECT_SECOND_CLASS_SHARE * DETECT_OBJECTS)
        confusable = {int(i) for i in rng.permutation(DETECT_OBJECTS)[:n_confusable]}
        objects, pairs = [], []
        for _ in range(40 * DETECT_OBJECTS):
            if len(objects) == DETECT_OBJECTS:
                break
            length = math.exp(rng.uniform(math.log(40.0), math.log(240.0)))
            width = max(length / rng.uniform(1.0, 2.5), 28.0)
            angle = rng.uniform(8.0, 82.0)
            cx, cy = rng.uniform(0.0, IMAGE_SIZE, 2)
            quad = rg.canonical_order(rg.rect_corners(cx, cy, length, width, angle))
            if not _inside_image(quad, pad=2.0) or not placer.fits(quad):
                continue
            xmin, ymin, xmax, ymax = rg.bounds(quad)
            level = max(i for i, s in enumerate(STRIDES) if 3 * s + 2 < min(xmax - xmin, ymax - ymin))
            s, g = STRIDES[level], GRID_SIZES[level]
            xc = int(np.clip(round((cx - s // 2) / s), 1, g - 2))
            yc = int(np.clip(round((cy - s // 2) / s), 1, g - 2))
            cells = [(level, y, x) for y in (yc - 1, yc, yc + 1) for x in (xc - 1, xc, xc + 1)]
            pts = [(s // 2 + x * s, s // 2 + y * s) for _l, y, x in cells]
            if taken & set(cells) or not all(xmin + 1 < px < xmax - 1 and ymin + 1 < py < ymax - 1
                                             for px, py in pts):
                continue
            placer.add(quad)
            taken |= set(cells)
            j = len(objects)
            objects.append(quad)
            primary = int(labels[j])
            second = None
            if j in confusable:
                second = int((primary + rng.integers(1, k_cls)) % k_cls)
            pairs.append([j, primary + 1])
            if second is not None:
                pairs.append([j, second + 1])
            w_off = xmax - quad[1][0]
            h_off = ymax - quad[0][1]
            for (_l, y, x), (px, py) in zip(cells, pts):
                idx = slices[level].start + y * g + x
                head[idx, :k_cls] = rng.uniform(0.0, 0.04, k_cls)
                head[idx, primary] = rng.uniform(0.5, 0.95)
                if second is not None:
                    head[idx, second] = rng.uniform(0.2, 0.45)
                head[idx, k_cls] = rng.uniform(0.6, 0.95)
                head[idx, k_cls + 1:k_cls + 5] = (px - xmin, py - ymin, xmax - px, ymax - py)
                head[idx, k_cls + 5:] = (w_off, h_off)

        image_dir = root / f"img{k}"
        image_dir.mkdir()
        np.save(image_dir / "feat.npy", feats)
        np.save(image_dir / "head.npy", head)
        projections = [
            (reference_ie_fuse(feats[0][:, sl], feats[1][:, sl], feats[2][:, sl], *weights)
             @ probe[sl]).tolist()
            for sl in slices
        ]
        expected_images.append({"objects": objects, "pairs": pairs, "projections": projections})
    expected = {
        "images": expected_images,
        "sizes": {"image": f"{IMAGE_SIZE}x{IMAGE_SIZE}", "images": DETECT_IMAGES,
                  "locations": LOCATIONS, "classes": len(CLASSES), "channels": c,
                  "objects_per_image": [len(e["objects"]) for e in expected_images],
                  "detections_per_image": [len(e["pairs"]) for e in expected_images]},
    }
    (root / "expected.json").write_text(json.dumps(expected))
    return expected


# ---------------------------------------------------------------------- train


def reference_assignment(hbbs):
    """Per-level positives under the documented rule: inside the HBB, within
    1.5 strides of its center, max offset in the level range, smallest area wins."""
    out = []
    for s, g, (lo, hi) in zip(STRIDES, GRID_SIZES, LEVEL_RANGES):
        p = (s // 2 + np.arange(g) * s).astype(float)
        gx = np.broadcast_to(p[None, :], (g, g))
        gy = np.broadcast_to(p[:, None], (g, g))
        radius = CENTER_RADIUS_MULT * s
        best_area = np.full((g, g), np.inf)
        best = np.full((g, g), -1)
        for j, (xmin, ymin, xmax, ymax) in enumerate(hbbs):
            area = (xmax - xmin) * (ymax - ymin)
            inside = (gx > xmin) & (gx < xmax) & (gy > ymin) & (gy < ymax)
            near = (np.abs(gx - (xmin + xmax) / 2.0) <= radius) & (np.abs(gy - (ymin + ymax) / 2.0) <= radius)
            off = np.maximum(np.maximum(gx - xmin, xmax - gx), np.maximum(gy - ymin, ymax - gy))
            claim = inside & near & (off > lo) & (off <= hi) & (area < best_area)
            best_area[claim] = area
            best[claim] = j
        out.append((gx, gy, best))
    return out


def _smooth_l1(e):
    a = np.abs(e)
    return np.where(a < 1.0, 0.5 * e * e, a - 0.5)


def reference_step0_total(quads, num_classes):
    """Composite loss at the zero init (scores 0.5, offsets 1) with the default weights."""
    alpha, beta, reg_l1, ori_l1 = 0.3, 4.0, 0.2, 0.2
    hbbs = [rg.bounds(q) for q in quads]
    cls_sum = -LOCATIONS * num_classes * alpha * 0.5 ** beta * math.log(0.5)
    reg_sum = ori_sum = 0.0
    num_pos = 0
    for gx, gy, best in reference_assignment(hbbs):
        for y, x in zip(*np.nonzero(best >= 0)):
            j = int(best[y, x])
            xmin, ymin, xmax, ymax = hbbs[j]
            px, py = gx[y, x], gy[y, x]
            l, t, r, b = px - xmin, py - ymin, xmax - px, ymax - py
            wi = min(1.0, l) + min(1.0, r)
            hi = min(1.0, t) + min(1.0, b)
            inter = wi * hi
            iou = inter / (4.0 + (l + r) * (t + b) - inter)
            w_off = xmax - quads[j][1][0]
            h_off = ymax - quads[j][0][1]
            reg_sum += math.log(2.0) + reg_l1 * _smooth_l1(1.0 - np.array([l, t, r, b])).sum() + 1.0 - iou
            # the inner box of the all-ones prediction is empty, so its IoU term is 1
            ori_sum += ori_l1 * _smooth_l1(1.0 - np.array([w_off, h_off])).sum() + 1.0
            num_pos += 1
    return (cls_sum + reg_sum + ori_sum) / max(num_pos, 1)


def make_train(seed: int, root: Path) -> dict:
    rng = _rng(seed, "train")
    gt_dir = root / "gt"
    gt_dir.mkdir(parents=True)
    images = []
    all_objects = {}
    for k in range(TRAIN_IMAGES):
        placer = rg.Placer(margin=2.0)
        quads = []
        for count, lo, hi, thin in TRAIN_TIERS:
            placed = 0
            for _ in range(200 * count):
                if placed == count:
                    break
                length = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                width = rng.uniform(20.0, 50.0) if thin else max(length / rng.uniform(1.0, 4.0), 8.0)
                angle = rng.uniform(8.0, 20.0) if length > 800 else rng.uniform(8.0, 82.0)
                cx, cy = rng.uniform(0.0, IMAGE_SIZE, 2)
                quad = _rounded_rect(cx, cy, length, width, angle)
                if not _inside_image(quad) or not rg.is_strictly_convex(quad) or not placer.fits(quad):
                    continue
                placer.add(quad)
                quads.append(quad)
                placed += 1
        order = rng.permutation(len(quads))
        quads = [quads[i] for i in order]
        labels = _zipf(rng, len(quads))
        difficult = rng.permutation(len(quads)) < round(EVAL_DIFFICULT_SHARE * len(quads))
        image = f"T{k:04d}"
        images.append(image)
        all_objects[image] = (quads, [CLASSES[c] for c in labels])
        lines = [f"{_line(q)} {CLASSES[c]} {int(d)}" for q, c, d in zip(quads, labels, difficult)]
        (gt_dir / f"{image}.txt").write_text("\n".join(lines) + "\n")

    num_classes = len({n for _q, names in all_objects.values() for n in names})
    expected_images = []
    for image in images:
        quads, names = all_objects[image]
        assigned = set()
        for _gx, _gy, best in reference_assignment([rg.bounds(q) for q in quads]):
            assigned |= {int(j) for j in np.unique(best[best >= 0])}
        expected_images.append({
            "image": image,
            "names": names,
            "assigned": [j in assigned for j in range(len(quads))],
            "step0_total": reference_step0_total(quads, num_classes),
        })
    expected = {
        "steps": TRAIN_STEPS,
        "images": expected_images,
        "sizes": {"image": f"{IMAGE_SIZE}x{IMAGE_SIZE}", "images": len(images),
                  "locations": LOCATIONS, "classes": num_classes,
                  "objects_per_image": [len(e["names"]) for e in expected_images]},
    }
    (root / "expected.json").write_text(json.dumps(expected))
    return expected


GENERATORS = {"dota_eval": make_dota_eval, "detect": make_detect, "train": make_train}
