"""Command-line interface.

Subcommands: iou, encode, decode, assign, loss, nms, eval, fit-demo.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dota
from .config import RunConfig, build_config, read_config_file
from .errors import DegenerateQuad, Diverged, NonFiniteScore, ObbkitError, ParseError
from .evaluation import GtIndex, evaluate
from .geometry import (
    EncodedBox, HBB, canonicalize, canonicalize_many, decode, encode_many, polygon_iou,
    polygon_iou_pairs, quad_arrays, quad_error, quad_list, raster_iou_oracle,
)
from .inference import nms_per_image
from .losses import PredictionBatch, _check_fit_args, _fit_positives, grad_check, total_loss
from .targets import (
    FeatureGridSpec, TargetMaps, _assign_positives, _flat_positives, _Positives, grid_specs,
)

_USAGE_EXIT = 1
_DATA_EXIT = 2
_NUMERIC_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _load_config(args, **flags) -> RunConfig:
    """The run config of --config, then the --set pairs, then each flag
    value given as a config key (None: the flag was not given)."""
    file_values = read_config_file(args.config) if args.config else {}
    overrides: dict[str, object] = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {item!r}")
        overrides[key.strip()] = value.strip()
    overrides.update((key, value) for key, value in flags.items() if value is not None)
    return build_config(file_values, **overrides)


def _parse_quad_flag(raw: str):
    tokens = raw.replace(",", " ").split()
    if len(tokens) != 8:
        raise ValueError(f"expected 8 coordinates, got {len(tokens)}")
    values = [float(t) for t in tokens]
    return canonicalize(list(zip(values[0::2], values[1::2])))


def _number_rows(path, width: int) -> tuple[np.ndarray, ParseError | None]:
    """The first `width` numbers of each line of an encode/decode file, as an
    (N, width) array of the lines before the first error, and that error
    (None when every line reads). Further fields on a line are ignored."""

    def row(tokens):
        # a short line's numbers are read before its length is checked
        values = dota._numbers(tokens[:width])
        if len(tokens) < width:
            raise ValueError(f"expected {width} numbers, got {len(tokens)}")
        return values

    rows, error = dota._parse_lines(path, row, comments=True)
    return np.array(rows, dtype=float).reshape(-1, width), error


def _derive_image_size(quads: np.ndarray, strides) -> tuple[int, int]:
    """The smallest multiple of the largest stride, on each axis, beyond
    every vertex of the (K, 4, 2) quads (and at least one stride)."""
    step = max(strides)
    corners = quads.reshape(-1, 2)
    xmax, ymax = corners.max(axis=0, initial=0.0).tolist()
    width = max(int(math.ceil((xmax + 1) / step)) * step, step)
    height = max(int(math.ceil((ymax + 1) / step)) * step, step)
    return width, height


def _parse_image_size(raw: str) -> tuple[int, int]:
    w, sep, h = raw.lower().partition("x")
    if not sep:
        raise ValueError(f"--image-size expects WxH, got {raw!r}")
    width, height = int(w), int(h)
    if width < 1 or height < 1:
        raise ValueError(f"--image-size needs a positive width and height, got {raw!r}")
    return width, height


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _image_rows(gt: GtIndex) -> list[np.ndarray]:
    """The rows of each image of gt, in image_ids order, each in file order
    (one stable sort for the whole index)."""
    order = np.argsort(gt.image, kind="stable")
    bounds = np.searchsorted(gt.image[order], np.arange(len(gt.image_ids) + 1)).tolist()
    return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _image_positives(
    gt: GtIndex, rows: np.ndarray, cfg: RunConfig, size: tuple[int, int] | None
) -> tuple[int, int, list[FeatureGridSpec], list[_Positives]]:
    """Width, height, grid specs and per-level positive targets of the
    objects in rows; the size is derived from their quads when size is None."""
    quads = gt.quads[rows]
    width, height = size or _derive_image_size(quads, cfg.strides)
    specs = grid_specs(width, height, cfg.strides)
    levels = _assign_positives(
        specs, cfg.level_ranges, quads, gt.class_id[rows], gt.difficult[rows],
        cfg.center_radius_mult,
    )
    return width, height, specs, levels


def _best_positives(object_index: np.ndarray, fused: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(objects, positives): each object that owns a positive, ascending, and
    the index of its positive with the highest fused score, the first on ties."""
    # lexsort is stable: among equal keys the earlier positive comes first
    order = np.lexsort((-fused, object_index))
    obj = object_index[order]
    first = np.ones(obj.size, dtype=bool)
    first[1:] = obj[1:] != obj[:-1]
    return obj[first], order[first]


# ---------------------------------------------------------------- commands


def _cmd_iou(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    quad_a = _parse_quad_flag(args.quad_a)
    quad_b = _parse_quad_flag(args.quad_b)
    value = polygon_iou(quad_a, quad_b)
    print(f"iou {_fmt(value)}")
    if args.raster_check:
        oracle = raster_iou_oracle(quad_a, quad_b, args.grid)
        print(f"raster {_fmt(oracle)}")
        print(f"delta {_fmt(abs(value - oracle))}")
    return 0


def _cmd_encode(args) -> int:
    # The lines before the first error in file order are printed, then it is raised.
    rows, error = _number_rows(args.file, 8)
    raw = rows.reshape(-1, 4, 2)
    quads, fault = canonicalize_many(raw)
    bounds, wh = encode_many(quads)
    decoded, ious = [], []
    try:
        for k in range(len(raw)):
            if fault[k]:
                raise quad_error(raw[k], fault[k])
            decoded.append(decode(EncodedBox(HBB(*bounds[k].tolist()), *wh[k].tolist())))
    except (ValueError, DegenerateQuad) as exc:
        error = exc
    try:
        ious = polygon_iou_pairs(quad_arrays(decoded), quads[: len(decoded)]).tolist()
    except ValueError as exc:
        # an intersection vertex overflowed: score pair by pair up to it, print those lines
        error = exc
        with contextlib.suppress(ValueError):
            for back, quad in zip(decoded, quad_list(quads)):
                ious.append(polygon_iou(back, quad))
    for fields, iou in zip(np.hstack([bounds, wh]).tolist(), ious):
        print(" ".join(_fmt(v) for v in fields) + f" roundtrip {_fmt(iou)}")
    if error is not None:
        raise error
    print(f"# {len(ious)} boxes, worst roundtrip iou {_fmt(min([1.0, *ious]))}")
    return 0


def _cmd_decode(args) -> int:
    rows, error = _number_rows(args.file, 6)
    for xmin, ymin, xmax, ymax, w, h in rows.tolist():
        quad = decode(EncodedBox(HBB(xmin, ymin, xmax, ymax), w, h))
        print(" ".join(_fmt(v) for v in quad.as_flat()))
    if error is not None:
        raise error
    return 0


def _cmd_assign(args) -> int:
    cfg = _load_config(args, center_radius_mult=args.radius_mult)
    size = _parse_image_size(args.image_size) if args.image_size else None
    gt = dota.parse_dota_annotations(args.gt)
    for image_id, rows in zip(gt.image_ids, _image_rows(gt)):
        width, height, specs, levels = _image_positives(gt, rows, cfg, size)
        print(f"# image {image_id} size {width}x{height}")
        for spec, pos in zip(specs, levels):
            y_s, x_s = np.divmod(pos.loc, spec.width)
            values = np.column_stack([pos.ltrb, pos.wh, pos.centerness])
            print("\n".join([*(
                f"{spec.level} {x} {y} {class_id} {fields} {int(difficult)}"
                for x, y, class_id, fields, difficult in zip(
                    x_s.tolist(), y_s.tolist(), pos.class_id.tolist(),
                    dota._format_rows(values), pos.difficult.tolist())
            ), f"# level {spec.level}: {pos.loc.size} positive of "
               f"{spec.width * spec.height} locations"]))
    return 0


def _read_targets_file(path) -> TargetMaps:
    """One location per line: a bare `0` (background) or `class_id l t r b w h centerness`.

    Raises the first error in file order; a line's numbers are read after
    its class id and field count are checked.
    """
    rows, error = dota._parse_lines(path, _target_row, comments=True)
    if error is not None:
        raise error
    class_ids = [class_id for class_id, _ in rows]
    values = np.array([v for _, v in rows], dtype=float).reshape(-1, 7)
    n = len(rows)
    return TargetMaps(
        class_ids, values[:, :4], values[:, 4:6], values[:, 6], np.zeros(n, bool),
        np.full(n, -1), np.zeros((n, 2)), np.stack([np.arange(n), np.zeros(n, int)], axis=1),
    )


def _target_row(tokens: list[str]) -> tuple[int, list[float]]:
    """Class id and the 7 numbers (zeros for background) of one targets line."""
    try:
        class_id = int(tokens[0])
    except ValueError:
        raise ValueError(f"expected a class id, got {tokens[0]!r}") from None
    if class_id < 0:
        raise ValueError(f"class id must be >= 0, got {class_id}")
    if len(tokens) != (8 if class_id else 1):
        raise ValueError("expected 0 or class_id l t r b w h centerness")
    return class_id, dota._numbers(tokens[1:]) if class_id else [0.0] * 7


def _read_preds_file(path) -> PredictionBatch:
    """One location per line, `centerness l t r b w h s1 ... sC`, as wide as the first."""
    width = 0

    def row(tokens):
        nonlocal width
        width = width or len(tokens)
        if len(tokens) != width:
            raise ValueError(f"expected {width} fields, got {len(tokens)}")
        if width < 8:
            raise ValueError("predictions need centerness, l t r b, w h and class scores")
        return dota._numbers(tokens)

    rows, error = dota._parse_lines(path, row, comments=True)
    if error is not None:
        raise error
    if not rows:
        raise ParseError(Path(path), 1, "no predictions")
    data = np.array(rows, dtype=float)
    return PredictionBatch(
        class_scores=data[:, 7:],
        centerness=data[:, 0],
        ltrb=data[:, 1:5],
        wh=data[:, 5:7],
    )


def _loss_grad_checks(batch: PredictionBatch, targets, weights) -> dict[str, float]:
    """Finite-difference verification of each prediction block's gradient."""

    def block_fn(name, grad_name):
        def fn(x):
            moved = dataclasses.replace(batch, **{name: x.reshape(getattr(batch, name).shape)})
            res = total_loss(moved, targets, weights)
            return res.breakdown.total, getattr(res, grad_name).reshape(-1)

        return fn

    blocks = {
        "class_scores": "class_score_grad",
        "centerness": "centerness_grad",
        "ltrb": "ltrb_grad",
        "wh": "wh_grad",
    }
    return {
        name: grad_check(block_fn(name, grad_name), getattr(batch, name).reshape(-1))
        for name, grad_name in blocks.items()
    }


def _cmd_loss(args) -> int:
    cfg = _load_config(args)
    targets = _read_targets_file(args.targets)
    batch = _read_preds_file(args.preds)
    result = total_loss(batch, targets, cfg.weights)
    b = result.breakdown
    print(f"total      {_fmt(b.total)}")
    print(f"cls_loss   {_fmt(b.cls_loss)}")
    print(f"reg_loss   {_fmt(b.reg_loss)}")
    print(f"ori_loss   {_fmt(b.ori_loss)}")
    print(f"num_pos    {b.num_pos}")
    print(f"normalizer {b.normalizer}")
    if args.grad_check:
        for name, err in _loss_grad_checks(batch, targets, cfg.weights).items():
            print(f"grad_check {name} {_fmt(err)}")
    return 0


def _cmd_nms(args) -> int:
    dets, classes = dota.parse_dota_detections(args.dets)
    kept = nms_per_image(dets, args.iou)
    dota.write_dota_detections(kept, classes, args.out)
    counts = np.bincount(dets.image, minlength=len(dets.image_ids)).tolist()
    kept_counts = np.bincount(kept.image, minlength=len(dets.image_ids)).tolist()
    for image_id, n, k in zip(dets.image_ids, counts, kept_counts):
        print(f"{image_id}: kept {k} of {n}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args, eval_iou_threshold=args.iou, metric_mode=args.mode)
    gt = dota.parse_dota_annotations(args.gt)
    dets, _ = dota.parse_dota_detections(
        args.dets, gt.classes, unknown_category=args.unknown_category
    )
    report = evaluate(dets, gt, cfg.eval_iou_threshold, cfg.metric_mode)
    name_width = max([len(n) for n in gt.classes.names] + [len("class"), len("mAP")])
    print(f"{'class':<{name_width}}  ap")
    for name in gt.classes.names:
        print(f"{name:<{name_width}}  {_fmt(report.per_class[name])}")
    print(f"{'mAP':<{name_width}}  {_fmt(report.mean_ap)}")
    # every field of the report, mean_ap under the name "map"
    fields = dataclasses.asdict(report).items()
    payload = json.dumps({("map" if key == "mean_ap" else key): v for key, v in fields})
    if args.json:
        Path(args.json).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_fit_demo(args) -> int:
    cfg = _load_config(args)
    _check_fit_args(args.steps, args.lr)
    if args.trace_every is not None and args.trace_every < 1:
        raise ValueError(f"--trace-every must be >= 1, got {args.trace_every}")
    size = _parse_image_size(args.image_size) if args.image_size else None
    gt = dota.parse_dota_annotations(args.gt)
    trace_every = args.trace_every or max(args.steps // 10, 1)
    for image_id, rows in zip(gt.image_ids, _image_rows(gt)):
        fit = None
        if rows.size:
            _, _, specs, levels = _image_positives(gt, rows, cfg, size)
            n, pos = _flat_positives(specs, levels)
            if pos.loc.size:
                # fit before the image header, so a numeric failure leaves no header
                fit = _fit_positives(
                    n, pos.class_id, (pos.centerness, pos.ltrb, pos.wh), pos.points,
                    cfg.weights, args.steps, args.lr, len(gt.classes),
                )
        print(f"# image {image_id}")
        if fit is None:
            print("no positive locations" if rows.size else "no objects")
            continue
        trajectory, _, _, decoded, fused = fit
        last = len(trajectory) - 1
        print("\n".join(
            f"step {step} total {_fmt(b.total)} cls {_fmt(b.cls_loss)} reg {_fmt(b.reg_loss)} "
            f"ori {_fmt(b.ori_loss)}"
            for step, b in enumerate(trajectory) if step % trace_every == 0 or step == last
        ))
        objs, picks = _best_positives(pos.object_index, fused)
        ious = polygon_iou_pairs(decoded[picks], gt.quads[rows[objs]])
        results = ["unassigned"] * rows.size
        for j, iou, score in zip(objs.tolist(), ious.tolist(), fused[picks].tolist()):
            results[j] = f"iou {_fmt(iou)} score {_fmt(score)}"
        print("\n".join(
            f"object {j} {gt.classes.name_of(class_id)} {result}"
            for j, (class_id, result) in enumerate(zip(gt.class_id[rows].tolist(), results))
        ))
    return 0


# ---------------------------------------------------------------- wiring


def _add_config_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any config field (repeatable)",
    )
    sub.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of every subcommand (:func:`main` builds one per process)."""
    parser = _Parser(prog="obbkit", description=__doc__)
    commands = parser.add_subparsers(dest="command")

    p = commands.add_parser("iou", parents=[], help="polygon IoU of two quads")
    p.add_argument("--quad-a", required=True, help="8 comma/space separated coordinates")
    p.add_argument("--quad-b", required=True)
    p.add_argument("--raster-check", action="store_true", help="also run the grid-counting oracle")
    p.add_argument("--grid", type=int, default=1000, help="oracle grid resolution")
    p.set_defaults(handler=_cmd_iou)

    p = commands.add_parser("encode", help="oriented quads -> HBB plus (w, h)")
    p.add_argument("file", help="text file, 8 coordinates per line")
    p.set_defaults(handler=_cmd_encode)

    p = commands.add_parser("decode", help="HBB plus (w, h) -> oriented quads")
    p.add_argument("file", help="text file, lines of xmin ymin xmax ymax w h")
    p.set_defaults(handler=_cmd_decode)

    p = commands.add_parser("assign", help="dump per-level training targets")
    p.add_argument("--gt", required=True, help="annotation directory")
    p.add_argument("--radius-mult", type=float, help="center sampling radius in strides")
    p.add_argument("--image-size", help="WxH (default: derived from the annotations)")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_assign)

    p = commands.add_parser("loss", help="composite loss of a prediction/target pair")
    p.add_argument("--targets", required=True, help="targets file")
    p.add_argument("--preds", required=True, help="predictions file")
    p.add_argument("--grad-check", action="store_true", help="verify analytic gradients")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_loss)

    p = commands.add_parser("nms", help="rotated NMS over detection files")
    p.add_argument("--dets", required=True, help="detection directory")
    p.add_argument("--iou", type=float, default=0.5, help="suppression IoU threshold")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
    p.set_defaults(handler=_cmd_nms)

    p = commands.add_parser("eval", help="VOC-style AP / mAP over rotated IoU")
    p.add_argument("--gt", required=True, help="annotation directory")
    p.add_argument("--dets", required=True, help="detection directory")
    p.add_argument("--iou", type=float, help="match IoU threshold (default 0.5)")
    p.add_argument("--mode", choices=["07", "all"], help="AP interpolation mode")
    p.add_argument("--json", help="write the JSON report here instead of stdout")
    p.add_argument(
        "--unknown-category",
        choices=["error", "skip"],
        default="error",
        help="how to treat detection files whose class is not in the annotations",
    )
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_eval)

    p = commands.add_parser("fit-demo", help="gradient-descent fit of the loss stack")
    p.add_argument("--gt", required=True, help="annotation directory")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--trace-every", type=int, help="trace interval (default steps/10)")
    p.add_argument("--image-size", help="WxH (default: derived from the annotations)")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_fit_demo)

    return parser


# main's parser, built on its first call; parsing leaves no state in it
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    if not getattr(args, "handler", None):
        parser.print_help()
        return _USAGE_EXIT
    try:
        return args.handler(args)
    except (Diverged, NonFiniteScore, FloatingPointError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT
    except (ObbkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
