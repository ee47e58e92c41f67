"""Span tracer that wraps obbkit's public functions from outside.

Each function is wrapped where its caller looks it up (for example
obbkit.inference.polygon_iou and obbkit.evaluation.polygon_iou are two
lookups of one function), so the program itself carries no tracing code.
A span records name, start, end and parent and stays in memory until the
run ends. Leaf functions called tens of thousands of times per run
(polygon_iou, canonicalize, quad_from_offsets) are aggregated into a call
count and time per (leaf, parent span) instead. Counter hooks run after a
call returns; their time is kept out of every span's self time and
reported as tracing overhead. A wrapped name that no longer exists is
skipped and reads as 0 calls. Single-threaded use only: the workloads run
with --threads 1.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, attribute, span name, aggregated leaf)
WRAPPED = (
    ("obbkit.cli", "main", "cli.main", False),
    ("obbkit.cli", "evaluate", "evaluation.evaluate", False),
    ("obbkit.cli", "rotated_nms", "inference.rotated_nms", False),
    ("obbkit.cli", "assign_targets", "targets.assign_targets", False),
    ("obbkit.cli", "fit_demo", "losses.fit_demo", False),
    ("obbkit.cli", "total_loss", "losses.total_loss", False),
    ("obbkit.cli", "polygon_iou", "geometry.polygon_iou", True),
    ("obbkit.cli", "canonicalize", "geometry.canonicalize", True),
    ("obbkit.dota", "parse_dota_annotations", "dota.parse_dota_annotations", False),
    ("obbkit.dota", "parse_dota_detections", "dota.parse_dota_detections", False),
    ("obbkit.dota", "write_dota_detections", "dota.write_dota_detections", False),
    ("obbkit.dota", "canonicalize", "geometry.canonicalize", True),
    ("obbkit.inference", "run_inference", "inference.run_inference", False),
    ("obbkit.inference", "rotated_nms", "inference.rotated_nms", False),
    ("obbkit.inference", "polygon_iou", "geometry.polygon_iou", True),
    ("obbkit.inference", "quad_from_offsets", "geometry.quad_from_offsets", True),
    ("obbkit.ie_attention", "ie_fuse", "ie_attention.ie_fuse", False),
    ("obbkit.evaluation", "match_detections", "evaluation.match_detections", False),
    ("obbkit.evaluation", "pr_curve", "evaluation.pr_curve", False),
    ("obbkit.evaluation", "average_precision", "evaluation.average_precision", False),
    ("obbkit.evaluation", "polygon_iou", "geometry.polygon_iou", True),
    ("obbkit.losses", "total_loss", "losses.total_loss", False),
    ("obbkit.losses", "quad_from_offsets", "geometry.quad_from_offsets", True),
)


class Tracer:
    def __init__(self, hooks=None, clock=time.perf_counter):
        self.clock = clock
        self.hooks = dict(hooks or {})
        self.spans: list[list] = []  # [name, start, end, parent index, child seconds]
        self.leaves: dict = defaultdict(lambda: [0, 0.0])  # (name, parent name) -> [calls, self s]
        self.counters: dict = defaultdict(float)
        self.hook_s = 0.0
        self._stack: list[list] = []  # [name, span index or None, child seconds]

    def call(self, name, fn, args=(), kwargs=None, leaf=False):
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        parent_name = parent[0] if parent else None
        index = None
        if not leaf:
            index = len(self.spans)
            parent_index = None
            for frame in reversed(self._stack):
                if frame[1] is not None:
                    parent_index = frame[1]
                    break
            self.spans.append([name, 0.0, 0.0, parent_index, 0.0])
        frame = [name, index, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            if parent is not None:
                parent[2] += end - start
            if leaf:
                rec = self.leaves[(name, parent_name)]
                rec[0] += 1
                rec[1] += end - start - frame[2]
            else:
                self.spans[index][1:3] = [start, end]
                self.spans[index][4] = frame[2]
        hook = self.hooks.get(name)
        if hook is not None:
            h0 = self.clock()
            try:
                hook(self, args, kwargs, result, parent_name)
            except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                pass  # a changed return type must not crash the run; the counter reads 0
            spent = self.clock() - h0
            self.hook_s += spent
            if parent is not None:
                parent[2] += spent
        return result

    def wrap(self, name, fn, leaf=False):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, leaf)

        return wrapper

    @contextlib.contextmanager
    def installed(self, specs=WRAPPED):
        saved = []
        try:
            for module_name, attr, name, leaf in specs:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, leaf))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # ------------------------------------------------------------ summaries

    def self_seconds(self) -> dict:
        out: dict = defaultdict(float)
        for name, start, end, _parent, child in self.spans:
            out[name] += end - start - child
        for (name, _parent), (_calls, self_s) in self.leaves.items():
            out[name] += self_s
        return out

    def calls(self, name, parent=None) -> int:
        total = sum(c for (n, p), (c, _s) in self.leaves.items()
                    if n == name and (parent is None or p == parent))
        if parent is None:
            total += sum(1 for span in self.spans if span[0] == name)
        else:
            names = [s[0] for s in self.spans]
            total += sum(1 for s in self.spans
                         if s[0] == name and s[3] is not None and names[s[3]] == parent)
        return total


# ------------------------------------------------------------ counter hooks


def _polygon_iou(tr, args, kwargs, result, parent):
    if result > 0.0:
        tr.counters["geometry.polygon_iou.hits"] += 1


def _rotated_nms(tr, args, kwargs, result, parent):
    n_in = len(args[0])
    tr.counters["nms.in"] += n_in
    tr.counters["nms.kept"] += len(result)
    if parent == "inference.run_inference":
        tr.counters["inference.candidates"] += n_in


def _run_inference(tr, args, kwargs, result, parent):
    tr.counters["inference.pairs_scanned"] += sum(b.class_scores.size for b in args[0])


def _ie_fuse(tr, args, kwargs, result, parent):
    feat = args[0]
    c, n = feat.channels, feat.width * feat.height
    # computed from shapes, not measured: merge (C*N), three 1x1 projections and
    # the channel affinities and mixing (2*C*C*N each), gamma scale, shortcut
    # and orientation add-on (C*N each)
    tr.counters["ie_fuse.flop"] += 10 * c * c * n + 4 * c * n
    # float64 (C, N) arrays read plus written by that sequence: merge 3,
    # projections 6, affinities 2, mixing 2, scaled shortcut 5, add-on 3
    tr.counters["ie_fuse.bytes"] += 8 * c * n * 21


def _match_detections(tr, args, kwargs, result, parent):
    tr.counters["match.dets"] += sum(len(v) for v in args[0].values())
    for m in result.values():
        flags = list(m.flags)
        tr.counters["evaluation.tp"] += flags.count(1)
        tr.counters["evaluation.fp"] += flags.count(0)
        tr.counters["evaluation.ignored"] += flags.count(-1)


def _assign_targets(tr, args, kwargs, result, parent):
    tr.counters["targets.locations"] += sum(s.width * s.height for s in args[0])
    tr.counters["targets.positives"] += sum(t.class_id > 0 for level in result for t in level)


def _fit_demo(tr, args, kwargs, result, parent):
    tr.counters["fit_demo.steps"] += kwargs.get("steps", 2000)


def _parse_annotations(tr, args, kwargs, result, parent):
    tr.counters["dota.lines_read"] += sum(len(v) for v in result.images.values())


def _parse_detections(tr, args, kwargs, result, parent):
    tr.counters["dota.lines_read"] += sum(len(v) for v in result[0].values())


def _write_detections(tr, args, kwargs, result, parent):
    tr.counters["dota.lines_written"] += sum(len(v) for v in args[0].values())


HOOKS = {
    "geometry.polygon_iou": _polygon_iou,
    "inference.rotated_nms": _rotated_nms,
    "inference.run_inference": _run_inference,
    "ie_attention.ie_fuse": _ie_fuse,
    "evaluation.match_detections": _match_detections,
    "targets.assign_targets": _assign_targets,
    "losses.fit_demo": _fit_demo,
    "dota.parse_dota_annotations": _parse_annotations,
    "dota.parse_dota_detections": _parse_detections,
    "dota.write_dota_detections": _write_detections,
}


# ------------------------------------------------------------ per-layer metrics

# (name, unit, better); counts and times are per image of the traced run
PER_LAYER = (
    ("geometry.polygon_iou.calls", "count/image", "lower"),
    ("geometry.polygon_iou.self_s", "s/image", "lower"),
    ("geometry.polygon_iou.hit_ratio", "ratio", "higher"),
    ("geometry.canonicalize.calls", "count/image", "lower"),
    ("geometry.canonicalize.self_s", "s/image", "lower"),
    ("geometry.quad_from_offsets.calls", "count/image", "lower"),
    ("geometry.quad_from_offsets.self_s", "s/image", "lower"),
    ("dota.parse_dota_annotations.self_s", "s/image", "lower"),
    ("dota.parse_dota_detections.self_s", "s/image", "lower"),
    ("dota.write_dota_detections.self_s", "s/image", "lower"),
    ("dota.lines_read", "count/image", "lower"),
    ("dota.lines_written", "count/image", "lower"),
    ("inference.rotated_nms.calls", "count/image", "lower"),
    ("inference.rotated_nms.self_s", "s/image", "lower"),
    ("inference.rotated_nms.kept_ratio", "ratio", "higher"),
    ("inference.rotated_nms.iou_per_det", "count/det", "lower"),
    ("inference.run_inference.self_s", "s/image", "lower"),
    ("inference.pairs_scanned", "count/image", "lower"),
    ("inference.candidates", "count/image", "lower"),
    ("ie_attention.ie_fuse.calls", "count/image", "lower"),
    ("ie_attention.ie_fuse.self_s", "s/image", "lower"),
    ("ie_attention.ie_fuse.gflop", "GFLOP/image", "lower"),
    ("ie_attention.ie_fuse.mb_moved", "MB/image", "lower"),
    ("evaluation.match_detections.self_s", "s/image", "lower"),
    ("evaluation.match.iou_per_det", "count/det", "lower"),
    ("evaluation.ap.self_s", "s/image", "lower"),
    ("evaluation.tp", "count/image", "higher"),
    ("evaluation.fp", "count/image", "lower"),
    ("evaluation.ignored", "count/image", "lower"),
    ("targets.assign_targets.calls", "count/image", "lower"),
    ("targets.assign_targets.self_s", "s/image", "lower"),
    ("targets.locations", "count/image", "lower"),
    ("targets.positive_ratio", "ratio", "higher"),
    ("losses.total_loss.calls", "count/image", "lower"),
    ("losses.total_loss.self_s", "s/image", "lower"),
    ("losses.fit_demo.self_s", "s/image", "lower"),
    ("losses.fit_demo.evals_per_step", "count/step", "lower"),
    ("cli.main.self_s", "s/image", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.wall_s", "s/image", "lower"),
    ("failed_ratio", "ratio", "lower"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, images: int) -> dict:
    """Per-layer figures of a traced run that completed `images` images.

    trace.overhead_ratio, trace.wall_s and failed_ratio come from the run
    itself, not from the spans, and are filled in by the caller.
    """
    self_s = tracer.self_seconds()
    cnt = tracer.counters

    def per(v):
        return v / images

    iou_calls = tracer.calls("geometry.polygon_iou")
    return {
        "geometry.polygon_iou.calls": per(iou_calls),
        "geometry.polygon_iou.self_s": per(self_s["geometry.polygon_iou"]),
        "geometry.polygon_iou.hit_ratio": _ratio(cnt["geometry.polygon_iou.hits"], iou_calls),
        "geometry.canonicalize.calls": per(tracer.calls("geometry.canonicalize")),
        "geometry.canonicalize.self_s": per(self_s["geometry.canonicalize"]),
        "geometry.quad_from_offsets.calls": per(tracer.calls("geometry.quad_from_offsets")),
        "geometry.quad_from_offsets.self_s": per(self_s["geometry.quad_from_offsets"]),
        "dota.parse_dota_annotations.self_s": per(self_s["dota.parse_dota_annotations"]),
        "dota.parse_dota_detections.self_s": per(self_s["dota.parse_dota_detections"]),
        "dota.write_dota_detections.self_s": per(self_s["dota.write_dota_detections"]),
        "dota.lines_read": per(cnt["dota.lines_read"]),
        "dota.lines_written": per(cnt["dota.lines_written"]),
        "inference.rotated_nms.calls": per(tracer.calls("inference.rotated_nms")),
        "inference.rotated_nms.self_s": per(self_s["inference.rotated_nms"]),
        "inference.rotated_nms.kept_ratio": _ratio(cnt["nms.kept"], cnt["nms.in"]),
        "inference.rotated_nms.iou_per_det": _ratio(
            tracer.calls("geometry.polygon_iou", "inference.rotated_nms"), cnt["nms.in"]),
        "inference.run_inference.self_s": per(self_s["inference.run_inference"]),
        "inference.pairs_scanned": per(cnt["inference.pairs_scanned"]),
        "inference.candidates": per(cnt["inference.candidates"]),
        "ie_attention.ie_fuse.calls": per(tracer.calls("ie_attention.ie_fuse")),
        "ie_attention.ie_fuse.self_s": per(self_s["ie_attention.ie_fuse"]),
        "ie_attention.ie_fuse.gflop": per(cnt["ie_fuse.flop"]) / 1e9,
        "ie_attention.ie_fuse.mb_moved": per(cnt["ie_fuse.bytes"]) / 1e6,
        "evaluation.match_detections.self_s": per(self_s["evaluation.match_detections"]),
        "evaluation.match.iou_per_det": _ratio(
            tracer.calls("geometry.polygon_iou", "evaluation.match_detections"), cnt["match.dets"]),
        "evaluation.ap.self_s": per(self_s["evaluation.pr_curve"] + self_s["evaluation.average_precision"]),
        "evaluation.tp": per(cnt["evaluation.tp"]),
        "evaluation.fp": per(cnt["evaluation.fp"]),
        "evaluation.ignored": per(cnt["evaluation.ignored"]),
        "targets.assign_targets.calls": per(tracer.calls("targets.assign_targets")),
        "targets.assign_targets.self_s": per(self_s["targets.assign_targets"]),
        "targets.locations": per(cnt["targets.locations"]),
        "targets.positive_ratio": _ratio(cnt["targets.positives"], cnt["targets.locations"]),
        "losses.total_loss.calls": per(tracer.calls("losses.total_loss")),
        "losses.total_loss.self_s": per(self_s["losses.total_loss"]),
        "losses.fit_demo.self_s": per(self_s["losses.fit_demo"]),
        "losses.fit_demo.evals_per_step": _ratio(
            tracer.calls("losses.total_loss", "losses.fit_demo"), cnt["fit_demo.steps"]),
        "cli.main.self_s": per(self_s["cli.main"]),
    }
