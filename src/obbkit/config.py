"""Run configuration: defaults, flat key=value config files, flag overrides.

Precedence is overrides (the CLI's flags, then its --set pairs) > config
file > built-in defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ParseError
from .evaluation import MODE_11POINT, MODE_ALLPOINT
from .losses import LossWeights
from .targets import DEFAULT_CENTER_RADIUS_MULT, LevelRanges

DEFAULT_STRIDES = (8, 16, 32, 64, 128)


@dataclass
class RunConfig:
    weights: LossWeights = field(default_factory=LossWeights)
    strides: tuple[int, ...] = DEFAULT_STRIDES
    level_ranges: LevelRanges = field(default_factory=LevelRanges.default_fpn)
    center_radius_mult: float = DEFAULT_CENTER_RADIUS_MULT
    metric_mode: str = MODE_11POINT
    eval_iou_threshold: float = 0.5

    def __post_init__(self):
        if len(self.strides) != len(self.level_ranges):
            raise ValueError(
                f"{len(self.strides)} strides but {len(self.level_ranges)} level ranges"
            )
        if self.metric_mode not in (MODE_11POINT, MODE_ALLPOINT):
            raise ValueError(f"unknown metric mode {self.metric_mode!r}")
        if min(self.strides, default=1) < 1:
            raise ValueError(f"strides must be >= 1, got {min(self.strides)}")
        if not 0.0 <= self.center_radius_mult < math.inf:
            raise ValueError(
                f"center_radius_mult must be finite and >= 0, got {self.center_radius_mult}"
            )


def parse_strides(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.replace(",", " ").split())


def parse_level_ranges(raw: str) -> LevelRanges:
    """Parse ranges like "0:64,64:128,128:inf"."""
    pairs = []
    for part in raw.replace(",", " ").split():
        lo, _, hi = part.partition(":")
        if not _:
            raise ValueError(f"expected lo:hi, got {part!r}")
        pairs.append((float(lo), math.inf if hi.strip() in ("inf", "") else float(hi)))
    return LevelRanges(pairs)


def parse_metric_mode(raw: str) -> str:
    low = raw.strip().lower()
    if low in ("07", "11", "11point", "11-point"):
        return MODE_11POINT
    if low in ("all", "allpoint", "all-point"):
        return MODE_ALLPOINT
    raise ValueError(f"unknown metric mode {raw!r}")


def read_config_file(path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    text = Path(path).read_text()
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ParseError(path, line_no, f"expected key=value, got {stripped!r}")
        out[key.strip()] = value.strip()
    return out


# Config keys: every LossWeights field (a float), and each RunConfig
# field below with the parser of its value.
_WEIGHT_KEYS = frozenset(f.name for f in fields(LossWeights))
_PARSERS = {
    "strides": parse_strides,
    "level_ranges": parse_level_ranges,
    "center_radius_mult": float,
    "metric_mode": parse_metric_mode,
    "eval_iou_threshold": float,
}


def build_config(file_values: dict[str, str] | None = None, **overrides) -> RunConfig:
    """Merge defaults, config-file values and keyword overrides.

    Overrides use the same keys as the config file; None values are
    treated as absent. Unknown keys raise ValueError.
    """
    merged: dict[str, str] = dict(file_values or {})
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value if isinstance(value, str) else str(value)

    weights, settings = {}, {}
    for key, raw in merged.items():
        if key in _WEIGHT_KEYS:
            weights[key] = float(raw)
        elif key in _PARSERS:
            settings[key] = _PARSERS[key](raw)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return RunConfig(weights=LossWeights(**weights), **settings)
