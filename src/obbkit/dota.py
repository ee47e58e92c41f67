"""DOTA-format text file ingestion and emission.

Annotations: one file per image ({image_id}.txt), one object per line:

    x1 y1 x2 y2 x3 y3 x4 y4 category difficult

where difficult is a 0/1 flag (optional, default 0). The header lines
some releases carry ("imagesource:...", "gsd:...") are skipped.

Detection results: one file per class ({class}.txt, an optional
"Task1_" prefix is stripped), one detection per line:

    image_id score x1 y1 x2 y2 x3 y3 x4 y4
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ObbkitError, ParseError, UnknownCategory
from .evaluation import ClassTable, GtIndex, check_detection_classes
from .geometry import canonicalize, canonicalize_many
from .inference import DetectionSet

_HEADER_PREFIXES = ("imagesource", "gsd")


@dataclass(frozen=True)
class AnnotationRecord:
    """One parsed annotation line."""

    image_id: str
    coords: tuple[float, ...]
    category: str
    difficult: bool


def parse_floats(tokens: Sequence[str], path, line_no: int) -> list[float]:
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise ParseError(path, line_no, f"expected a number, got {tok!r}") from None
    return values


def iter_annotation_records(path) -> list[AnnotationRecord]:
    """Parse one per-image annotation file into records."""
    path = Path(path)
    image_id = path.stem
    records: list[AnnotationRecord] = []
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.lower().startswith(_HEADER_PREFIXES):
            continue
        tokens = stripped.split()
        if len(tokens) not in (9, 10):
            raise ParseError(
                path, line_no, f"expected 8 coordinates, category and flag, got {len(tokens)} fields"
            )
        coords = parse_floats(tokens[:8], path, line_no)
        category = tokens[8]
        difficult = False
        if len(tokens) == 10:
            if tokens[9] not in ("0", "1"):
                raise ParseError(path, line_no, f"difficult flag must be 0 or 1, got {tokens[9]!r}")
            difficult = tokens[9] == "1"
        records.append(AnnotationRecord(image_id, tuple(coords), category, difficult))
    return records


def _canonical_quads(coords: list) -> np.ndarray:
    """Canonical (N, 4, 2) quads of flat 8-coordinate rows.

    When :func:`canonicalize_many` rejects a row, the scalar code re-runs
    on the first such row, so it raises that row's own error and message.
    """
    raw = np.array(coords, dtype=float).reshape(-1, 4, 2)
    quads, bad = canonicalize_many(raw)
    if bad.any():
        canonicalize(raw[np.argmax(bad)])
        raise AssertionError("canonicalize_many rejected a quad that canonicalize accepts")
    return quads


def parse_dota_annotations(
    directory,
    classes: ClassTable | None = None,
    *,
    unknown_category: str = "error",
) -> GtIndex:
    """Read a directory of per-image annotation files into a GtIndex.

    Without an explicit class table, ids are assigned densely over the
    sorted category names found in the data. unknown_category chooses
    between raising and silently skipping records whose category is
    missing from an explicit table. Every file is parsed before any quad
    is checked.
    """
    if unknown_category not in ("error", "skip"):
        raise ValueError("unknown_category must be 'error' or 'skip'")
    directory = Path(directory)
    files = sorted(directory.glob("*.txt"))
    per_file = {f: iter_annotation_records(f) for f in files}

    if classes is None:
        names = sorted({r.category for records in per_file.values() for r in records})
        classes = ClassTable(tuple(names))

    records: list[AnnotationRecord] = []
    class_ids: list[int] = []
    try:
        for file_records in per_file.values():
            for r in file_records:
                try:
                    class_ids.append(classes.id_of(r.category))
                except UnknownCategory:
                    if unknown_category == "error":
                        raise
                    continue
                records.append(r)
    except UnknownCategory:
        # a bad quad in an earlier record is the first error
        _canonical_quads([r.coords for r in records])
        raise
    image_ids = tuple(sorted(f.stem for f in files))
    index = {image_id: i for i, image_id in enumerate(image_ids)}
    return GtIndex(
        image_ids,
        np.array([index[r.image_id] for r in records], dtype=int),
        _canonical_quads([r.coords for r in records]),
        np.array(class_ids, dtype=int),
        np.array([r.difficult for r in records], dtype=bool),
        classes,
    )


def _class_name_from_filename(path: Path) -> str:
    stem = path.stem
    return stem[len("Task1_"):] if stem.startswith("Task1_") else stem


def parse_dota_detections(
    directory,
    classes: ClassTable | None = None,
    *,
    unknown_category: str = "error",
) -> tuple[DetectionSet, ClassTable]:
    """Read a directory of per-class detection files.

    Returns the detections of every image as one DetectionSet, rows in
    file order, together with the class table (inferred from the
    filenames when not supplied). Duplicate lines are preserved;
    suppression is a separate step. unknown_category chooses between
    raising and skipping, as in :func:`parse_dota_annotations`; the first
    error in file order is the one raised.
    """
    if unknown_category not in ("error", "skip"):
        raise ValueError("unknown_category must be 'error' or 'skip'")
    directory = Path(directory)
    files = sorted(directory.glob("*.txt"))
    if classes is None:
        classes = ClassTable(tuple(sorted({_class_name_from_filename(f) for f in files})))

    names: list[str] = []
    class_ids: list[int] = []
    rows: list[list[float]] = []
    try:
        for f in files:
            name = _class_name_from_filename(f)
            try:
                class_id = classes.id_of(name)
            except UnknownCategory:
                if unknown_category == "skip":
                    continue
                raise
            for line_no, line in enumerate(f.read_text().splitlines(), 1):
                stripped = line.strip()
                if not stripped:
                    continue
                tokens = stripped.split()
                if len(tokens) != 10:
                    raise ParseError(
                        f, line_no, f"expected image id, score and 8 coordinates, got {len(tokens)} fields"
                    )
                values = parse_floats(tokens[1:], f, line_no)
                if not 0.0 <= values[0] <= 1.0:
                    raise ParseError(f, line_no, f"score {values[0]} outside [0, 1]")
                names.append(tokens[0])
                class_ids.append(class_id)
                rows.append(values)
    except (ObbkitError, OSError, ValueError):
        # a bad quad on an earlier line is the first error in file order
        _canonical_quads([r[1:] for r in rows])
        raise
    table = np.array(rows, dtype=float).reshape(-1, 9)
    image_ids = tuple(sorted(set(names)))
    index = {image_id: i for i, image_id in enumerate(image_ids)}
    dets = DetectionSet(
        image_ids,
        np.array([index[n] for n in names], dtype=int),
        _canonical_quads(table[:, 1:]),
        np.array(class_ids, dtype=int),
        table[:, 0],
    )
    return dets, classes


def format_number(value: float) -> str:
    """Render a coordinate without trailing zeros (integers stay integers)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_dota_annotations(gt: GtIndex, directory) -> None:
    """Serialize a GtIndex back to per-image annotation files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    coords = gt.quads.reshape(-1, 8).tolist()
    names = [gt.classes.name_of(c) for c in gt.class_id.tolist()]
    difficult = gt.difficult.tolist()
    for image_id, rows in zip(gt.image_ids, gt.image_rows()):
        lines = [
            f"{' '.join(map(format_number, coords[k]))} {names[k]} {int(difficult[k])}"
            for k in rows.tolist()
        ]
        (directory / f"{image_id}.txt").write_text("\n".join(lines) + ("\n" if lines else ""))


def write_dota_detections(
    dets: DetectionSet,
    classes: ClassTable,
    directory,
) -> None:
    """Serialize detections to per-class files (every class gets a file).

    Within a file, lines go by image id, each image's in input order.
    Raises UnknownClass, before any file is written, for a class id
    outside the table.
    """
    check_detection_classes(dets, classes)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_class: dict[int, list[str]] = {c: [] for c in range(1, len(classes) + 1)}
    order = np.argsort(dets.image, kind="stable")
    for image, class_id, score, coords in zip(
        dets.image[order].tolist(),
        dets.class_id[order].tolist(),
        dets.score[order].tolist(),
        dets.quads[order].reshape(-1, 8).tolist(),
    ):
        text = " ".join(map(format_number, coords))
        by_class[class_id].append(f"{dets.image_ids[image]} {format_number(score)} {text}")
    for class_id, lines in by_class.items():
        name = classes.name_of(class_id)
        (directory / f"{name}.txt").write_text("\n".join(lines) + ("\n" if lines else ""))
