"""DOTA-format text file ingestion and emission.

Annotations: one file per image ({image_id}.txt), one object per line:

    x1 y1 x2 y2 x3 y3 x4 y4 category difficult

where difficult is a 0/1 flag (optional, default 0). The header lines
some releases carry ("imagesource:...", "gsd:...") are skipped.

Detection results: one file per class ({class}.txt, an optional
"Task1_" prefix is stripped), one detection per line:

    image_id score x1 y1 x2 y2 x3 y3 x4 y4

Every text table obbkit reads, these and the CLI's numeric files, goes
through :func:`_read_lines` and :func:`_float_columns`; every writer
formats numbers through :func:`_format_rows`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ObbkitError, ParseError, UnknownCategory
from .evaluation import ClassTable, GtIndex, check_detection_classes
from .geometry import canonicalize_many, quad_error
from .inference import DetectionSet

_HEADER_PREFIXES = ("imagesource", "gsd")


def _read_lines(path, *, comments: bool = False, headers: bool = False) -> list:
    """(line_no, tokens) of every kept line of a text table, numbered from 1.

    Blank lines are always skipped; so are lines whose first token starts
    with "#" when comments is set, and imagesource/gsd header lines when
    headers is set.
    """
    skip = ("#",) * comments + _HEADER_PREFIXES * headers
    text = Path(path).read_text()
    return [(n, tokens) for n, tokens in enumerate(map(str.split, text.splitlines()), 1)
            if tokens and not (skip and tokens[0].lower().startswith(skip))]


def _float_columns(lines: list, lo: int, hi: int, path) -> np.ndarray:
    """Fields lo:hi of every (line_no, tokens) line as an (N, hi - lo) float array.

    One float() map converts them all, so a number reads as Python's
    float reads it. When that map fails, raises the ParseError of the
    first token, in file order, that float rejects.
    """
    try:
        values = list(map(float, [tok for _, tokens in lines for tok in tokens[lo:hi]]))
    except ValueError:
        for line_no, tokens in lines:
            for tok in tokens[lo:hi]:
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(path, line_no, f"expected a number, got {tok!r}") from None
        raise
    return np.array(values, dtype=float).reshape(len(lines), hi - lo)


def _leading_floats(lines: list, lo: int, hi: int, path) -> tuple[np.ndarray, ParseError | None]:
    """:func:`_float_columns` of the lines before the first bad number, and its error (or None)."""
    try:
        return _float_columns(lines, lo, hi, path), None
    except ParseError as exc:
        before = [line_no for line_no, _ in lines].index(exc.line_no)
        return _float_columns(lines[:before], lo, hi, path), exc


def _canonical_quads(coords) -> np.ndarray:
    """Canonical (N, 4, 2) quads of flat 8-coordinate rows.

    Raises the error of the first row :func:`canonicalize_many` rejects.
    """
    raw = np.asarray(coords, dtype=float).reshape(-1, 4, 2)
    quads, fault = canonicalize_many(raw)
    bad = np.flatnonzero(fault)
    if bad.size:
        raise quad_error(raw[bad[0]], fault[bad[0]])
    return quads


def _annotation_table(path) -> tuple[np.ndarray, list[str], list[bool]]:
    """Coordinates (N, 8), categories and difficult flags of one annotation file's lines."""
    lines = _read_lines(path, headers=True)
    short = next((k for k, (_, t) in enumerate(lines) if len(t) not in (9, 10)), len(lines))
    flag = next((k for k, (_, t) in enumerate(lines[:short]) if t[9:] not in ([], ["0"], ["1"])),
                short)
    # a line's numbers are read before its flag is checked
    coords = _float_columns(lines[:min(flag + 1, short)], 0, 8, path)
    if flag < short:
        line_no, tokens = lines[flag]
        raise ParseError(path, line_no, f"difficult flag must be 0 or 1, got {tokens[9]!r}")
    if short < len(lines):
        line_no, tokens = lines[short]
        raise ParseError(
            path, line_no, f"expected 8 coordinates, category and flag, got {len(tokens)} fields"
        )
    return coords, [t[8] for _, t in lines], [t[9:] == ["1"] for _, t in lines]


def _txt_files(directory) -> list[Path]:
    """The sorted *.txt files of a directory; raises FileNotFoundError or
    NotADirectoryError when the path is missing or is not a directory."""
    directory = Path(directory)
    if not directory.is_dir():
        if directory.exists():
            raise NotADirectoryError(f"not a directory: {directory}")
        raise FileNotFoundError(f"no such directory: {directory}")
    return sorted(directory.glob("*.txt"))


def parse_dota_annotations(directory, classes: ClassTable | None = None) -> GtIndex:
    """Read a directory of per-image annotation files into a GtIndex.

    Without an explicit class table, ids are assigned densely over the
    sorted category names found in the data; with one, a category missing
    from it raises UnknownCategory. Every file is parsed before any quad
    is checked, and a bad quad on an earlier record is the first error.
    """
    files = _txt_files(directory)
    tables = [_annotation_table(f) for f in files]
    categories = [name for _, names, _ in tables for name in names]
    if classes is None:
        classes = ClassTable(tuple(sorted(set(categories))))

    image_ids = tuple(sorted(f.stem for f in files))
    index = {image_id: i for i, image_id in enumerate(image_ids)}
    coords = np.concatenate([np.empty((0, 8)), *(c for c, _, _ in tables)])
    counts = [len(names) for _, names, _ in tables]
    image = np.repeat(np.array([index[f.stem] for f in files], dtype=int), counts)
    difficult = np.array([d for _, _, flags in tables for d in flags], dtype=bool)
    ids = {name: class_id for class_id, name in enumerate(classes.names, 1)}
    class_id = np.array([ids.get(name, 0) for name in categories], dtype=int)
    if not class_id.all():
        first = int(np.argmin(class_id))
        _canonical_quads(coords[:first])
        classes.id_of(categories[first])
    return GtIndex(image_ids, image, _canonical_quads(coords), class_id, difficult, classes)


def _class_name_from_filename(path: Path) -> str:
    stem = path.stem
    return stem[len("Task1_"):] if stem.startswith("Task1_") else stem


def _detection_table(path) -> tuple[np.ndarray, list[str], ParseError | None]:
    """Score and 8 coordinates (N, 9) and image ids of one detection file's
    lines before its first error, and that ParseError (None when every line reads)."""
    lines = _read_lines(path)
    n = next((k for k, (_, tokens) in enumerate(lines) if len(tokens) != 10), len(lines))
    table, error = _leading_floats(lines[:n], 1, 10, path)
    if error is None and n < len(lines):
        line_no, tokens = lines[n]
        error = ParseError(
            path, line_no, f"expected image id, score and 8 coordinates, got {len(tokens)} fields"
        )
    outside = np.flatnonzero(~((table[:, 0] >= 0.0) & (table[:, 0] <= 1.0)))
    if outside.size:
        k = int(outside[0])
        error = ParseError(path, lines[k][0], f"score {float(table[k, 0])} outside [0, 1]")
        table = table[:k]
    return table, [tokens[0] for _, tokens in lines[: len(table)]], error


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
    raising and skipping a file whose class is missing from the table;
    the first error in file order is the one raised.
    """
    if unknown_category not in ("error", "skip"):
        raise ValueError("unknown_category must be 'error' or 'skip'")
    files = _txt_files(directory)
    if classes is None:
        classes = ClassTable(tuple(sorted({_class_name_from_filename(f) for f in files})))

    tables: list[np.ndarray] = [np.empty((0, 9))]
    names: list[str] = []
    class_ids: list[int] = []
    try:
        for f in files:
            try:
                class_id = classes.id_of(_class_name_from_filename(f))
            except UnknownCategory:
                if unknown_category == "skip":
                    continue
                raise
            table, file_names, error = _detection_table(f)
            tables.append(table)
            names += file_names
            class_ids += [class_id] * len(table)
            if error is not None:
                raise error
    except (ObbkitError, OSError, ValueError):
        # a bad quad on an earlier line is the first error in file order
        _canonical_quads(np.concatenate(tables)[:, 1:])
        raise
    table = np.concatenate(tables)
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


def _format_rows(table: np.ndarray) -> list[str]:
    """Each row of a 2-D number table as its :func:`format_number` fields joined by spaces."""
    return [" ".join(map(format_number, row)) for row in table.tolist()]


def _write_files(directory, names, file_of: list[int], lines: list[str]) -> None:
    """Write each line, newline-terminated and in order, to directory/{names[file_of]}.txt."""
    files: list[list[str]] = [[] for _ in names]
    for k, line in zip(file_of, lines):
        files[k].append(line)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, file_lines in zip(names, files):
        (directory / f"{name}.txt").write_text("".join(line + "\n" for line in file_lines))


def write_dota_annotations(gt: GtIndex, directory) -> None:
    """Serialize a GtIndex back to per-image annotation files."""
    lines = [
        f"{coords} {gt.classes.name_of(class_id)} {int(difficult)}"
        for coords, class_id, difficult in zip(
            _format_rows(gt.quads.reshape(-1, 8)), gt.class_id.tolist(), gt.difficult.tolist()
        )
    ]
    _write_files(directory, gt.image_ids, gt.image.tolist(), lines)


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
    order = np.argsort(dets.image, kind="stable")
    fields = _format_rows(np.column_stack([dets.score, dets.quads.reshape(-1, 8)])[order])
    lines = [f"{dets.image_ids[image]} {f}" for image, f in zip(dets.image[order].tolist(), fields)]
    _write_files(directory, classes.names, (dets.class_id[order] - 1).tolist(), lines)
