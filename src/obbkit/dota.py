"""DOTA-format text file ingestion and emission.

Annotations: one file per image ({image_id}.txt), one object per line:

    x1 y1 x2 y2 x3 y3 x4 y4 category difficult

where difficult is a 0/1 flag (optional, default 0). The header lines
some releases carry ("imagesource:...", "gsd:...") are skipped.

Detection results: one file per class ({class}.txt, an optional
"Task1_" prefix is stripped), one detection per line:

    image_id score x1 y1 x2 y2 x3 y3 x4 y4

A well-formed detection or annotation file (ASCII, 10 fields on every
line, a score in [0, 1] or a 0/1 difficult flag) is read by one
np.loadtxt call, with no split per line. Every other file, and every
table of the CLI's own, is read line by line through :func:`_parse_lines`:
one line function per format checks a line and converts its numbers with
float() (:func:`_numbers`), and the first line it refuses is the error.
Every writer formats numbers through :func:`_format_rows`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ObbkitError, ParseError, UnknownCategory
from .evaluation import ClassTable, GtIndex, check_detection_classes
from .geometry import canonicalize_many, quad_error
from .inference import DetectionSet, _in_unit_interval

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


def _loadtxt(text: str, usecols=None, skiprows: int = 0) -> np.ndarray | None:
    """Columns usecols (all when None) of every non-blank line of a text
    table as an (N, k) float array, or None when the text is not ASCII, has
    no non-blank line, or np.loadtxt refuses it (a field that is not a
    number, a line with too few fields, ragged lines when usecols is None).
    The first skiprows lines are left out.

    On ASCII text loadtxt splits lines and fields where str.splitlines and
    str.split do, and converts a field with the C function float() uses,
    so every number it returns has float()'s bits; float() alone reads
    underscores (1_0), which loadtxt refuses.
    """
    if not text.isascii() or not text.strip():
        return None
    try:
        return np.loadtxt(
            text.splitlines(), usecols=usecols, comments=None, ndmin=2, dtype=float,
            skiprows=skiprows,
        )
    except ValueError:
        return None


def _numbers(tokens) -> list[float]:
    """float() of each token; the first it refuses raises "expected a number, got 'x'"."""
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"expected a number, got {tok!r}") from None
    return values


def _parse_lines(
    path, parse_line, *, comments: bool = False, headers: bool = False
) -> tuple[list, ParseError | None]:
    """(rows, error): parse_line(tokens) of each kept line of :func:`_read_lines`,
    in file order, up to the first line it refuses by raising ValueError(reason),
    and the ParseError of that line (None when every line reads)."""
    path = Path(path)
    rows = []
    for line_no, tokens in _read_lines(path, comments=comments, headers=headers):
        try:
            rows.append(parse_line(tokens))
        except ValueError as exc:
            return rows, ParseError(path, line_no, str(exc))
    return rows, None


def _canonical_quads(
    files: list, coords: list, stop: int | None = None, *, headers: bool = False
) -> np.ndarray:
    """Canonical (N, 4, 2) quads of the 8-coordinate rows coords[i] read from files[i].

    Raises the error of the first row before stop that
    :func:`canonicalize_many` rejects, with "path:line: " in front as
    ParseError has; the line is found by reading that file again with
    :func:`_read_lines` (headers as the file was read).
    """
    raw = np.concatenate([np.empty((0, 8)), *coords]).reshape(-1, 4, 2)
    quads, fault = canonicalize_many(raw)
    bad = np.flatnonzero(fault[:stop])
    if bad.size:
        k = int(bad[0])
        error = quad_error(raw[k], fault[k])
        ends = np.cumsum([len(c) for c in coords])
        i = int(np.searchsorted(ends, k, side="right"))
        line_no, _ = _read_lines(files[i], headers=headers)[k - ends[i] + len(coords[i])]
        raise type(error)(f"{files[i]}:{line_no}: {error}")
    return quads


def _annotation_table(path) -> tuple[np.ndarray, list[str], list[bool]]:
    """Coordinates (N, 8), categories and difficult flags of one annotation file's lines.

    A well-formed file is read by :func:`_well_formed_annotations`; any
    other line by line, which raises the first ParseError in file order.
    """
    table = _well_formed_annotations(Path(path).read_text())
    if table is not None:
        return table
    rows, error = _parse_lines(path, _annotation_row, headers=True)
    if error is not None:
        raise error
    return (np.array([c for c, _, _ in rows], dtype=float).reshape(-1, 8),
            [name for _, name, _ in rows], [flag for _, _, flag in rows])


def _annotation_row(tokens: list[str]) -> tuple[list[float], str, bool]:
    """Coordinates, category and difficult flag of one annotation line."""
    if len(tokens) not in (9, 10):
        raise ValueError(f"expected 8 coordinates, category and flag, got {len(tokens)} fields")
    coords = _numbers(tokens[:8])
    if tokens[9:] not in ([], ["0"], ["1"]):
        raise ValueError(f"difficult flag must be 0 or 1, got {tokens[9]!r}")
    return coords, tokens[8], tokens[9:] == ["1"]


def _well_formed_annotations(text: str) -> tuple[np.ndarray, list[str], list[bool]] | None:
    """The table of :func:`_annotation_table` from one loadtxt call and one
    split, or None unless the text is ASCII and, after its leading
    imagesource/gsd header lines, every line has 10 fields with a 0/1 flag
    last."""
    lines = text.splitlines()
    head = next((k for k, line in enumerate(lines)
                 if not line.lstrip().lower().startswith(_HEADER_PREFIXES)), len(lines))
    if head == len(lines) or len(lines[head].split()) != 10:
        return None
    # usecols reaches column 9, so loadtxt refuses a shorter line
    table = _loadtxt(text, [*range(8), 9], skiprows=head)
    fields = text.split()[sum(len(line.split()) for line in lines[:head]):]
    if table is None or len(fields) != 10 * len(table):
        return None
    flags = fields[9::10]
    if not {"0", "1"}.issuperset(flags):
        return None
    return table[:, :8], fields[8::10], [flag == "1" for flag in flags]


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
    counts = [len(names) for _, names, _ in tables]
    image = np.repeat(np.array([index[f.stem] for f in files], dtype=int), counts)
    difficult = np.array([d for _, _, flags in tables for d in flags], dtype=bool)
    ids = {name: class_id for class_id, name in enumerate(classes.names, 1)}
    class_id = np.array([ids.get(name, 0) for name in categories], dtype=int)
    # the first unknown category, after any bad quad on an earlier record
    first = int(np.argmin(class_id)) if not class_id.all() else None
    quads = _canonical_quads(files, [c for c, _, _ in tables], first, headers=True)
    if first is not None:
        classes.id_of(categories[first])
    return GtIndex(image_ids, image, quads, class_id, difficult, classes)


def _class_name_from_filename(path: Path) -> str:
    stem = path.stem
    return stem[len("Task1_"):] if stem.startswith("Task1_") else stem


def _detection_table(path) -> tuple[np.ndarray, list[str], ParseError | None]:
    """Score and 8 coordinates (N, 9) and image ids of one detection file's
    lines before its first error, and that ParseError (None when every line reads)."""
    text = Path(path).read_text()
    fields = text.split()
    table = _loadtxt(text, range(1, 10))
    # loadtxt needs 10 fields on each line, so 10 per line in all means exactly 10 on each
    if table is not None and len(fields) == 10 * len(table) and _in_unit_interval(table[:, 0]):
        return table, fields[::10], None
    rows, error = _parse_lines(path, _detection_row)
    table = np.array([values for _, values in rows], dtype=float).reshape(-1, 9)
    return table, [image_id for image_id, _ in rows], error


def _detection_row(tokens: list[str]) -> tuple[str, list[float]]:
    """Image id, and score and 8 coordinates, of one detection line."""
    if len(tokens) != 10:
        raise ValueError(f"expected image id, score and 8 coordinates, got {len(tokens)} fields")
    values = _numbers(tokens[1:])
    if not 0.0 <= values[0] <= 1.0:
        raise ValueError(f"score {values[0]} outside [0, 1]")
    return tokens[0], values


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

    tables: list[np.ndarray] = []
    read: list[Path] = []
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
            read.append(f)
            names += file_names
            class_ids += [class_id] * len(table)
            if error is not None:
                raise error
    except (ObbkitError, OSError, ValueError):
        # a bad quad on an earlier line is the first error in file order
        _canonical_quads(read, [t[:, 1:] for t in tables])
        raise
    image_ids = tuple(sorted(set(names)))
    index = {image_id: i for i, image_id in enumerate(image_ids)}
    dets = DetectionSet(
        image_ids,
        np.array([index[n] for n in names], dtype=int),
        _canonical_quads(read, [t[:, 1:] for t in tables]),
        np.array(class_ids, dtype=int),
        np.concatenate([np.empty(0), *(t[:, 0] for t in tables)]),
    )
    return dets, classes


def _format_rows(table: np.ndarray) -> list[str]:
    """Each row of a 2-D float table as its fields joined by spaces: a finite
    integral value v as str(int(v)) (no decimal point, -0.0 as 0), any
    other as its repr. Formats a column at a time."""
    columns = []
    for column in table.T:
        values = column.tolist()
        fields = list(map(repr, values))
        for k in np.flatnonzero(np.isfinite(column) & (column == np.trunc(column))).tolist():
            fields[k] = str(int(values[k]))
        columns.append(fields)
    return list(map(" ".join, zip(*columns)))


def _write_files(directory, names, file_of: list[int], lines: list[str]) -> None:
    """Write each line, newline-terminated and in order, to directory/{names[file_of]}.txt."""
    files: list[list[str]] = [[] for _ in names]
    for k, line in zip(file_of, lines):
        files[k].append(line)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, file_lines in zip(names, files):
        (directory / f"{name}.txt").write_text("".join(line + "\n" for line in file_lines))


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
