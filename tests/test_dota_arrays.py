"""DetectionSet, GtIndex and the array-native DOTA parsers."""

import contextlib
import io
import math
import re
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obbkit import cli, dota
from obbkit.dota import _format_rows, parse_dota_annotations, parse_dota_detections
from obbkit.errors import DegenerateQuad, ObbkitError, ParseError, UnknownCategory, UnknownClass
from obbkit.evaluation import ClassTable, GtIndex
from obbkit.inference import Detection, DetectionSet, nms_per_image
from obbkit.targets import GroundTruthObject

from helpers import (
    annotation_records_oracle,
    format_number_oracle,
    parse_dota_annotations_oracle,
    parse_dota_detections_oracle,
    random_rect,
    rotated_nms_oracle,
)

GOOD = "A 0.5 0 0 10 0 10 10 0 10"
DEGENERATE = "A 0.5 0 0 1 1 2 2 3 3"
MALFORMED = "A 0.5 0 0 1"


def _write(directory: Path, files: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _as_plain(dets_per_image):
    return {
        image_id: [(d.quad.as_flat(), d.class_id, d.score) for d in dets]
        for image_id, dets in dets_per_image.items()
    }


def _scene(seed, images=3, per_image=40):
    rng = np.random.default_rng(seed)
    return {
        f"img{i}": [
            Detection(random_rect(rng, 300, 5, 60), int(rng.integers(1, 4)), float(rng.random()))
            for _ in range(per_image)
        ]
        for i in range(images)
    }


class TestDetectionSet:
    def test_mapping_roundtrip(self):
        dets = _scene(1)
        dets["empty"] = []
        ds = DetectionSet.from_mapping(dets)
        assert len(ds) == 120
        assert ds.image_ids == ("empty", "img0", "img1", "img2")
        assert _as_plain(ds.per_image()) == _as_plain(dets)

    def test_empty(self):
        ds = DetectionSet.from_mapping({})
        assert len(ds) == 0 and ds.quads.shape == (0, 4, 2)
        assert ds.per_image() == {}
        assert len(nms_per_image(ds, 0.5)) == 0

    def test_misaligned_arrays(self):
        with pytest.raises(ObbkitError):
            DetectionSet(("A",), np.zeros(2, dtype=int), np.zeros((1, 4, 2)), np.ones(2), np.ones(2))

    @pytest.mark.parametrize("image_ids, image", [
        (("B", "A"), [0, 1]),
        (("A", "A"), [0, 1]),
        (("A",), [0, 1]),
        (("A", "B"), [-1, 1]),
    ])
    def test_image_index_invariants(self, image_ids, image):
        with pytest.raises(ValueError):
            DetectionSet(image_ids, np.array(image), np.zeros((2, 4, 2)), np.ones(2, dtype=int),
                         np.ones(2))

    def test_nms_per_image_matches_scalar_oracle(self):
        dets = _scene(3, per_image=60)
        dets["img0-copy"] = list(dets["img0"])  # suppression across images would show here
        kept = nms_per_image(DetectionSet.from_mapping(dets), 0.3).per_image()
        expected = {image_id: rotated_nms_oracle(d, 0.3) for image_id, d in dets.items()}
        assert _as_plain(kept) == _as_plain(expected)


def _gt_plain(images):
    return {
        image_id: [(o.quad.as_flat(), o.class_id, o.difficult) for o in objs]
        for image_id, objs in images.items()
    }


class TestGtIndex:
    def test_mapping_roundtrip(self):
        rng = np.random.default_rng(6)
        images = {
            "B": [GroundTruthObject(random_rect(rng, 300, 5, 60), c, c == 2) for c in (2, 1, 2)],
            "A": [],
            "C": [GroundTruthObject(random_rect(rng, 300, 5, 60), 1)],
        }
        gt = GtIndex.from_mapping(images, ClassTable(("x", "y")))
        assert gt.image_ids == ("A", "B", "C") and len(gt.image) == 4
        assert _gt_plain(gt.images) == _gt_plain(images)
        assert [gt.num_ground_truth(c) for c in (1, 2)] == [2, 0]

    def test_rows_in_file_order(self, tmp_path):
        d = _write(tmp_path / "gt", {
            "B.txt": "0 0 2 0 2 2 0 2 ship 0\n0 0 3 0 3 3 0 3 plane 1\n",
            "A-1.txt": "0 0 4 0 4 4 0 4 plane 0\n",
            "A.txt": "",
        })
        gt = parse_dota_annotations(d)
        assert gt.image_ids == ("A", "A-1", "B")
        assert gt.image.tolist() == [1, 2, 2]
        assert _gt_plain(gt.images) == _gt_plain(parse_dota_annotations_oracle(d).images)

    def test_class_id_outside_table(self):
        with pytest.raises(UnknownClass, match="image B: class id 3"):
            GtIndex(("A", "B"), np.array([0, 1]), np.zeros((2, 4, 2)), np.array([1, 3]),
                    np.zeros(2, dtype=bool), ClassTable(("x", "y")))

    def test_misaligned_arrays(self):
        with pytest.raises(ObbkitError):
            GtIndex(("A",), np.zeros(2, dtype=int), np.zeros((1, 4, 2)), np.ones(2, dtype=int),
                    np.zeros(2, dtype=bool), ClassTable(("x",)))


class TestErrorOrder:
    """The first error in file order is the one raised, as in a line-by-line parse."""

    @pytest.mark.parametrize("lines, error", [
        ([DEGENERATE, MALFORMED], DegenerateQuad),
        ([MALFORMED, DEGENERATE], ParseError),
        ([GOOD, "A 0.5 0 0 1 0 nan 1 0 1", DEGENERATE], ValueError),
        ([GOOD, DEGENERATE, "A 1.5 0 0 1 0 1 1 0 1"], DegenerateQuad),
    ])
    def test_within_a_detection_file(self, tmp_path, lines, error):
        d = _write(tmp_path / "dets", {"plane.txt": "\n".join(lines) + "\n"})
        with pytest.raises(error) as got:
            parse_dota_detections(d)
        with pytest.raises(error) as want:
            parse_dota_detections_oracle(d)
        assert str(got.value) == str(want.value)

    def test_across_detection_files(self, tmp_path):
        d = _write(tmp_path / "dets", {"a.txt": DEGENERATE + "\n", "b.txt": MALFORMED + "\n"})
        with pytest.raises(DegenerateQuad):
            parse_dota_detections(d)
        d = _write(tmp_path / "dets2", {"a.txt": MALFORMED + "\n", "b.txt": DEGENERATE + "\n"})
        with pytest.raises(ParseError):
            parse_dota_detections(d)

    def test_degenerate_before_unknown_detection_class(self, tmp_path):
        d = _write(tmp_path / "dets", {"a.txt": DEGENERATE + "\n", "z.txt": GOOD + "\n"})
        with pytest.raises(DegenerateQuad):
            parse_dota_detections(d, ClassTable(("a",)))

    @pytest.mark.parametrize("unreadable", ["not utf-8", "a directory"])
    def test_bad_quad_before_an_unreadable_detection_file(self, tmp_path, unreadable):
        d = _write(tmp_path / "dets", {"a.txt": DEGENERATE + "\n"})
        if unreadable == "not utf-8":
            (d / "b.txt").write_bytes(b"\xff\xfe A 0.5\n")
        else:
            (d / "b.txt").mkdir()
        with pytest.raises(DegenerateQuad, match=rf"^{re.escape(str(d / 'a.txt'))}:1: "):
            parse_dota_detections(d)

    @pytest.mark.parametrize("unreadable, error", [
        ("not utf-8", UnicodeDecodeError), ("a directory", IsADirectoryError),
    ])
    def test_unreadable_annotation_file_before_a_bad_quad(self, tmp_path, unreadable, error):
        # an annotation directory is read in full before any quad is checked
        d = _write(tmp_path / "gt", {"A.txt": "0 0 1 1 2 2 3 3 plane 0\n"})
        if unreadable == "not utf-8":
            (d / "B.txt").write_bytes(b"\xff\xfe 0 0 1 0 1 1 0 1 plane 0\n")
        else:
            (d / "B.txt").mkdir()
        with pytest.raises(error):
            parse_dota_annotations(d)

    def test_annotations(self, tmp_path):
        bad = "0 0 1 1 2 2 3 3 plane 0\n"
        d = _write(tmp_path / "gt", {"A.txt": bad, "B.txt": "0 0 1 0 1 1 0 1 tank 0\n"})
        with pytest.raises(DegenerateQuad):
            parse_dota_annotations(d, ClassTable(("plane",)))
        d = _write(tmp_path / "gt2", {"A.txt": "0 0 1 0 1 1 0 1 tank 0\n", "B.txt": bad})
        with pytest.raises(UnknownCategory):
            parse_dota_annotations(d, ClassTable(("plane",)))
        # every annotation file is parsed before any quad is checked
        d = _write(tmp_path / "gt3", {"A.txt": bad, "B.txt": "0 0 1 0 1 plane 0\n"})
        with pytest.raises(ParseError):
            parse_dota_annotations(d)


@pytest.mark.parametrize("bad", ["A 1.5 0 0 1 0 1 1 0 1", "A 0.5 0 0 1 0 1 x 0 1", "A 0.5 0 0 1"])
def test_parse_error_beats_a_later_bad_quad(bad, tmp_path):
    # the lines after the first parse error are never checked
    d = _write(tmp_path / "dets", {"plane.txt": f"{GOOD}\n{bad}\n{DEGENERATE}\n"})
    with pytest.raises(ParseError, match=r"plane\.txt:2: ") as got:
        parse_dota_detections(d)
    with pytest.raises(ParseError) as want:
        parse_dota_detections_oracle(d)
    assert str(got.value) == str(want.value)


REFUSED_QUADS = [
    ("50 50 60 50 52 52 50 60", DegenerateQuad, "vertices do not form a convex quadrilateral"),
    ("0 0 1 1 2 2 3 3", DegenerateQuad, "area 0 below tolerance 1e-06"),
    ("0 0 1 0 nan 1 0 1", ValueError, "non-finite vertex (nan, 1.0)"),
]


class TestRefusedQuadLocation:
    """A refused quad's error names its file and line, on either read path."""

    @pytest.mark.parametrize("coords, error, reason", REFUSED_QUADS)
    @pytest.mark.parametrize("before, line_no", [
        ([], 1),
        (["imagesource:GoogleEarth", "gsd:0.146", "0 0 10 0 10 10 0 10 plane 0", ""], 5),
    ])
    @pytest.mark.parametrize("flag, one_loadtxt", [(" 0", True), ("", False)])
    def test_annotation_file(self, tmp_path, coords, error, reason, before, line_no, flag,
                             one_loadtxt):
        text = "\n".join([*before, f"{coords} plane{flag}", f"5 5 9 5 9 9 5 9 ship{flag}"])
        d = _write(tmp_path / "gt", {"A.txt": "0 0 10 0 10 10 0 10 ship 1\n", "B.txt": text})
        assert (dota._well_formed_annotations(text) is not None) == one_loadtxt
        message = f"{d / 'B.txt'}:{line_no}: {reason}"
        with pytest.raises(error) as got:
            parse_dota_annotations(d)
        assert type(got.value) is error and str(got.value) == message
        empty = _write(tmp_path / "dets", {})
        assert _run(["eval", "--gt", str(d), "--dets", str(empty)]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("coords, error, reason", REFUSED_QUADS)
    @pytest.mark.parametrize("before, line_no", [([], 1), ([GOOD, "", GOOD], 4)])
    @pytest.mark.parametrize("image, one_loadtxt", [("A", True), ("Å", False)])
    def test_detection_file(self, tmp_path, coords, error, reason, before, line_no, image,
                            one_loadtxt):
        text = "\n".join([*before, f"{image} 0.5 {coords}", GOOD])
        d = _write(tmp_path / "dets", {"a.txt": GOOD + "\n", "b.txt": text})
        assert (dota._loadtxt(text, range(1, 10)) is not None) == one_loadtxt
        message = f"{d / 'b.txt'}:{line_no}: {reason}"
        with pytest.raises(error) as got:
            parse_dota_detections(d)
        assert type(got.value) is error and str(got.value) == message
        out = tmp_path / "kept"
        assert _run(["nms", "--dets", str(d), "--out", str(out)]) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("coords, error, reason", REFUSED_QUADS)
    def test_wins_over_a_later_parse_error(self, tmp_path, coords, error, reason):
        d = _write(tmp_path / "dets", {"plane.txt": f"{GOOD}\nA 0.5 {coords}\n{MALFORMED}\n"})
        with pytest.raises(error) as got:
            parse_dota_detections(d)
        assert str(got.value) == f"{d / 'plane.txt'}:2: {reason}"
        # across files too
        d = _write(tmp_path / "dets2", {"a.txt": f"{GOOD}\nA 0.5 {coords}\n", "b.txt": MALFORMED})
        with pytest.raises(error) as got:
            parse_dota_detections(d)
        assert str(got.value) == f"{d / 'a.txt'}:2: {reason}"

    def test_wins_over_a_later_unknown_category(self, tmp_path):
        d = _write(tmp_path / "gt", {"A.txt": "0 0 10 0 10 10 0 10 plane 0\n0 0 1 1 2 2 3 3 plane 0\n",
                                     "B.txt": "0 0 1 0 1 1 0 1 tank 0\n"})
        with pytest.raises(DegenerateQuad) as got:
            parse_dota_annotations(d, ClassTable(("plane",)))
        assert str(got.value) == f"{d / 'A.txt'}:2: area 0 below tolerance 1e-06"


def test_format_rows_matches_format_number_oracle_value_by_value():
    values = [-0.0, 2.0**53, 1e300, 0.1, 1 / 3, math.inf, -math.inf, math.nan, 0.0, -7.0, 2.5]
    table = np.array([values, values[::-1]])
    expected = [[format_number_oracle(v) for v in row] for row in table.tolist()]
    assert [row.split(" ") for row in _format_rows(table)] == expected
    assert _format_rows(table[:, :1]) == [expected[0][0], expected[1][0]]
    assert _format_rows(np.empty((0, 9))) == []


# ------------------------------------------------------------------ fuzzing

_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 12).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "-0", "0.5", "1_0", "0x1", "1e-400", ".", "e"]),
    st.sampled_from(["\u0661\u0662", "+.5e-3", "-nan", "4.9406564584124654e-324"]),
)
_word = st.text(alphabet=string.ascii_letters + string.digits + "._-:", min_size=1, max_size=5)
# whitespace-only tokens put other separators between the spaces of a line
_token = st.one_of(_number, _number, _word, st.sampled_from(["plane", "ship", "0", "1", "2"]),
                   st.sampled_from(["\t", "\x1f", "\xa0"]))
_separator = st.sampled_from([" ", "\t", " \x1f", "\xa0", "\t\x0c"])
_grid = st.sampled_from(["0", "1", "2", "3", "10", "-0"])
_det_line = st.one_of(
    st.lists(_token, max_size=11).map(" ".join),
    st.tuples(st.sampled_from(["A", "B", "c"]), st.sampled_from(["0", "0.5", "1", "0.25"]),
              st.lists(_grid, min_size=8, max_size=8)).map(lambda t: " ".join([t[0], t[1], *t[2]])),
    # well formed but for the separators, the coordinates and a possible 11th field
    st.tuples(_separator, st.sampled_from(["A", "B"]), st.sampled_from(["0.5", "+.5e-3", "1"]),
              st.lists(st.one_of(_grid, _grid, _number), min_size=8, max_size=8),
              st.lists(_token, max_size=1))
    .map(lambda t: t[0].join(t[1:3] + tuple(t[3]) + tuple(t[4]))),
)
_gt_line = st.one_of(
    st.lists(_token, max_size=11).map(" ".join),
    st.sampled_from(["", "imagesource:GoogleEarth", "gsd:0.1", "  "]),
    st.tuples(st.lists(_grid, min_size=8, max_size=8), st.sampled_from(["plane", "ship", "car"]),
              st.sampled_from(["", " 0", " 1", " 2"])).map(lambda t: " ".join(t[0]) + f" {t[1]}{t[2]}"),
)


def _outcome(parse, *args, **kwargs):
    """("ok", result) or ("error", type, message); only data errors may escape."""
    try:
        return ("ok", parse(*args, **kwargs))
    except (ObbkitError, ValueError) as exc:  # the CLI maps both to exit 2
        return ("error", type(exc), str(exc))


@settings(max_examples=150, deadline=None)
@given(
    plane=st.lists(_det_line, max_size=6),
    ship=st.lists(_det_line, max_size=4),
)
def test_fuzz_detection_parser(plane, ship):
    with tempfile.TemporaryDirectory() as tmp:
        d = _write(Path(tmp) / "dets", {"plane.txt": "\n".join(plane), "ship.txt": "\n".join(ship)})
        got = _outcome(parse_dota_detections, d)
        want = _outcome(parse_dota_detections_oracle, d)
        if got[0] == "ok":
            assert want[0] == "ok" and got[1][1] == want[1][1]
            assert _as_plain(got[1][0].per_image()) == _as_plain(want[1][0])
        else:
            assert got == want
        rc, _, _ = _run(["nms", "--dets", str(d), "--out", str(Path(tmp) / "k")])
        assert rc == (0 if got[0] == "ok" else 2)


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(_gt_line, max_size=6),
    b=st.lists(_gt_line, max_size=4),
)
def test_fuzz_annotation_parser(a, b):
    classes = ClassTable(("plane", "ship"))
    with tempfile.TemporaryDirectory() as tmp:
        d = _write(Path(tmp) / "gt", {"A.txt": "\n".join(a), "B.txt": "\n".join(b)})
        outcomes = []
        for table in (None, classes):
            got = _outcome(parse_dota_annotations, d, table)
            outcomes.append(got)
            want = _outcome(parse_dota_annotations_oracle, d, table)
            if got[0] == "ok":
                assert want[0] == "ok" and got[1].classes == want[1].classes
                assert _gt_plain(got[1].images) == _gt_plain(want[1].images)
            else:
                assert got == want
        empty = _write(Path(tmp) / "dets", {})
        rc, _, _ = _run(["eval", "--gt", str(d), "--dets", str(empty)])
        # eval infers the class table, as the first parse above did
        assert rc == (0 if outcomes[0][0] == "ok" else 2)


_BOX, _SMALL = "0 0 10 0 10 10 0 10", "5 5 9 5 9 9 5 9"


@pytest.mark.parametrize(
    "text, one_loadtxt",
    [
        (f"imagesource:GoogleEarth\ngsd:0.146\n{_BOX} plane 0\n{_SMALL} ship 1\n", True),
        (f"  GSD: 0.1 m\n{_BOX} plane 1\r\n\n{_SMALL} ship 0\n  \n", True),
        (f"{_BOX} plane\n{_SMALL} ship", False),
        (f"{_BOX}\tplane\x0c{_SMALL} 1_0", False),
        (f"\n{_BOX} plane 0\n", False),
        (f"{_BOX} plane 0\ngsd:0.1\n{_SMALL} ship 1\n", False),
        (f"{_BOX} plane 0\n{_SMALL} ship\n", False),
        (f"{_BOX} plane\n{_SMALL} ship 1\n", False),
        (f"{_BOX} plane 0 extra\n", False),
        (f"{_BOX} plane 2\n", False),
        (f"{_BOX} plane 0.0\n", False),
        (f"{_BOX} plane -0\n", False),
        (f"{_BOX} plane x\n", False),
        (f"1_0 {_BOX[2:]} plane 0\n", False),
        (f"{_BOX} plané 0\n", False),
        (f"#{_BOX} plane 0\n", False),
        (f"{_BOX} plane 0\n0 0 10 0 10 10 0 x ship 0\n", False),
        ("imagesource:GoogleEarth\ngsd:0.146\n", False),
        ("", False),
    ],
)
def test_annotation_table_fast_path(text, one_loadtxt, tmp_path):
    # one loadtxt call reads a well-formed file; every other file reads line by
    # line; both give the records, or the first error, of the per-line oracle
    f = tmp_path / "A.txt"
    f.write_bytes(text.encode())
    assert (dota._well_formed_annotations(f.read_text()) is not None) == one_loadtxt
    got = _outcome(dota._annotation_table, f)
    want = _outcome(annotation_records_oracle, f)
    if want[0] == "ok":
        coords, names, flags = got[1]
        assert [[v.hex() for v in row] for row in coords.tolist()] == [
            [v.hex() for v in c] for c, *_ in want[1]
        ]
        assert (names, flags) == ([r[1] for r in want[1]], [r[2] for r in want[1]])
    else:
        assert got == want
