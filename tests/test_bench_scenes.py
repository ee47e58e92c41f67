"""The seeded scenes of the bench/ layer scripts, pinned by sha256, so that their
timings stay comparable from one revision to the next: the files that
dota_layers and train_layers write and the arrays that the scripts build in memory."""

import dataclasses
import hashlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def script(monkeypatch):
    """Loads bench/NAME.py as a module, leaving the BLAS thread variables as they were."""
    monkeypatch.syspath_prepend(str(BENCH))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))

    def load(name):
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load


def _update(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            _update(h, getattr(obj, field.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _update(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode() + b";")


def digest(obj) -> str:
    """sha256 of the arrays, dataclass fields and scalars of obj, in order."""
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """sha256 of every file's relative path and bytes under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_dota_layers_scenes(script, tmp_path):
    dota = script("dota_layers")
    dota.write_scene(tmp_path)
    assert tree_digest(tmp_path) == (
        "f3c919263cd5c3ee442a17cb66ab636f47b853eed1d519c8cf1eafec81553049")
    assert {name: digest(build()) for name, build in [
        ("crowded", dota.crowded_scene), ("column", dota.column_scene),
        ("stacked", dota.stacked_scene), ("wide", dota.wide_scene),
    ]} == {
        "crowded": "e22868685445a79f5adc90544fe285b257c65d9d82a743fdf271ae323b290a70",
        "column": "6128a4a5feb2892d719edd50bf7bf837e012110414665019b621a21820bf507f",
        "stacked": "93d0412bfe35d0b495951aed6b48391644dd99bb5e123b546284968c2fe753bc",
        "wide": "ad1ce48e5bb995ee0abe96cfbc5303d3aa9b46fd8ad7bb7071abb80cc7f7a957",
    }


def test_train_layers_scene(script, tmp_path):
    script("train_layers").write_scene(tmp_path)
    assert tree_digest(tmp_path) == (
        "5aef8de7d66272180c6f3b3ad85ca4bd5a0cfbc7ba206feace9537a63652fa8a")


def test_inference_layers_scenes(script):
    inf = script("inference_layers")
    assert {name: digest(build()) for name, build in [
        ("detect", inf.detect_map), ("dense", inf.dense_map),
        ("scattered", inf.scattered_boxes), ("clustered", inf.clustered_boxes),
        ("chain", inf.chained_boxes), ("stacked", inf.stacked_boxes),
        ("fusion", lambda: (inf.fusion_maps(), inf.AttentionWeights.seeded(64, 64))),
    ]} == {
        "detect": "3f56c647280c6d8824f12e448ad0cdf5c02c258cb9df68436d62a82167d28471",
        "dense": "3c2d6d0098201560655df23fce8118dbddb0a801ed138bfc1f273b85cabfe98c",
        "scattered": "907aa1f840d334a3f7ff7ed326145ae724332e943489642ce4909bc0e3110483",
        "clustered": "446781fb25bd211654791fdd87c3b5d0c4ba7ff2a2f07a6b3b8b27b404be6841",
        "chain": "c77f258c7c08ac09b152586b44386f57c50e1574b6aa6c7fecbeba457ec8ca2d",
        "stacked": "0f4e41011abdc368a7e9165a863be81a9577a908e88ab90c2ca4320696c03913",
        "fusion": "a444625c349613028ed3905340ffe0f31a2c4b7c1fb87693ca4fbc483ac89439",
    }
