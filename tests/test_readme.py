"""The README's library example runs as written, and its configuration table is current."""

import contextlib
import io
import re
from pathlib import Path

from obbkit import config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert float(out.getvalue().split()[-1]) > 0.99


def test_configuration_table_lists_every_key_with_its_default():
    section = README.read_text().split("### Configuration")[1].split("\n## ")[0]
    documented = {}
    # a row names one or more keys and their defaults, each list joined by " / "
    for keys, defaults in re.findall(r"^\| (`.*?) \| (.*?) \|", section, re.M):
        documented.update(zip(re.findall(r"`(\w+)`", keys), defaults.split(" / "), strict=True))
    assert documented.keys() == config._WEIGHT_KEYS | config._PARSERS.keys()
    for key, default in documented.items():
        assert config.build_config({key: default}) == config.RunConfig(), key
