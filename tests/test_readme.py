"""The README's library example runs as written, and its CLI synopsis and configuration
table are current."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from obbkit import cli, config

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


def test_cli_synopsis_lists_every_option():
    block = README.read_text().split("## CLI\n")[1].split("```sh\n")[1].split("```")[0]
    # one entry per subcommand: its "obbkit NAME" line and the indented lines after it
    entries = {}
    for line in block.splitlines():
        if line.startswith("obbkit "):
            name = line.split()[1]
            entries[name] = line
        else:
            entries[name] += line
    (commands,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert entries.keys() == commands.choices.keys()
    # the Configuration section covers these; -h/--help is argparse's own
    exempt = {"--config", "--set", "--threads", "-h", "--help"}
    missing = [
        (name, option)
        for name, sub in commands.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option not in exempt and not re.search(rf"(?<![\w-]){option}(?![\w-])", entries[name])
    ]
    assert missing == []
