"""README's command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from cooprob.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


COMMANDS = [
    line.split(" #")[0].strip()
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("cooprob ")
]


def test_the_readme_shows_every_subcommand():
    shown = {" ".join(shlex.split(line)[1:3]) for line in COMMANDS}
    for command in ("classify", "estimate", "estimate3", "asym", "equiprob", "verify"):
        assert any(s.split()[0] == command for s in shown), command
    for app in ("diner", "public-goods", "traveler", "attrition"):
        assert f"app {app}" in shown, app


@pytest.mark.parametrize("line", COMMANDS)
def test_a_readme_command_exits_0(line, tmp_path, capsys):
    # the tables.json example of the README is the file that verify reads
    (tables,) = _blocks("json")
    (tmp_path / "tables.json").write_text(tables)
    argv = [str(tmp_path / arg) if arg == "tables.json" else arg for arg in shlex.split(line)[1:]]
    code = main(argv)
    assert code == 0, (line, capsys.readouterr().err)
