"""The README's examples run as written: every ``distnav`` line of its shell
blocks through the CLI, and its Python library example."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from distnav.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


CLI_LINES = [
    line
    for block in fenced_blocks("sh")
    for line in block.splitlines()
    if line.startswith("distnav ")
]


def test_readme_has_examples():
    assert len(CLI_LINES) >= 10
    assert len(fenced_blocks("python")) == 1


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_runs(line, tmp_path):
    # The measure files the examples name, written as the README describes them.
    files = {
        "mu.json": [{"point": [0.0, 0.0], "weight": "1/2"}, {"point": [1.0, 0.0], "weight": "1/2"}],
        "nu.json": [{"point": [0.0, 0.5], "weight": "1/3"}, {"point": [1.0, 0.25], "weight": "2/3"}],
    }
    for name, atoms in files.items():
        (tmp_path / name).write_text(json.dumps(atoms))
    argv = [str(tmp_path / a) if a in files else a for a in shlex.split(line)[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, out.getvalue()
    payload = json.loads(out.getvalue())
    assert payload["schema_version"] == 6
    assert payload["command"] == " ".join(argv[:2])


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_blocks("python")[0], {})
    printed = out.getvalue().splitlines()
    assert printed[0] == "5"
    assert len(printed) == 3
