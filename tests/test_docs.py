"""Keep the docstring examples executable and the README's commands parseable."""

import doctest
import shlex
from pathlib import Path

import permlab.enumeration
import permlab.perms
import permlab.series
from permlab.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_perms_doctests():
    failures, tested = doctest.testmod(permlab.perms)
    assert tested > 0
    assert failures == 0


def test_enumeration_doctests():
    failures, tested = doctest.testmod(permlab.enumeration)
    assert tested > 0
    assert failures == 0


def test_series_doctests():
    failures, tested = doctest.testmod(permlab.series)
    assert tested > 0
    assert failures == 0


def test_readme_command_lines_parse():
    """Every ``permlab`` line of the README's command-line block parses."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("permlab ")]
    assert len(lines) >= 5
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
