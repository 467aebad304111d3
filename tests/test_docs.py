"""Keep the docstring examples executable and the README's commands parseable."""

import doctest
import re
import shlex
from pathlib import Path

import permlab.cli
import permlab.enumeration
import permlab.perms
import permlab.series
import permlab.verification
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


def test_readme_module_names_resolve():
    """Every backticked ``module.name`` in the README names something in that module."""
    modules = {name: getattr(permlab, name)
               for name in ("perms", "enumeration", "series", "verification", "cli")}
    text = README.read_text(encoding="utf-8")
    found = re.findall(r"`(perms|enumeration|series|verification|cli)((?:\.\w+)+)", text)
    assert found
    for module, path in found:
        if path == ".py":
            continue  # a file name
        target = modules[module]
        for attr in path[1:].split("."):
            assert hasattr(target, attr), f"README names {module}{path}, which does not exist"
            target = getattr(target, attr)


def test_readme_series_registry_names_exist():
    """Every backticked name in the README's series registry is a registered series."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Series registry", 1)[1].split("\n## ", 1)[0]
    found = re.findall(r"`([a-z0-9*-]+)`", section)
    assert len(found) >= 15
    names = set(permlab.series.series_names())
    for name in found:
        if name.endswith("*"):
            assert any(n.startswith(name[:-1]) for n in names), name
        else:
            assert name in names, f"README's series registry names {name!r}, which is not registered"
