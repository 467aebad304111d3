"""Write ``manifest.json``: the command lines whose output is pinned, with that output.

Run it from the repository root against the tree whose outputs are to be
pinned, and commit the manifest only when an output change is intended:

    PYTHONPATH=src python tests/contract/regenerate.py

``tests/test_contract.py`` replays every entry through ``permlab.cli.main``
in one process.  An entry holds the argv, the exit code and stdout:
verbatim when it is at most ``VERBATIM_LIMIT`` characters, else its
sha256 and byte length.  It holds stderr verbatim too, when that is not
empty, except for a rejection by the argument parser (a ``SystemExit``):
its usage text is argparse's, and the ``--parallelism`` message names
the CPU count, so only its exit code is pinned.  The ``elapsedMillis``
line of a ``verify --format json`` report is dropped first, since it
alone is not fixed by the flags; nothing else in the output is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re

from permlab.cli import main
from permlab.enumeration import FILTERS, STATISTICS
from permlab.series import IDENTITIES, _ENUMERATED, series_names

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "manifest.json")
VERBATIM_LIMIT = 1000
_ELAPSED = re.compile(r',\n *"elapsedMillis": [^\n]*')
FORMATS = ("table", "csv", "json")
PAPER_CLASSES = [f"2143,3142,{tau}" for tau in ("254613", "524361", "546132", "263514",
                                                "4132", "246135", "236145")]
STAT_BASES = ("132", "2143,3142,4132", "2143,3142,254613")


def argvs() -> list[list[str]]:
    """The pinned command lines, each as ``permlab.cli.main`` takes it."""
    out = [
        ["simples", "--basis", basis, "--max-n", "9", "--format", fmt]
        for basis in ("2143,3142,4132", "2143,3142,263514", "2143,3142")
        for fmt in FORMATS
    ]
    out += [
        ["series", "--name", "simples-gf-enum", "--order", order, "--format", "json"]
        for order in ("0", "3", "4", "10")
    ]
    out += [
        ["verify", "--id", check_id, "--max-n", max_n, "--format", "json"]
        for check_id in ("simples-coincide", "simples-construction", "inflation-rules")
        for max_n in ("0", "3", "9")
    ]
    out += [
        ["verify", "--id", check_id, "--max-n", "10", "--order", "10", "--format", "json"]
        for check_id in ("sum-decomposable-split", "skew-decomposable-split",
                         "simples-gf-vs-enumeration")
    ]
    out.append(["verify", "--all", "--max-n", "7", "--count-n", "8", "--format", "json"])
    # the run the README documents: every check at the default budgets
    out += [["verify", "--list-ids"], ["verify", "--all", "--format", "json"]]
    out += [
        ["stat", "--basis", basis, "--max-n", "7", "--stats", stats,
         "--filter", filter_id, "--format", fmt]
        for basis in STAT_BASES
        for stats in (*STATISTICS, ",".join(STATISTICS))
        for filter_id in FILTERS
        for fmt in FORMATS
    ]
    out += [
        ["stat", "--basis", basis, "--max-n", "8", "--stats", ",".join(STATISTICS),
         "--format", "json"]
        for basis in STAT_BASES
    ]
    out += [
        ["series", "--name", name, "--order", "8" if name in _ENUMERATED else "12",
         "--format", fmt]
        for name in series_names()
        for fmt in FORMATS
    ]
    # descending, since each closed form keeps its highest build and cuts lower orders from it;
    # the closed-form identities at order 40 come right after the order-40 builds they share
    closed = [name for name in series_names() if name not in _ENUMERATED]
    # substitutions at a high order: S(f, x/(1-x)), C(x/(1 - tx)), C* at the kernel root, and
    # the 4132 closed form built on C(x/(1 - tx))
    out += [["series", "--name", name, "--order", "60", "--format", "json"]
            for name in ("gf-263514", "catalan-layered", "kernel-root", "lead-4132")]
    out += [["series", "--name", name, "--order", "40", "--format", "json"] for name in closed]
    out += [
        ["verify", "--id", check_id, "--order", "40", "--format", "json"]
        for check_id in sorted(IDENTITIES) if not IDENTITIES[check_id].enum_backed
    ]
    out += [
        ["series", "--name", name, "--order", order, "--format", "json"]
        for order in ("20", "12", "5", "0")
        for name in closed
    ]
    out += [
        ["count", "--basis", basis, "--max-n", "9", "--format", fmt,
         "--parallelism", parallelism]
        for basis in PAPER_CLASSES
        for fmt in FORMATS
        for parallelism in ("1", "2")
    ]
    out += [
        ["count", "--basis", "2143,3142", "--max-n", "7", "--format", fmt]
        for fmt in FORMATS
    ]
    # the insertion step's other paths: the pattern 1, no 2143, a generated
    # search alone, the 4132 rule without 3142, and 3142 without 2143
    out += [
        ["count", "--basis", basis, "--max-n", "9", "--parallelism", parallelism]
        for basis in ("1", "123", "1324", "4132", "2413,3142")
        for parallelism in ("1", "2")
    ]
    out += [
        ["enumerate", "--basis", basis, "--max-n", "8", "--format", fmt]
        for basis in STAT_BASES
        for fmt in FORMATS
    ]
    # usage errors: the library's, with their message, then the argument parser's
    out += [
        ["stat", "--basis", "132", "--max-n", "3", "--stats", "majorindex"],
        ["stat", "--basis", "132", "--max-n", "3", "--stats", "bond,bond",
         "--format", "json"],
        ["stat", "--basis", "132", "--max-n", "3", "--stats", "bond",
         "--filter", "last-is-max"],
        ["series", "--name", "no-such"],
        ["series", "--name", "lead-enum-4132", "--order", "13"],
        ["series", "--name", "extract-524361", "--order", "13"],
        ["series", "--name", "extract-546132", "--order", "13"],
        ["verify", "--id", "lead-254613-functional", "--order", "13", "--max-n", "13"],
        ["verify", "--id", "no-such"],
        ["count", "--basis", "2 1,43", "--max-n", "2"],
        ["count", "--basis", "132", "--max-n", "-1"],
        ["count", "--basis", "132", "--parallelism", "0"],
        ["stat", "--basis", "132"],
        ["series", "--name", "catalan", "--format", "xml"],
        ["verify", "--all", "--id", "top-values"],
    ]
    return out


def record(argv: list[str]) -> dict:
    """The manifest entry of ``argv``, from running it now."""
    stdout, stderr = io.StringIO(), io.StringIO()
    errors = ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
            errors = stderr.getvalue()
        except SystemExit as exc:
            code = exc.code
    text = _ELAPSED.sub("", stdout.getvalue())
    entry: dict = {"argv": argv, "exit": code}
    if len(text) <= VERBATIM_LIMIT:
        entry["stdout"] = text
    else:
        data = text.encode()
        entry["sha256"] = hashlib.sha256(data).hexdigest()
        entry["bytes"] = len(data)
    if errors:
        entry["stderr"] = errors
    return entry


if __name__ == "__main__":
    entries = [json.dumps(record(argv)) for argv in argvs()]
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(entries) + "\n]\n")
