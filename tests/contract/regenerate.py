"""Write ``manifest.json``: the command lines whose output is pinned, with that output.

Run it from the repository root against the tree whose outputs are to be
pinned, and commit the manifest only when an output change is intended:

    PYTHONPATH=src python tests/contract/regenerate.py

``tests/test_contract.py`` replays every entry through ``permlab.cli.main``
in one process.  An entry holds the argv, the exit code and stdout:
verbatim when it is at most ``VERBATIM_LIMIT`` characters, else its
sha256 and byte length.  The ``elapsedMillis`` line of a ``verify
--format json`` report is dropped first, since it alone is not fixed by
the flags; nothing else in the output is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re

from permlab.cli import main

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "manifest.json")
VERBATIM_LIMIT = 1000
_ELAPSED = re.compile(r',\n *"elapsedMillis": [^\n]*')


def argvs() -> list[list[str]]:
    """The pinned command lines, each as ``permlab.cli.main`` takes it."""
    out = [
        ["simples", "--basis", basis, "--max-n", "9", "--format", fmt]
        for basis in ("2143,3142,4132", "2143,3142,263514", "2143,3142")
        for fmt in ("table", "csv", "json")
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
    return out


def record(argv: list[str]) -> dict:
    """The manifest entry of ``argv``, from running it now."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    text = _ELAPSED.sub("", stdout.getvalue())
    entry: dict = {"argv": argv, "exit": code}
    if len(text) <= VERBATIM_LIMIT:
        entry["stdout"] = text
    else:
        data = text.encode()
        entry["sha256"] = hashlib.sha256(data).hexdigest()
        entry["bytes"] = len(data)
    return entry


if __name__ == "__main__":
    entries = [json.dumps(record(argv)) for argv in argvs()]
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(entries) + "\n]\n")
