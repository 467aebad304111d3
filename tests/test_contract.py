"""Every command line in ``contract/manifest.json`` still gives its pinned output.

The manifest pins the exit code and stdout (or its sha256) of each entry;
``contract/regenerate.py`` writes it and says how.  The entries run in
this process, whatever the level cache holds, since no output depends on
it.
"""

import json

import pytest

from contract.regenerate import MANIFEST, record

with open(MANIFEST, encoding="utf-8") as fh:
    ENTRIES = json.load(fh)


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_output_matches_manifest(entry):
    assert record(entry["argv"]) == entry
