"""Workload definitions for the permlab benchmark.

A workload is a list of operations.  Each operation is one ``permlab``
command line, given as the argv a user would type, plus an exact check
of its output.  Every reference value comes from ``reference.json`` in
this directory, never from the program under test.

Sizes are chosen so that one cold repetition of a workload takes one to
three seconds: a run repeats the workload in fresh interpreters and
reports medians, because single repetitions on a shared two-CPU machine
vary by 20 % and more.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

PAPER_SCHRODER = ("254613", "524361", "546132", "263514")

# The closed-form (not enumeration-backed) identities: pure series work.
CLOSED_FORM_IDENTITIES = (
    "first-not-one-from-full",
    "gf-263514-schroder",
    "kernel-254613-vanishes",
    "kernel-524361-vanishes",
    "kernel-root-closed",
    "kernel-root-product",
    "lead-4132-functional",
    "schroder-cubic",
    "schroder-from-kernel-root",
    "simples-gf-two-ways",
    "stat132-system",
)

# Every check id `verify --all` reported at the seed commit.
STRUCTURAL_CHECK_IDS = (
    "top-values",
    "gap-staircase",
    "strip-132",
    "rebuild-254613",
    "rebuild-524361",
    "rebuild-546132",
    "prefix-relocation",
    "simples-coincide",
    "simples-construction",
    "inflation-rules",
    "deflation-uniqueness",
)
ENUM_BACKED_IDENTITIES = (
    "lead-254613-functional",
    "lead-4132-closed",
    "lead-4132-first-not-one-closed",
    "lead-524361-functional",
    "lead-546132-functional",
    "simples-gf-vs-enumeration",
    "skew-decomposable-split",
    "stat132-ending-max-enum",
    "sum-decomposable-split",
)
VERIFY_CHECK_IDS = (
    STRUCTURAL_CHECK_IDS
    + ("cross-count",)
    + tuple(sorted(CLOSED_FORM_IDENTITIES + ENUM_BACKED_IDENTITIES))
)

COUNT_N = 9  # depth of the count-paper classes
SERIES_ORDER = 20  # order of the series-order20 identities
VERIFY_MAX_N = 7  # --max-n of the verify-all run
VERIFY_COUNT_N = 8  # --count-n of the verify-all run
PARALLELISM = 2  # workers of the count-par2 run


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Op:
    """One command line and the exact check its result must pass."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error or None


def _parse_count_table(out: str) -> list[int]:
    counts = []
    for n, line in enumerate(out.splitlines()):
        idx, value = line.split("\t")
        if int(idx) != n:
            raise ValueError(f"row {n} is labelled {idx}")
        counts.append(int(value))
    return counts


def expect_counts(want: list[int]) -> Callable[[int, str], str | None]:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            got = _parse_count_table(out)
        except ValueError as exc:
            return f"unparsable count table: {exc}"
        return None if got == want else f"counts {got} != {want}"

    return check


def expect_identity_pass(identity_id: str) -> Callable[[int, str], str | None]:
    def check(rc: int, out: str) -> str | None:
        fields = out.split()
        if rc != 0 or fields[:2] != [identity_id, "pass"]:
            return f"exit code {rc}, output {out.strip()!r}"
        return None

    return check


def expect_all_pass(check_ids: tuple[str, ...]) -> Callable[[int, str], str | None]:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            reports = json.loads(out)
        except ValueError as exc:
            return f"unparsable JSON: {exc}"
        seen = {r["checkId"] for r in reports}
        missing = sorted(set(check_ids) - seen)
        if missing:
            return f"checks missing from the report: {missing}"
        bad = [r["checkId"] for r in reports if r["status"] != "pass" or r["witnesses"]]
        return f"checks not passing cleanly: {bad}" if bad else None

    return check


def heldout_pattern(seed: int, ref: dict) -> str:
    """The held-out sixth pattern tau' drawn by the workload seed."""
    pool = sorted(ref["heldout"])
    return random.Random(seed).choice(pool)


def count_paper(seed: int, ref: dict) -> list[Op]:
    ops = []
    for tau in PAPER_SCHRODER:
        basis = f"2143,3142,{tau}"
        ops.append(Op(f"count {tau}", ("count", "--basis", basis, "--max-n", str(COUNT_N)),
                      expect_counts(ref["large_schroder"][: COUNT_N + 1])))
    ops.append(Op("count 4132", ("count", "--basis", "2143,3142,4132", "--max-n", str(COUNT_N)),
                  expect_counts(ref["a033321"][: COUNT_N + 1])))
    near = ref["near_miss"]
    ops.append(Op("count near-miss", ("count", "--basis", "2143,3142", "--max-n", str(len(near) - 1)),
                  expect_counts(near)))
    tau = heldout_pattern(seed, ref)
    ops.append(Op(f"count held-out {tau}",
                  ("count", "--basis", f"2143,3142,{tau}", "--max-n", str(COUNT_N)),
                  expect_counts(ref["heldout"][tau][: COUNT_N + 1])))
    return ops


def series_order(seed: int, ref: dict) -> list[Op]:
    ids = list(CLOSED_FORM_IDENTITIES)
    random.Random(seed).shuffle(ids)  # no identity may rely on running after another
    return [
        Op(f"identity {i}", ("verify", "--id", i, "--order", str(SERIES_ORDER)),
           expect_identity_pass(i))
        for i in ids
    ]


def verify_all(seed: int, ref: dict) -> list[Op]:
    return [Op("verify --all",
               ("verify", "--all", "--max-n", str(VERIFY_MAX_N),
                "--count-n", str(VERIFY_COUNT_N), "--format", "json"),
               expect_all_pass(VERIFY_CHECK_IDS))]


def count_par2(seed: int, ref: dict) -> list[Op]:
    taus = list(PAPER_SCHRODER)
    random.Random(seed).shuffle(taus)
    return [
        Op(f"count {tau} parallel",
           ("count", "--basis", f"2143,3142,{tau}", "--max-n", str(COUNT_N),
            "--parallelism", str(PARALLELISM)),
           expect_counts(ref["large_schroder"][: COUNT_N + 1]))
        for tau in taus
    ]


WORKLOADS: dict[str, Callable[[int, dict], list[Op]]] = {
    "count-paper": count_paper,
    "series-order20": series_order,
    "verify-all": verify_all,
    "count-par2": count_par2,
}
