"""Acceptance suite: the eight exit criteria at their full stated budgets.

Every criterion is exact (integer or rational equality, no tolerances)
and prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to watch them stream.
"""

import pytest

from permlab.cli import main as cli_main
from permlab.enumeration import PatternBasis, count_class
from permlab.series import (
    IDENTITIES,
    check_identity,
    identity_ids,
    named_series,
)
from permlab.verification import (
    check_cross_counts,
    check_deflation_uniqueness,
    check_gap_staircase,
    check_inflation_rules,
    check_prefix_relocation,
    check_rebuild_254613,
    check_rebuild_524361,
    check_rebuild_546132,
    check_simples_coincide,
    check_simples_construction,
    check_strip_characterization,
    check_top_values,
)

SCHRODER_TAUS = ["254613", "524361", "546132", "263514"]


def announce(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_schroder_equivalence_all_four(capsys):
    expected = [int(c) for c in named_series("large-schroder", 10).x_coefficients()]
    ok = True
    for tau in SCHRODER_TAUS:
        counts = count_class(PatternBasis.from_text(f"2143,3142,{tau}"), 10)
        if counts != expected:
            ok = False
    # exercise the command-line surface for one of the four
    code = cli_main(["count", "--basis", "2143,3142,254613", "--max-n", "10"])
    out = capsys.readouterr().out
    cli_counts = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
    ok = ok and code == 0 and cli_counts == expected
    with capsys.disabled():
        announce(1, "schroder-equivalence-x4", ok, f"counts to n=10 = {expected}")


def test_criterion_2_near_miss_control(capsys):
    counts = count_class(PatternBasis.from_text("2143,3142"), 7)
    schroder = [int(c) for c in named_series("large-schroder", 7).x_coefficients()]
    ok = (
        counts == [1, 1, 2, 6, 22, 90, 395, 1823]
        and counts[:6] == schroder[:6]
        and counts[6] != schroder[6]
    )
    with capsys.disabled():
        announce(2, "near-miss-control", ok, f"tail {counts[-2:]}, diverges at n=6")


def test_criterion_3_a033321_case(capsys):
    counts = count_class(PatternBasis.from_text("2143,3142,4132"), 10)
    coeffs = [int(c) for c in named_series("a033321", 10).x_coefficients()]
    ok = counts == coeffs
    with capsys.disabled():
        announce(3, "a033321-case", ok, f"counts to n=10 = {counts}")


def test_criterion_4_identity_suite(capsys):
    failures = []
    for iid in identity_ids():
        order = 10 if IDENTITIES[iid].enum_backed else 20
        mismatch = check_identity(iid, order)
        if mismatch is not None:
            failures.append((iid, mismatch))
    with capsys.disabled():
        announce(
            4, "identity-suite", not failures,
            f"{len(identity_ids())} identities, closed@20 enum@10"
            + (f"; failures {failures}" if failures else ""),
        )


def test_criterion_5_structural_suite(capsys):
    reports = [
        check_top_values(8),
        check_gap_staircase(8),
        check_strip_characterization(8),
        check_simples_coincide(8),
        check_simples_construction(8),
        check_inflation_rules(8),
        check_deflation_uniqueness(7),
    ]
    bad = [(r.check_id, r.witnesses[:2]) for r in reports if not r.passed]
    with capsys.disabled():
        announce(5, "structural-suite", not bad, str(bad) if bad else "7 checks, 0 witnesses")


def test_criterion_6_bijective_reconstructions(capsys):
    reports = [
        check_rebuild_254613(8),
        check_rebuild_524361(8),
        check_rebuild_546132(8),
        check_prefix_relocation(8),
    ]
    bad = [(r.check_id, r.witnesses[:2]) for r in reports if not r.passed]
    with capsys.disabled():
        announce(
            6, "bijective-reconstructions", not bad,
            str(bad) if bad else "each element produced exactly once at n<=8",
        )


def test_criterion_7_simples_series_triangulation(capsys):
    from_stats = named_series("simples-gf-from-stats", 10)
    closed = named_series("simples-gf-closed", 10)
    brute = named_series("simples-gf-enum", 10)
    ok = (from_stats - closed).is_zero() and (from_stats - brute).is_zero()
    with capsys.disabled():
        announce(
            7, "simples-series-triangulation", ok,
            "statistic route = radical route = brute force to total degree 10",
        )


def test_criterion_8_negative_controls(capsys):
    surviving = []
    for iid in identity_ids():
        order = 8 if IDENTITIES[iid].enum_backed else 12
        if check_identity(iid, order, corrupt=True) is None:
            surviving.append(iid)
    bad_basis = PatternBasis.from_text("2143,3142,254631")
    count_report = check_cross_counts(7, targets=[(bad_basis, "large-schroder")])
    mutation_ok = not surviving
    control_ok = (not count_report.passed) and "n=7" in count_report.witnesses[0][1]
    parse_rejected = False
    try:
        PatternBasis.from_text("2143,3142,254614")
    except ValueError:
        parse_rejected = True
    ok = mutation_ok and control_ok and parse_rejected
    with capsys.disabled():
        announce(
            8, "negative-controls", ok,
            f"{len(identity_ids())} formula mutations caught; corrupted basis "
            "diverges at n=7; non-permutation basis rejected"
            + (f"; surviving mutants {surviving}" if surviving else ""),
        )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
