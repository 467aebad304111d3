"""Tests for the structural verification checks.

Budgets here are a notch below the acceptance suite's so this module
stays fast; the acceptance suite reruns everything at full depth.
"""

import json
from collections import Counter
from functools import cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_decompositions, calls_to, skew_components, sum_components
from permlab import enumeration, series, verification
from permlab.enumeration import PatternBasis, class_levels
from permlab.series import IDENTITIES, PAPER_BASES
from permlab.perms import (
    Deflation,
    avoids_all,
    deflate,
    direct_sum,
    extraction,
    leading_maxima_count,
    parse_permutation,
    skew_sum,
    standardize,
)
from permlab.verification import (
    CaseTag,
    check_cross_counts,
    check_deflation_uniqueness,
    check_gap_staircase,
    check_ids,
    check_inflation_rules,
    check_prefix_relocation,
    check_rebuild_254613,
    check_rebuild_524361,
    check_rebuild_546132,
    check_simples_coincide,
    check_simples_construction,
    check_strip_characterization,
    check_top_values,
    relocate_identity_prefix,
    run_all,
    run_check,
    _deflation_tallies,
    _gap_blocks,
    _in_relocation_domain,
    _lex_rank,
)

P = parse_permutation


class TestStructuralScans:
    def test_top_values(self):
        r = check_top_values(9)
        assert r.passed and r.witnesses == []

    def test_top_values_witness_shape(self):
        # 34125: two leading maxima, LR tail carries the top values 4, 5
        p = P("34125")
        assert leading_maxima_count(p) == 2
        from permlab.perms import lr_maxima

        tail = {p[i - 1] for i in lr_maxima(p) if i >= 2}
        assert tail == {4, 5}

    def test_gap_staircase(self):
        assert check_gap_staircase(9).passed

    def test_gap_blocks_frozen(self):
        assert _gap_blocks(P("243156")) == [P("21")]
        assert _gap_blocks(P("1234")) == []

    def test_strip_characterization(self):
        assert check_strip_characterization(6).passed

    def test_strip_catches_a_wrong_strip(self, monkeypatch):
        # deleting only the first entry breaks the characterisation (keeping
        # just the last leading maximum would not: it adds no 132 that the
        # stripped rest lacks); the witnesses are recomputed by brute force
        from helpers import all_perms, brute_avoids_all, brute_contains

        def strip_first_entry(p):
            return standardize(p[1:])

        monkeypatch.setattr(verification, "strip_leading_maxima", strip_first_entry)
        r = check_strip_characterization(6)
        expected = []
        for n in range(7):
            for p in all_perms(n):
                member = brute_avoids_all(p, [P("2143"), P("3142"), P("4132")])
                stripped_ok = not brute_contains(strip_first_entry(p), P("132"))
                if member != stripped_ok:
                    expected.append(
                        (p, f"class membership {member} but stripped-avoids-132 {stripped_ok}")
                    )
        assert expected and not r.passed
        assert r.witnesses == expected


class TestRebuilds:
    def test_rebuild_254613(self):
        assert check_rebuild_254613(7).passed

    def test_rebuild_524361(self):
        assert check_rebuild_524361(7).passed

    def test_rebuild_546132(self):
        assert check_rebuild_546132(7).passed

    def test_one_gap_example_routes(self):
        # 243156 has one horizontal gap, so only the one-gap case makes it
        from permlab.verification import _gen_254613

        tags = [tag for p, tag in _gen_254613(6) if p == P("243156")]
        assert len(tags) == 1
        assert tags[0].case_id == "one-gap"
        beta, i = tags[0].payload
        assert (beta, i) == (P("231"), 1)

    def test_identity_routes_once(self):
        from permlab.verification import _gen_254613

        tags = [tag for p, tag in _gen_254613(5) if p == P("1234")]
        assert [t.case_id for t in tags] == ["no-gap"]

    def test_case_tag_str(self):
        assert str(CaseTag("no-gap")) == "no-gap"
        assert "one-gap" in str(CaseTag("one-gap", (P("231"), 1)))


class TestRelocation:
    def test_frozen_examples(self):
        assert relocate_identity_prefix(P("1324")) == P("2314")
        assert relocate_identity_prefix(P("21")) == P("21")
        assert relocate_identity_prefix(P("13524")) == P("24513")

    def test_domain_membership(self):
        assert _in_relocation_domain(P("21"))
        assert not _in_relocation_domain(P("1"))
        assert not _in_relocation_domain(P("12"))
        assert not _in_relocation_domain(())
        assert _in_relocation_domain(P("1324"))

    def test_bijection_check(self):
        assert check_prefix_relocation(7).passed

    def test_preserves_leading_maxima_on_class(self):
        basis = PatternBasis.from_text("2143,3142,4132")
        for n in range(1, 7):
            for sigma in class_levels(basis, 6)[n]:
                if _in_relocation_domain(sigma):
                    tau = relocate_identity_prefix(sigma)
                    assert leading_maxima_count(tau) == leading_maxima_count(sigma)


class TestSimplesChecks:
    def test_simples_coincide(self):
        assert check_simples_coincide(9).passed

    def test_simples_construction(self):
        assert check_simples_construction(7).passed

    def test_inflation_rules(self):
        assert check_inflation_rules(7).passed

    def test_inflation_classification_frozen(self):
        # for 2413: positions 1 and 4 are constrained, 2 and 3 free
        from permlab.verification import _is_one_of_132, _is_three_of_213

        sigma = P("2413")
        flags = {
            i: _is_one_of_132(sigma, i) or _is_three_of_213(sigma, i)
            for i in range(1, 5)
        }
        assert flags == {1: True, 2: False, 3: False, 4: True}

    def test_inflation_probe_examples(self):
        basis = PatternBasis.from_text("2143,3142,263514")
        from permlab.perms import inflate

        ok = inflate(P("2413"), [(1,), (1,), P("21"), (1,)])
        assert avoids_all(ok, basis.patterns)
        bad = inflate(P("2413"), [P("21"), (1,), (1,), (1,)])
        assert not avoids_all(bad, basis.patterns)


def _assert_tally_matches_brute_force(p, counts, agrees, r):
    brute = brute_decompositions(p)
    assert counts[r] == len(brute), p
    assert bool(agrees[r]) == (deflate(p) in brute), p


@cache
def _tally_7():
    *_, (_, counts, agrees) = _deflation_tallies(7)
    return counts, agrees


def test_lex_rank_is_the_position_in_permutations():
    for n in range(8):
        assert [_lex_rank(p) for p in permutations(range(1, n + 1))] == list(range(factorial(n)))


@settings(max_examples=300, deadline=None)
@given(st.permutations(list(range(1, 8))))
def test_tally_matches_brute_force_on_s7(p_list):
    # the check is capped at n = 7, so S_7 holds every permutation it scans
    p = tuple(p_list)
    _assert_tally_matches_brute_force(p, *_tally_7(), _lex_rank(p))


class TestDeflationUniqueness:
    def test_passes(self):
        assert check_deflation_uniqueness(6).passed

    def test_tally_matches_brute_force_exhaustively(self):
        for n, counts, agrees in _deflation_tallies(6):
            for r, p in enumerate(permutations(range(1, n + 1))):
                _assert_tally_matches_brute_force(p, counts, agrees, r)

    def test_tally_matches_brute_force_on_separables(self):
        # separable permutations have the most all-interval cut sets, so
        # they have the most candidate decompositions to rule out
        separables = set(class_levels(PatternBasis.from_text("2413,3142"), 7)[7])
        assert len(separables) == 1806
        counts, agrees = _tally_7()
        for r, p in enumerate(permutations(range(1, 8))):
            if p in separables:
                _assert_tally_matches_brute_force(p, counts, agrees, r)

    def test_catches_deflate_swapping_the_blocks_of_21(self, monkeypatch):
        # the swapped blocks inflate to another permutation unless the
        # swap gives p again (as for 321 = 1 (-) 21 = 21 (-) 1), where
        # deflate() only disagrees
        def swapped_deflate(p):
            d = deflate(p)
            if d.skeleton != (2, 1):
                return d
            return Deflation((2, 1), d.blocks[::-1])

        monkeypatch.setattr(verification, "deflate", swapped_deflate)
        r = check_deflation_uniqueness(5)
        assert not r.passed
        expected = []
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                d = deflate(p)
                if d.skeleton != (2, 1) or d.blocks[0] == d.blocks[1]:
                    continue
                if skew_sum(d.blocks[1], d.blocks[0]) != p:
                    expected.append((p, "deflation does not inflate back"))
                else:
                    expected.append((p, "deflate() disagrees with the inflation tally"))
        assert r.witnesses == expected
        assert (P("321"), "deflate() disagrees with the inflation tally") in expected
        assert (P("312"), "deflation does not inflate back") in expected

    def test_catches_deflate_breaking_the_12_convention(self, monkeypatch):
        # split off the last sum component instead of the first: it still
        # inflates back, but its first block is sum-decomposable once p
        # has three or more components
        def last_split_deflate(p):
            comps = sum_components(p)
            if len(comps) < 2:
                return deflate(p)
            head = ()
            for c in comps[:-1]:
                head = direct_sum(head, c)
            return Deflation((1, 2), (head, comps[-1]))

        monkeypatch.setattr(verification, "deflate", last_split_deflate)
        r = check_deflation_uniqueness(5)
        assert not r.passed
        expected = sorted(
            (p for n in range(1, 6) for p in permutations(range(1, n + 1))
             if len(sum_components(p)) >= 3),
            key=lambda p: (len(p), p),
        )
        assert [p for p, _ in r.witnesses] == expected
        assert {reason for _, reason in r.witnesses} == {
            "deflate() disagrees with the inflation tally"
        }

    def test_catches_search_without_first_block_filter(self, monkeypatch):
        # without the 12/21 filter, a sum (skew) of k >= 3 components has
        # k - 1 decompositions with skeleton 12 (21)
        monkeypatch.setattr(verification, "is_sum_decomposable", lambda p: False)
        monkeypatch.setattr(verification, "is_skew_decomposable", lambda p: False)
        r = check_deflation_uniqueness(5)
        assert not r.passed
        expected = []
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                k = max(len(sum_components(p)), len(skew_components(p)))
                if k >= 3:
                    expected.append((p, f"{k - 1} convention-respecting decompositions"))
        assert r.witnesses == expected


class TestExtractionClosure:
    # Each of the three extraction-based classes is closed under topping
    # a member with a new maximum and extracting any prefix of its
    # leading maxima.  (Cross-class closure into the 254613 class is
    # false: 254613 itself lies in the 524361 class, and extraction
    # preserves containment.)
    def test_same_class_closure(self):
        for tau in ["254613", "524361", "546132"]:
            b = PatternBasis.from_text(f"2143,3142,{tau}")
            for n in range(1, 9):
                for beta in class_levels(b, 8)[n]:
                    for i in range(leading_maxima_count(beta) + 1):
                        assert avoids_all(extraction((1,), beta, i), b.patterns)

    def test_cross_class_closure_counterexample(self):
        beta = P("254613")
        assert avoids_all(beta, PatternBasis.from_text("2143,3142,524361").patterns)
        assert not avoids_all(extraction((1,), beta, 0), PAPER_BASES["254613"].patterns)


class TestCrossCounts:
    def test_default_targets_pass(self):
        assert check_cross_counts(8).passed

    def test_corrupted_basis_fails_with_length_witness(self):
        bad = PatternBasis.from_text("2143,3142,254631")
        r = check_cross_counts(
            7, targets=[(bad, "large-schroder")]
        )
        assert not r.passed
        assert "n=7" in r.witnesses[0][1]

    def test_non_permutation_basis_rejected_at_parse(self):
        with pytest.raises(ValueError, match="duplicate value"):
            PatternBasis.from_text("2143,3142,254614")


class TestAggregation:
    def test_run_check_dispatch(self):
        assert run_check("top-values", 5, 12, count_n=10).passed
        assert run_check("schroder-cubic", 8, 10, count_n=10).passed
        with pytest.raises(KeyError):
            run_check("no-such", 8, 12, count_n=10)

    def test_check_ids_cover_both_registries(self):
        # the order of `verify --all`: the structural checks in the order
        # they are defined, cross-count, then the identities sorted
        assert check_ids() == [
            "top-values", "gap-staircase", "strip-132", "rebuild-254613",
            "rebuild-524361", "rebuild-546132", "prefix-relocation",
            "simples-coincide", "simples-construction", "inflation-rules",
            "deflation-uniqueness", "cross-count",
            "first-not-one-from-full", "gf-263514-schroder",
            "kernel-254613-vanishes", "kernel-524361-vanishes",
            "kernel-root-closed", "kernel-root-product", "lead-254613-functional",
            "lead-4132-closed", "lead-4132-first-not-one-closed",
            "lead-4132-functional", "lead-524361-functional",
            "lead-546132-functional", "schroder-cubic",
            "schroder-from-kernel-root", "simples-gf-two-ways",
            "simples-gf-vs-enumeration", "skew-decomposable-split",
            "stat132-ending-max-enum", "stat132-system", "sum-decomposable-split",
        ]

    def test_run_check_budgets(self):
        def budget(check_id, **kwargs):
            report = run_check(check_id, **kwargs)
            assert report.passed and report.check_id == check_id
            return report.max_n

        assert budget("top-values", max_n=5, order=12, count_n=10) == 5
        assert budget("deflation-uniqueness", max_n=8, order=12, count_n=10) == 7
        assert budget("deflation-uniqueness", max_n=5, order=12, count_n=10) == 5
        assert budget("cross-count", max_n=5, order=12, count_n=6) == 6
        # enumeration-backed identities at min(order, max_n)
        assert budget("lead-4132-closed", max_n=5, order=9, count_n=10) == 5
        assert budget("lead-4132-closed", max_n=8, order=6, count_n=10) == 6
        # closed-form identities at order
        assert budget("schroder-cubic", max_n=5, order=9, count_n=10) == 9

    @pytest.mark.parametrize("identity_id", sorted(IDENTITIES))
    def test_each_mutation_fails_through_run_check(self, monkeypatch, identity_id):
        # the lowest budgets at which every mutation is still caught
        budget = 6 if IDENTITIES[identity_id].enum_backed else 3
        check_identity = series.check_identity
        monkeypatch.setattr(verification, "check_identity",
                            lambda iid, order: check_identity(iid, order, corrupt=True))
        report = run_check(identity_id, budget, budget, count_n=budget)
        (ex, et, eu), lhs, rhs = check_identity(identity_id, budget, corrupt=True)
        assert report.max_n == budget and not report.passed
        assert report.witnesses == [
            ((), f"coefficient of x^{ex} t^{et} u^{eu}: lhs {lhs} != rhs {rhs}")
        ]

    def test_each_check_builds_each_class_once(self, monkeypatch):
        # from an empty level cache, each level build (one
        # _insertion_rules call) is the only one of its basis in the check:
        # a request past the cached levels would grow them again from the root
        enum_backed = [i for i, spec in IDENTITIES.items() if spec.enum_backed]
        for check_id in [*verification.STRUCTURAL_CHECKS, "cross-count", *enum_backed]:
            monkeypatch.setattr(enumeration, "_LEVELS_CACHE", {})
            with calls_to(enumeration, "_insertion_rules") as calls:
                assert run_check(check_id, 7, 7, count_n=7).passed
            builds = Counter(patterns for patterns, in calls)
            assert builds or check_id == "deflation-uniqueness", check_id
            assert max(builds.values(), default=0) <= 1, (check_id, builds)

    def test_run_all_continues_no_cached_prefix(self, monkeypatch):
        # a request past a class's cached levels grows their masks again
        # from the root, so each class must be asked its deepest length first
        real = enumeration.class_levels
        continued = []

        def spy(basis, max_n, **kwargs):
            cached = len(enumeration._LEVELS_CACHE.get(basis.patterns, [[()]]))
            if 1 < cached <= max_n:
                continued.append((basis.key, cached - 1, max_n))
            return real(basis, max_n, **kwargs)

        monkeypatch.setattr(enumeration, "_LEVELS_CACHE", {})
        for module in (enumeration, series, verification):
            monkeypatch.setattr(module, "class_levels", spy)
        assert all(r.passed for r in run_all(6, 8, count_n=6))
        assert continued == []

    def test_run_all_small(self):
        reports = run_all(max_n=5, order=6, count_n=6)
        assert all(r.passed for r in reports)
        assert len(reports) == len(check_ids())

    def test_report_json_schema(self, capsys):
        from permlab.cli import main

        assert main(["verify", "--id", "top-values", "--max-n", "4", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["checkId"] == "top-values"
        assert data[0]["status"] == "pass"
        assert data[0]["witnesses"] == []
        assert "elapsedMillis" in data[0]

    def test_vacuous_budgets(self):
        assert check_top_values(0).passed
        assert check_rebuild_254613(0).passed

    def test_run_all_vacuous(self):
        reports = run_all(max_n=0, order=1, count_n=0)
        assert all(r.passed for r in reports)
