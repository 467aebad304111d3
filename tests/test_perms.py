"""Tests for the core permutation operations.

Expected values were computed with the brute-force oracles in
helpers.py (subsequence scans, exhaustive window scans) and are frozen
here; a sweep at small lengths keeps the fast paths honest against the
oracles.
"""

import gc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Interval,
    all_perms,
    brute_contains,
    brute_decompositions,
    brute_length3_patterns,
    intervals,
    skew_components,
    sum_components,
)
from permlab.perms import (
    ParseError,
    avoids_all,
    bond_count,
    contains,
    deflate,
    delete_lr_maxima,
    direct_sum,
    extraction,
    horizontal_gaps,
    identity,
    inflate,
    is_simple,
    is_skew_decomposable,
    is_sum_decomposable,
    leading_maxima_count,
    lr_maxima,
    lr_minima,
    occurs_with_new_max,
    parse_permutation,
    perm,
    perm_to_text,
    skew_sum,
    standardize,
    strip_leading_maxima,
)

P = parse_permutation


class TestParse:
    def test_digit_string(self):
        assert P("2413") == (2, 4, 1, 3)

    def test_comma_list(self):
        assert P("2,4,1,3") == (2, 4, 1, 3)

    def test_empty_is_empty_permutation(self):
        assert P("") == ()

    def test_long_comma_list(self):
        assert P("10,1,2,3,4,5,6,7,8,9") == (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_duplicate_value(self):
        with pytest.raises(ParseError, match="duplicate value '4'"):
            P("2414")

    def test_missing_value(self):
        with pytest.raises(ParseError, match="missing value 2"):
            P("13")

    def test_non_positive(self):
        with pytest.raises(ParseError, match="non-positive value '-1'"):
            P("-1,2,1")
        with pytest.raises(ParseError, match="non-positive value '0'"):
            P("102")

    def test_malformed_token(self):
        with pytest.raises(ParseError, match="malformed token 'x'"):
            P("1,x,2")

    def test_round_trip(self):
        for text in ["", "1", "2413", "10,1,2,3,4,5,6,7,8,9"]:
            assert perm_to_text(P(text)) == text

    def test_perm_validates(self):
        with pytest.raises(ParseError):
            perm([1, 1])


class TestContains:
    def test_frozen_examples(self):
        assert contains(P("315462"), P("3142")) is True
        assert contains(P("123456"), P("2143")) is False
        assert contains(P("243156"), P("2143")) is False
        assert contains(P("263514"), P("263514")) is True

    def test_empty_pattern_in_everything(self):
        assert contains((), ())
        assert contains(P("21"), ())

    def test_against_oracle_exhaustive(self):
        pats = [P("123"), P("132"), P("213"), P("231"), P("312"), P("321"),
                P("2143"), P("3142"), P("4132"), P("2413")]
        for n in range(0, 6):
            for host in all_perms(n):
                for pat in pats:
                    assert contains(host, pat) == brute_contains(host, pat), (host, pat)

    def test_length_3_exhaustive(self):
        # the O(n) scans for all six patterns on every host up to length 8
        pats = list(all_perms(3))
        for n in range(0, 9):
            for host in all_perms(n):
                present = brute_length3_patterns(host)
                for pat in pats:
                    assert contains(host, pat) == (pat in present), (host, pat)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-40, 40), unique=True, max_size=12),
           st.permutations([1, 2, 3]))
    def test_length_3_on_unstandardized_hosts(self, host, pat_list):
        # negative values and gaps: only relative order may matter
        pat = tuple(pat_list)
        want = brute_contains(tuple(host), pat)
        assert contains(host, pat) == want
        assert contains(tuple(host), pat) == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), unique=True, max_size=12))
    def test_length_3_reads_only_relative_order(self, host):
        # strip-132 tests the increasing prefix's rest without standardizing it
        for pat in all_perms(3):
            assert contains(host, pat) == contains(standardize(host), pat), (host, pat)

    def test_avoids_all(self):
        basis = [P("2143"), P("3142"), P("254613")]
        assert avoids_all(P("243156"), basis) is True
        assert avoids_all(P("3142"), [P("2143"), P("3142")]) is False
        assert avoids_all((), basis) is True

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 5))))
    def test_monotone_under_extension(self, host_list, pat_list):
        host, pat = tuple(host_list), tuple(pat_list)
        if not contains(host, pat):
            return
        assert contains(direct_sum(host, (1,)), pat)
        assert contains(direct_sum((1,), host), pat)
        assert contains(skew_sum(host, (1,)), pat)

    def test_monotone_exhaustive_small(self):
        pats = [P("21"), P("132"), P("2143")]
        for n in range(1, 6):
            for host in all_perms(n):
                for pat in pats:
                    if not contains(host, pat):
                        continue
                    for rho in [(1,), (2, 1)]:
                        assert contains(direct_sum(host, rho), pat)
                        assert contains(direct_sum(rho, host), pat)
                        assert contains(skew_sum(host, rho), pat)

    def test_occurs_with_new_max_matches_containment(self):
        # child = parent with new max at slot; parent avoiding => child
        # containment is exactly "occurrence through the new max".
        pats = [P("132"), P("2143"), P("3142"), P("4132")]
        for n in range(0, 6):
            for parent in all_perms(n):
                for slot in range(n + 1):
                    child = parent[:slot] + (n + 1,) + parent[slot:]
                    for pat in pats:
                        if brute_contains(parent, pat):
                            continue
                        assert occurs_with_new_max(parent, slot, pat) == brute_contains(
                            child, pat
                        ), (parent, slot, pat)


class TestStatistics:
    def test_lr_maxima(self):
        assert lr_maxima(P("243156")) == (1, 2, 5, 6)
        assert lr_maxima(P("123")) == (1, 2, 3)
        assert lr_maxima(P("321")) == (1,)
        assert lr_maxima(()) == ()

    def test_leading_maxima_count(self):
        assert leading_maxima_count(P("12345")) == 5
        assert leading_maxima_count(P("243156")) == 2
        assert leading_maxima_count(P("321")) == 1
        assert leading_maxima_count(()) == 0

    def test_horizontal_gaps(self):
        assert horizontal_gaps(P("243156")) == (2,)
        assert horizontal_gaps(P("1234")) == ()
        assert horizontal_gaps(P("2413")) == (2,)

    def test_lr_minima(self):
        assert lr_minima(P("12")) == (1,)
        assert lr_minima(P("321")) == (1, 2, 3)
        assert lr_minima(P("2413")) == (1, 3)

    def test_bond_count(self):
        assert bond_count(P("12")) == 1
        assert bond_count(P("2413")) == 0
        assert bond_count(P("546132")) == 2
        assert bond_count(()) == 0
        assert bond_count((1,)) == 0

    def test_last_position_never_gap(self):
        for n in range(1, 6):
            for p in all_perms(n):
                assert n not in horizontal_gaps(p)


class TestComposition:
    def test_sums(self):
        assert direct_sum((1,), (1,)) == (1, 2)
        assert skew_sum((1,), P("231")) == (4, 2, 3, 1)
        assert direct_sum(P("12"), (1,)) == (1, 2, 3)
        assert direct_sum((), P("21")) == (2, 1)
        assert skew_sum(P("21"), ()) == (2, 1)

    def test_extraction_frozen(self):
        assert extraction((1,), P("231"), 1) == (2, 4, 3, 1)
        assert direct_sum(extraction((1,), P("231"), 1), P("12")) == P("243156")
        assert extraction((1,), P("12"), 1) == (1, 3, 2)

    def test_extraction_zero_is_skew_sum(self):
        for n in range(0, 5):
            for b in all_perms(n):
                assert extraction((1,), b, 0) == skew_sum((1,), b)

    def test_extraction_errors(self):
        with pytest.raises(ValueError):
            extraction((1,), P("231"), 3)  # only 2 leading maxima
        with pytest.raises(ValueError):
            extraction((), P("12"), 0)

    def test_extraction_length_and_leading_maxima(self):
        for n in range(1, 7):
            for b in all_perms(n):
                top = min(leading_maxima_count(b), n - 1)
                for i in range(1, top + 1):
                    r = extraction((1,), b, i)
                    assert len(r) == n + 1
                    assert leading_maxima_count(r) == i + 1


class TestIntervalsAndSimplicity:
    def test_intervals_frozen(self):
        assert Interval(3, 5, 4, 6) in intervals(P("315462"))
        assert intervals(P("2413")) == []
        assert intervals(P("123")) == [Interval(1, 2, 1, 2), Interval(2, 3, 2, 3)]

    def test_is_simple(self):
        assert is_simple(P("3142"))
        assert not is_simple(P("123"))
        assert is_simple((1,))
        assert is_simple(())
        assert is_simple(P("12")) and is_simple(P("21"))

    def test_no_simple_of_length_three(self):
        assert not any(is_simple(p) for p in all_perms(3))

    def test_simple_agrees_with_interval_scan(self):
        for n in range(0, 9):
            for p in all_perms(n):
                assert is_simple(p) == (not intervals(p))

    def test_simple_implies_no_bond(self):
        for n in range(3, 7):
            for p in all_perms(n):
                if is_simple(p):
                    assert bond_count(p) == 0


_SIMPLES_4_TO_6 = [p for n in (4, 5, 6) for p in all_perms(n) if is_simple(p)]


class TestInflateDeflate:
    def test_inflate_frozen(self):
        assert inflate(P("3241"), [P("123"), (1,), P("12"), P("123")]) == P("567489123")
        assert inflate(P("12"), [(1,), (1,)]) == P("12")
        assert inflate(P("21"), [P("12"), (1,)]) == P("231")

    def test_inflate_errors(self):
        with pytest.raises(ValueError, match="blocks"):
            inflate(P("12"), [(1,)])
        with pytest.raises(ValueError, match="nonempty"):
            inflate(P("12"), [(1,), ()])

    def test_deflate_frozen(self):
        assert deflate(P("315462")) == ((3, 1, 4, 2), ((1,), (1,), (2, 1, 3), (1,)))
        assert deflate(P("2413")) == ((2, 4, 1, 3), ((1,), (1,), (1,), (1,)))
        assert deflate(P("123")) == ((1, 2), ((1,), (1, 2)))

    def test_round_trip_exhaustive(self):
        for n in range(1, 9):
            for p in all_perms(n):
                skeleton, blocks = deflate(p)
                assert is_simple(skeleton)
                assert inflate(skeleton, blocks) == p

    def test_deflation_conventions(self):
        for n in range(2, 8):
            for p in all_perms(n):
                skeleton, blocks = deflate(p)
                if skeleton == (1, 2):
                    assert not is_sum_decomposable(blocks[0])
                elif skeleton == (2, 1):
                    assert not is_skew_decomposable(blocks[0])
                else:
                    assert len(skeleton) >= 4


    def test_against_component_oracles_exhaustive(self):
        # sum/skew decomposable: the first component and the rest; otherwise
        # a simple skeleton of length >= 4 that inflates back, which the
        # simple-skeleton theorem makes the unique such decomposition
        assert deflate((1,)) == ((1,), ((1,),))
        for n in range(2, 9):
            for p in all_perms(n):
                d = deflate(p)
                sums, skews = sum_components(p), skew_components(p)
                assert is_sum_decomposable(p) == (len(sums) > 1), p
                assert is_skew_decomposable(p) == (len(skews) > 1), p
                if len(sums) > 1:
                    assert d == ((1, 2), (sums[0], reduce(direct_sum, sums[1:]))), p
                elif len(skews) > 1:
                    assert d == ((2, 1), (skews[0], reduce(skew_sum, skews[1:]))), p
                else:
                    assert len(d.skeleton) >= 4 and is_simple(d.skeleton), p
                    assert inflate(*d) == p

    @settings(max_examples=100, deadline=None)
    @given(st.integers(9, 12).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_against_brute_force_long(self, p_list):
        p = tuple(p_list)
        assert [deflate(p)] == brute_decompositions(p)
        assert is_sum_decomposable(p) == (len(sum_components(p)) > 1)
        assert is_skew_decomposable(p) == (len(skew_components(p)) > 1)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from(_SIMPLES_4_TO_6),
                     st.integers(1, 6).flatmap(lambda k: st.permutations(list(range(1, k + 1))))),
           st.data())
    def test_inflate_against_naive_offsets(self, skeleton_list, data):
        # any skeleton; a simple one of length >= 4 deflates back to its blocks
        skeleton = tuple(skeleton_list)
        blocks = tuple(
            tuple(data.draw(st.integers(1, 4).flatmap(
                lambda m: st.permutations(list(range(1, m + 1))))))
            for _ in skeleton
        )
        sizes = [len(b) for b in blocks]
        want = tuple(
            w + sum(s for u, s in zip(skeleton, sizes) if u < v)
            for v, block in zip(skeleton, blocks)
            for w in block
        )
        assert inflate(skeleton, blocks) == want
        if len(skeleton) >= 4 and is_simple(skeleton):
            assert deflate(want) == (skeleton, blocks)


class TestDeletions:
    def test_strip_leading_maxima(self):
        assert strip_leading_maxima(P("243156")) == P("2134")
        assert strip_leading_maxima(P("123")) == ()
        assert strip_leading_maxima(P("2413")) == P("12")

    def test_delete_lr_maxima(self):
        assert delete_lr_maxima(P("243156")) == P("21")
        assert delete_lr_maxima(P("1234")) == ()
        assert delete_lr_maxima(P("2413")) == P("12")

    def test_standardize(self):
        assert standardize((3, 1, 5, 6)) == (2, 1, 3, 4)
        assert standardize(()) == ()


def test_searches_leave_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            contains((2, 4, 1, 3, 5), (2, 1, 4, 3))
            occurs_with_new_max((2, 4, 1, 3), 2, (2, 1, 4, 3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_identity_helper():
    assert identity(0) == ()
    assert identity(3) == (1, 2, 3)


def test_operations_are_pure():
    p = P("2413")
    lr_maxima(p)
    deflate(p)
    is_simple(p)
    assert p == (2, 4, 1, 3)
