"""Tests for class enumeration, refined counting, and simples generation.

Known sequences (large/little Schroder, Catalan, the 4132-class counts)
were derived independently from their generating functions and frozen;
small lengths are checked against the brute-force S_n filter.
"""

import json
import os
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import brute_class, count_pools
from permlab import enumeration
from permlab.enumeration import (
    CapacityError,
    PatternBasis,
    class_levels,
    count_class,
    enumerate_class,
    enumerate_simples,
    refined_count,
    simples_by_insertion,
    _BLOCKED_SLOTS,
    _NEW_SLOT_RULES,
    _child_masks,
    _extend_level,
    _new_slot_search,
    _slot_filter,
)
from permlab.perms import (
    avoids_all,
    is_simple,
    occurs_with_new_max,
    parse_permutation,
    standardize,
)

P = parse_permutation

SCHRODER = [1, 1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
A033321 = [1, 1, 2, 6, 21, 79, 311, 1265, 5275, 22431, 96900]
NEAR_MISS = [1, 1, 2, 6, 22, 90, 395, 1823]

SCHRODER_TAUS = ["254613", "524361", "546132", "263514"]


class TestBasis:
    def test_normalization_drops_dominated(self):
        b = PatternBasis([P("2143"), P("21435"), P("2143")])
        assert b.patterns == (P("2143"),)

    def test_canonical_order(self):
        b = PatternBasis.from_text("54321,3142,2143")
        assert b.patterns == (P("2143"), P("3142"), P("54321"))

    def test_subpattern_wins_over_superpattern(self):
        # 2143 and 3142 both contain 132, so only 132 survives
        b = PatternBasis.from_text("3142,2143,132")
        assert b.patterns == (P("132"),)

    def test_mixed_token_rejected(self):
        with pytest.raises(ValueError, match="digit string"):
            PatternBasis.from_text("214 3,3142")

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            PatternBasis([()])

    def test_comma_splits_into_digit_string_patterns(self):
        b = PatternBasis.from_text("321,1234")
        assert b.patterns == (P("321"), P("1234"))

    def test_each_token_validated(self):
        with pytest.raises(ValueError, match="missing value 3"):
            PatternBasis.from_text("214,3142")

    def test_rejects_non_permutation_token(self):
        with pytest.raises(ValueError, match="duplicate value"):
            PatternBasis.from_text("2143,3142,254614")


class TestEnumerate:
    def test_no_restriction_at_small_length(self):
        got = enumerate_class(PatternBasis.from_text("2143,3142"), 3)
        assert len(got) == 6

    def test_single_short_pattern(self):
        assert enumerate_class(PatternBasis.from_text("12"), 4) == [P("4321")]
        assert count_class(PatternBasis.from_text("12"), 4) == [1, 1, 1, 1, 1]

    def test_length_one(self):
        assert enumerate_class(PatternBasis.from_text("2143"), 1) == [(1,)]

    def test_matches_brute_force(self):
        bases = [
            "2143,3142,254613", "2143,3142,524361", "2143,3142,546132",
            "2143,3142,263514", "2143,3142,4132", "132", "2413,3142",
        ]
        for text in bases:
            basis = PatternBasis.from_text(text)
            for n in range(7):
                assert enumerate_class(basis, n) == brute_class(basis.patterns, n)

    def test_full_complement_check(self):
        # every non-member of S_n fails avoids_all; the 4132 class to n = 8
        # is the oracle for strip-132's membership lookup in its levels
        from helpers import all_perms

        for text, top in [("2143,3142,254613", 7), ("2143,3142,4132", 8)]:
            basis = PatternBasis.from_text(text)
            for n in range(top + 1):
                members = set(enumerate_class(basis, n))
                for p in all_perms(n):
                    assert (p in members) == avoids_all(p, basis.patterns)

    def test_deletion_closed(self):
        basis = PatternBasis.from_text("2143,3142,263514")
        levels = class_levels(basis, 7)
        for n in range(1, 8):
            below = set(levels[n - 1])
            for p in levels[n]:
                i = p.index(n)
                assert standardize(p[:i] + p[i + 1:]) in below

    def test_counts_match_lengths(self):
        basis = PatternBasis.from_text("2143,3142,546132")
        counts = count_class(basis, 7)
        for n in range(8):
            assert counts[n] == len(enumerate_class(basis, n))

    def test_generic_and_fast_checkers_agree(self):
        bases = ["2143,3142,4132", "132", "2143,3142,615243",
                 "2143,3142,645312", "2143,3142,246135", "1",
                 *(f"2143,3142,{t}" for t in SCHRODER_TAUS)]
        for text in bases:
            basis = PatternBasis.from_text(text)
            level = [()]
            for n in range(1, 8):
                fast = _extend_level(level, basis.patterns)
                slow = _extend_level(level, basis.patterns, generic_only=True)
                assert fast == slow, (text, n)
                level = fast

    def test_parallel_matches_sequential(self):
        from permlab import enumeration

        # Erdos-Szekeres: every permutation of length 10 has 1234 or 4321,
        # so the shards of that class run into empty levels
        for text, max_n in [("2413,3142", 8), ("2143,3142,263514", 8), ("1234,4321", 11)]:
            basis = PatternBasis.from_text(text)
            enumeration._LEVELS_CACHE.pop(basis.patterns, None)
            seq = class_levels(basis, max_n)
            enumeration._LEVELS_CACHE.pop(basis.patterns, None)
            par = class_levels(basis, max_n, parallelism=2)
            # levels 5 and up are built from at least 8 parents, so in the pool
            assert len(par) == len(seq) == max_n + 1, text
            for n, (got, want) in enumerate(zip(par, seq)):
                assert got == want, (text, n)
        assert par[10] == par[11] == []

    def test_parallel_continues_cached_serial_prefix(self):
        from permlab import enumeration

        basis = PatternBasis.from_text("2143,3142,263514")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        seq = class_levels(basis, 8)
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        class_levels(basis, 5)
        par = class_levels(basis, 8, parallelism=2)
        assert len(par) == len(seq)
        for n, (got, want) in enumerate(zip(par, seq)):
            assert got == want, n

    def test_one_pool_per_parallel_call(self, monkeypatch):
        from permlab import enumeration

        started = count_pools(monkeypatch)
        basis = PatternBasis.from_text("2143,3142,254613")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        levels = class_levels(basis, 9, parallelism=2)
        assert [len(level) for level in levels] == SCHRODER[:10]
        assert started == [2]
        class_levels(basis, 9, parallelism=2)  # served from the cache
        assert started == [2]

    def test_one_pool_per_parallel_count(self, monkeypatch):
        started = count_pools(monkeypatch)
        basis = PatternBasis.from_text("2143,3142,254613")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        assert count_class(basis, 9, parallelism=2) == SCHRODER[:10]
        assert started == [2]
        assert basis.patterns not in enumeration._LEVELS_CACHE

    def test_capacity_error(self):
        from permlab import enumeration

        basis = PatternBasis.from_text("654321")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        with pytest.raises(CapacityError) as exc:
            class_levels(basis, 6, cap=100)
        n = exc.value.n
        assert n <= 6
        # building stopped after the parent that took the level past the
        # cap, and the partial level never entered the cache
        assert 100 < exc.value.size <= 100 + n
        assert len(enumeration._LEVELS_CACHE[basis.patterns]) == n
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)

    def test_capacity_error_parallel(self):
        from permlab import enumeration

        basis = PatternBasis.from_text("654321")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        with pytest.raises(CapacityError) as exc:
            class_levels(basis, 6, parallelism=2, cap=50)
        # 24 parents in two chunks; each chunk stops once it passes the cap
        assert exc.value.n == 5
        assert 50 < exc.value.size <= 2 * (50 + 5)
        assert len(enumeration._LEVELS_CACHE[basis.patterns]) == 5
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)

    @pytest.mark.parametrize("cap, n", [(100, 5), (500, 6)])
    def test_capacity_error_across_shards(self, cap, n):
        from permlab import enumeration

        # the 24 parents of length 4 go to two shards of 12.  With cap 100
        # each shard's level 5 (60) stays under the cap but the sum (120)
        # does not; with cap 500 the same happens one level deeper (719)
        basis = PatternBasis.from_text("654321")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        complete = class_levels(basis, n - 1)
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        with pytest.raises(CapacityError) as exc:
            class_levels(basis, 8, parallelism=2, cap=cap)
        assert exc.value.n == n
        assert cap < exc.value.size <= 2 * (cap + n)
        # no partial or deeper level entered the cache
        assert enumeration._LEVELS_CACHE[basis.patterns] == complete
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)

    def test_negative_max_n_rejected_before_cache_read(self):
        basis = PatternBasis.from_text("132")
        assert count_class(basis, 4) == CATALAN[:5]
        with pytest.raises(ValueError, match="max_n must be >= 0"):
            count_class(basis, -1)

    @pytest.mark.parametrize("value", [0, -3, (os.cpu_count() or 1) + 1])
    def test_parallelism_out_of_range_rejected(self, monkeypatch, value):
        from permlab import enumeration

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", no_pool)
        basis = PatternBasis.from_text("4321")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        calls = [
            lambda: class_levels(basis, 9, parallelism=value),
            lambda: enumerate_class(basis, 9, parallelism=value),
            lambda: count_class(basis, 9, parallelism=value),
            lambda: refined_count(basis, 9, ["bond"], parallelism=value),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"between 1 and {os.cpu_count() or 1}"):
                call()
        assert basis.patterns not in enumeration._LEVELS_CACHE


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
def test_blocked_slot_masks_match_pinned_search(parent_list):
    # exact for any parent, not only for members of the class
    parent = tuple(parent_list)
    for pattern, blocked_slots in _BLOCKED_SLOTS.items():
        mask = blocked_slots(parent)
        assert mask >> (len(parent) + 1) == 0
        for slot in range(len(parent) + 1):
            assert bool(mask >> slot & 1) == occurs_with_new_max(parent, slot, pattern), (
                pattern, parent, slot)


# half the draws are a pattern with its own blocked-slot rule; a random
# length-4 pattern alone would be 2143 only one time in 24
PATTERNS = st.one_of(
    st.sampled_from(sorted(_BLOCKED_SLOTS)),
    st.integers(1, 6).flatmap(lambda k: st.permutations(list(range(1, k + 1)))),
).map(tuple)
BASES = st.lists(PATTERNS, min_size=1, max_size=3).map(PatternBasis)
PARENTS = st.integers(0, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1))))


def _with_free_slots(parents):
    """Draws a parent and an arbitrary mask of its slots."""
    return parents.flatmap(lambda p: st.tuples(
        st.just(tuple(p)), st.integers(0, (2 << len(p)) - 1)))


@settings(max_examples=300, deadline=None)
@given(BASES, PARENTS)
@example(PatternBasis.from_text("2143,3142,254613"), [2, 3, 1, 5, 4])
def test_children_inherit_exact_masks(basis, parent_list):
    # exact for any parent, so the parent need not avoid the basis
    parent = tuple(parent_list)
    free_slots = _slot_filter(basis.patterns)
    child_masks = _child_masks(basis.patterns)
    n = len(parent)
    free = free_slots(parent)
    got = child_masks(parent, ~free & ((2 << n) - 1))
    assert [s for s, _ in got] == [s for s in range(n + 1) if free >> s & 1]
    for s, mask in got:
        child = parent[:s] + (n + 1,) + parent[s:]
        assert mask == ~free_slots(child) & ((4 << n) - 1), (basis, child)


def _new_slots_by_brute_force(pattern, parent, free):
    """Per free slot s, the child slots t where n+2 makes an occurrence with n+1."""
    n, k = len(parent), len(pattern)
    table = [0] * (n + 1)
    for s in range(n + 1):
        if not free >> s & 1:
            continue
        child = parent[:s] + (n + 1,) + parent[s:]
        for t in range(n + 2):
            host = child[:t] + (n + 2,) + child[t:]
            pinned = (host.index(n + 1), host.index(n + 2))
            others = [i for i in range(n + 2) if i not in pinned]
            if any(standardize([host[i] for i in sorted(sub + pinned)]) == pattern
                   for sub in combinations(others, k - 2)):
                table[s] |= 1 << t
    return table


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6).flatmap(lambda k: st.permutations(list(range(1, k + 1)))).map(tuple),
       _with_free_slots(st.integers(0, 7).flatmap(
           lambda n: st.permutations(list(range(1, n + 1))))))
@example((2, 5, 4, 6, 1, 3), ((2, 3, 1, 5, 4), 0b111111))
@example((2, 4, 6, 1, 3, 5), ((3, 1, 2, 5, 4), 0b110101))  # X = 2, Y = 4
def test_new_slot_search_matches_brute_force(pattern, parent_and_free):
    parent, free = parent_and_free
    assert _new_slot_search(pattern)(parent, free) == _new_slots_by_brute_force(
        pattern, parent, free)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_NEW_SLOT_RULES)), _with_free_slots(PARENTS))
def test_new_slot_rules_match_generic_search(pattern, parent_and_free):
    # each closed rule has the generic tau'' search as its oracle, on any
    # parent and any free slots; the rules are exact at every slot
    parent, free = parent_and_free
    rule = _NEW_SLOT_RULES[pattern](parent, free)
    generic = _new_slot_search(pattern)(parent, free)
    for s in range(len(parent) + 1):
        if free >> s & 1:
            assert rule[s] == generic[s], (pattern, parent, s)


def test_count_searches_only_its_starting_nodes(monkeypatch):
    # a count starts from the root, whatever levels the cache holds, and
    # below it every mask comes from the parent's tables
    calls = []
    real_search = enumeration.pinned_max_search

    def counting_search(pattern):
        search = real_search(pattern)

        def counted(parent, slots):
            calls.append(parent)
            return search(parent, slots)

        return counted

    monkeypatch.setattr(enumeration, "pinned_max_search", counting_search)
    real_4132 = _BLOCKED_SLOTS[(4, 1, 3, 2)]
    monkeypatch.setitem(_BLOCKED_SLOTS, (4, 1, 3, 2),
                        lambda parent: calls.append(parent) or real_4132(parent))
    for text, want in [("2143,3142,254613", SCHRODER[:9]), ("2143,3142,4132", A033321[:9])]:
        basis = PatternBasis.from_text(text)
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        calls.clear()
        assert count_class(basis, 8) == want
        assert calls == [()]
        class_levels(basis, 4)
        calls.clear()
        assert count_class(basis, 8) == want
        assert calls == [()]
        enumeration._LEVELS_CACHE.pop(basis.patterns)


def _level_sizes(basis, max_n):
    """The oracle: level lengths from ``class_levels``, built from a cold cache."""
    enumeration._LEVELS_CACHE.pop(basis.patterns, None)
    sizes = [len(level) for level in class_levels(basis, max_n)]
    enumeration._LEVELS_CACHE.pop(basis.patterns)
    return sizes


@settings(max_examples=200, deadline=None)
@given(BASES, st.integers(0, 7), st.integers(0, 7))
def test_depth_first_count_matches_levels(basis, max_n, warm_n):
    cache = enumeration._LEVELS_CACHE
    want = _level_sizes(basis, max_n)
    assert count_class(basis, max_n) == want
    assert basis.patterns not in cache  # a cold count caches no level
    # below a cached prefix, shorter than max_n or not
    class_levels(basis, warm_n)
    assert count_class(basis, max_n) == want
    assert len(cache.pop(basis.patterns)) == warm_n + 1


@settings(max_examples=30, deadline=None)
@given(BASES, st.integers(6, 7))  # deep enough that larger classes reach the pool
@example(PatternBasis.from_text("1234,4321"), 7)  # 86 parents at n = 5 go to the pool
def test_parallel_depth_first_count_matches_levels(basis, max_n):
    want = _level_sizes(basis, max_n)
    assert count_class(basis, max_n, parallelism=2) == want
    assert basis.patterns not in enumeration._LEVELS_CACHE
    class_levels(basis, 3)
    assert count_class(basis, max_n, parallelism=2) == want
    assert len(enumeration._LEVELS_CACHE.pop(basis.patterns)) == 4


@pytest.mark.parametrize("text", [
    *(f"2143,3142,{tau}" for tau in SCHRODER_TAUS), "2143,3142,4132", "2143,3142",
])
def test_count_reads_and_changes_no_cached_level(text):
    basis = PatternBasis.from_text(text)
    want = _level_sizes(basis, 9)
    cache = enumeration._LEVELS_CACHE
    try:
        for warm_n in range(8):
            class_levels(basis, warm_n)
            before = {key: [level[:] for level in levels] for key, levels in cache.items()}
            for max_n in range(10):
                assert count_class(basis, max_n) == want[: max_n + 1], (warm_n, max_n)
            assert count_class(basis, 9, parallelism=2) == want, warm_n
            assert cache == before
    finally:
        cache.pop(basis.patterns, None)


def _generic_level_sizes(basis, max_n):
    """The oracle for the inherited masks: levels grown slot by slot."""
    level, sizes = [()], [1]
    for _ in range(max_n):
        level = _extend_level(level, basis.patterns, generic_only=True)
        sizes.append(len(level))
    return sizes


@pytest.mark.parametrize("text", [
    *(f"2143,3142,{tau}" for tau in SCHRODER_TAUS),
    "2143,3142,246135", "2143,3142,4132", "2143,3142", "132",
    "2143,3142,4132,254613", "21,1234", "12,4321",
])
def test_depth_first_count_matches_generic_levels(text):
    basis = PatternBasis.from_text(text)
    want = _generic_level_sizes(basis, 7)
    assert count_class(basis, 7) == want
    assert count_class(basis, 7, parallelism=2) == want


class TestKnownCounts:
    def test_schroder_classes_to_eight(self):
        for tau in SCHRODER_TAUS:
            basis = PatternBasis.from_text(f"2143,3142,{tau}")
            assert count_class(basis, 8) == SCHRODER[:9], tau

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_schroder_classes_to_ten(self, parallelism):
        for tau in SCHRODER_TAUS:
            basis = PatternBasis.from_text(f"2143,3142,{tau}")
            assert count_class(basis, 10, parallelism=parallelism) == SCHRODER, tau

    def test_burstein_pantone_class(self):
        # the case the paper credits to Burstein and Pantone
        assert count_class(PatternBasis.from_text("2143,3142,246135"), 10) == SCHRODER

    def test_near_miss(self):
        assert count_class(PatternBasis.from_text("2143,3142"), 7) == NEAR_MISS

    def test_catalan(self):
        assert count_class(PatternBasis.from_text("132"), 9) == CATALAN[:10]

    def test_4132_class(self):
        assert count_class(PatternBasis.from_text("2143,3142,4132"), 8) == A033321[:9]

    def test_classic_schroder_class(self):
        assert count_class(PatternBasis.from_text("2413,3142"), 8) == SCHRODER[:9]


class TestRefinedCounts:
    def test_bond_lrmin_over_132_ending_max(self):
        basis = PatternBasis.from_text("132")
        table = refined_count(basis, 4, ["bond", "lr-min"],
                              "last-entry-equals-length")
        assert table.get(2, (1, 1)) == 1  # only 12

    def test_leading_maxima_identity_row(self):
        basis = PatternBasis.from_text("2143,3142,4132")
        table = refined_count(basis, 4, ["leading-maxima"])
        assert table.get(3, (3,)) == 1  # only 123 has all leading maxima

    def test_totals_match_plain_counts(self):
        basis = PatternBasis.from_text("2143,3142,254613")
        table = refined_count(basis, 6, ["leading-maxima", "bond"])
        counts = count_class(basis, 6)
        for n in range(7):
            assert table.total(n) == counts[n]

    def test_stat_values_attainable(self):
        basis = PatternBasis.from_text("2143,3142")
        table = refined_count(basis, 6, ["leading-maxima", "bond", "lr-min"])
        for n, (ell, bond, lrmin), _ in table.rows():
            assert 0 <= ell <= n
            assert 0 <= bond <= max(0, n - 1)
            assert 0 <= lrmin <= n

    def test_unknown_ids_rejected(self):
        basis = PatternBasis.from_text("132")
        with pytest.raises(ValueError, match="unknown statistic"):
            refined_count(basis, 3, ["descents"])
        with pytest.raises(ValueError, match="unknown filter"):
            refined_count(basis, 3, ["bond"], "last-is-max")


class TestExport:
    def test_csv_plain_counts(self, capsys):
        from permlab.cli import main

        code = main(["stat", "--basis", "2413,3142", "--max-n", "3", "--stats", "",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == ["n,count", "0,1", "1,1", "2,2", "3,6"]

    def test_empty_table_header_only(self, capsys):
        from permlab.cli import main

        # the only member of length 0 is the empty permutation, which the
        # filter drops
        code = main(["stat", "--basis", "132", "--max-n", "0", "--stats", "bond",
                     "--filter", "first-entry-not-one", "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == "n,bond,count\n"

    def test_json_round_trip(self):
        basis = PatternBasis.from_text("132")
        table = refined_count(basis, 5, ["bond", "lr-min"], "first-entry-not-one")
        data = json.loads(table.to_json())
        assert data["basis"] == ["132"]
        assert data["maxLength"] == 5
        assert data["stats"] == ["bond", "lr-min"]
        assert data["filter"] == "first-entry-not-one"
        assert all(set(rec) == {"n", "bond", "lr-min", "count"} for rec in data["counts"])
        counts = {(rec["n"], (rec["bond"], rec["lr-min"])): rec["count"]
                  for rec in data["counts"]}
        assert counts == table.counts

    def test_unknown_format(self, capsys):
        from permlab.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["stat", "--basis", "132", "--max-n", "2", "--stats", "bond",
                  "--format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_json_is_deterministic(self):
        basis = PatternBasis.from_text("132")
        a = refined_count(basis, 5, ["bond"]).to_json()
        b = refined_count(basis, 5, ["bond"]).to_json()
        assert a == b
        json.loads(a)


class TestSimples:
    def test_simples_of_4132_class(self):
        basis = PatternBasis.from_text("2143,3142,4132")
        assert enumerate_simples(basis, 4) == [P("2413")]
        assert enumerate_simples(basis, 3) == []

    def test_no_simples_of_length_three_any_basis(self):
        assert enumerate_simples(PatternBasis.from_text("2143,3142"), 3) == []

    def test_insertion_construction_base_case(self):
        assert simples_by_insertion(4) == [P("2413")]

    def test_insertion_construction_below_four_rejected(self):
        with pytest.raises(ValueError):
            simples_by_insertion(3)

    def test_insertion_matches_enumeration(self):
        basis = PatternBasis.from_text("2143,3142,4132")
        for n in range(4, 10):
            assert simples_by_insertion(n) == enumerate_simples(basis, n)

    def test_construction_output_is_simple_and_in_class(self):
        basis = PatternBasis.from_text("2143,3142,4132")
        for n in range(4, 8):
            for sigma in simples_by_insertion(n):
                assert is_simple(sigma)
                assert avoids_all(sigma, basis.patterns)

    def test_worked_example_with_four_insertions(self):
        # 132-avoider 84536127 with insertions below rows 2, 3, 5, 6
        sigma = (2, 4, 7, 9, 12, 6, 8, 5, 10, 1, 3, 11)
        assert sigma in simples_by_insertion(12)
        assert is_simple(sigma)
        assert avoids_all(sigma, PatternBasis.from_text("2143,3142,4132").patterns)
