"""Tests for class enumeration, refined counting, and simples generation.

Known sequences (large/little Schroder, Catalan, the 4132-class counts)
were derived independently from their generating functions and frozen;
small lengths are checked against the brute-force S_n filter.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import brute_class, brute_free_slots, count_pools, increasing_run, intervals
from permlab import enumeration
from permlab.enumeration import (
    CapacityError,
    PatternBasis,
    class_levels,
    count_class,
    enumerate_simples,
    refined_count,
    simples_by_insertion,
    _NEW_SLOT_RULES,
    _compile_step,
    _count_subtrees,
    _grow,
    _insertion_rules,
    _new_slot_search,
    _root,
)
from permlab.perms import (
    avoids_all,
    is_simple,
    parse_permutation,
    standardize,
)

P = parse_permutation

SCHRODER = [1, 1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
A033321 = [1, 1, 2, 6, 21, 79, 311, 1265, 5275, 22431, 96900]
NEAR_MISS = [1, 1, 2, 6, 22, 90, 395, 1823]

SCHRODER_TAUS = ["254613", "524361", "546132", "263514"]


def _generic_levels(patterns, max_n):
    """The oracle for the inherited masks: levels grown slot by slot, each sorted."""
    levels = [[()]]
    for n in range(max_n):
        free = [brute_free_slots(parent, patterns) for parent in levels[-1]]
        levels.append(sorted(
            parent[:s] + (n + 1,) + parent[s:]
            for parent, slots in zip(levels[-1], free)
            for s in range(n + 1) if slots >> s & 1
        ))
    return levels


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
        got = class_levels(PatternBasis.from_text("2143,3142"), 3)[3]
        assert len(got) == 6

    def test_single_short_pattern(self):
        assert class_levels(PatternBasis.from_text("12"), 4)[4] == [P("4321")]
        assert count_class(PatternBasis.from_text("12"), 4) == [1, 1, 1, 1, 1]

    def test_length_one(self):
        assert class_levels(PatternBasis.from_text("2143"), 1)[1] == [(1,)]

    def test_matches_brute_force(self):
        bases = [
            "2143,3142,254613", "2143,3142,524361", "2143,3142,546132",
            "2143,3142,263514", "2143,3142,4132", "132", "2413,3142",
        ]
        for text in bases:
            basis = PatternBasis.from_text(text)
            for n in range(7):
                assert class_levels(basis, n)[n] == brute_class(basis.patterns, n)

    def test_full_complement_check(self):
        # every non-member of S_n fails avoids_all; the 4132 class to n = 8
        # is the oracle for strip-132's membership lookup in its levels
        from helpers import all_perms

        for text, top in [("2143,3142,254613", 7), ("2143,3142,4132", 8)]:
            basis = PatternBasis.from_text(text)
            for n in range(top + 1):
                members = set(class_levels(basis, n)[n])
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
            assert counts[n] == len(class_levels(basis, n)[n])

    def test_generic_and_fast_checkers_agree(self):
        bases = ["2143,3142,4132", "132", "2143,3142,615243",
                 "2143,3142,645312", "2143,3142,246135", "1",
                 *(f"2143,3142,{t}" for t in SCHRODER_TAUS)]
        for text in bases:
            basis = PatternBasis.from_text(text)
            enumeration._LEVELS_CACHE.pop(basis.patterns, None)
            fast = class_levels(basis, 7)
            slow = _generic_levels(basis.patterns, 7)
            for n in range(8):
                assert fast[n] == slow[n], (text, n)

    def test_one_pool_per_parallel_count(self, monkeypatch):
        started = count_pools(monkeypatch)
        basis = PatternBasis.from_text("2143,3142,254613")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        assert count_class(basis, 9, parallelism=2) == SCHRODER[:10]
        assert started == [2]
        assert basis.patterns not in enumeration._LEVELS_CACHE

    def test_serial_count_imports_no_pickle(self):
        # a fresh interpreter: this one has loaded whatever earlier tests needed
        code = (
            "import sys\n"
            "from permlab.enumeration import PatternBasis, count_class\n"
            "counts = count_class(PatternBasis.from_text('2143,3142,254613'), 6)\n"
            "print(counts, 'pickle' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(enumeration.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout == f"{SCHRODER[:7]} False\n"

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

    def test_capacity_error_continuing_a_level_past_the_cap(self):
        from permlab import enumeration

        # the cached levels 0-6 (719 members at n = 6) are served as they
        # are under a smaller cap, and a continuation checks the cap on
        # the new level 7 only
        basis = PatternBasis.from_text("654321")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        complete = class_levels(basis, 6)
        assert class_levels(basis, 6, cap=500) == complete
        with pytest.raises(CapacityError) as exc:
            class_levels(basis, 8, cap=500)
        assert exc.value.n == 7
        assert 500 < exc.value.size <= 500 + 7
        assert enumeration._LEVELS_CACHE[basis.patterns] == complete
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        # Erdos-Szekeres: level 10 of this class is empty, so it passes a
        # cap that its cached levels 8 and 9 (1764 members each) do not
        basis = PatternBasis.from_text("1234,4321")
        enumeration._LEVELS_CACHE.pop(basis.patterns, None)
        class_levels(basis, 9)
        assert class_levels(basis, 10, cap=1000)[10] == []
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
            raise AssertionError("workers were started")

        monkeypatch.setattr(enumeration, "_in_workers", no_pool)
        basis = PatternBasis.from_text("4321")
        with pytest.raises(ValueError, match=f"between 1 and {os.cpu_count() or 1}"):
            count_class(basis, 9, parallelism=value)

    def test_parallelism_without_fork_rejected(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert enumeration.check_parallelism(1) == 1
        if (os.cpu_count() or 1) < 2:
            pytest.skip("parallelism 2 is out of range on one CPU")
        basis = PatternBasis.from_text("4321")
        with pytest.raises(ValueError, match="needs os.fork"):
            count_class(basis, 9, parallelism=2)
        assert count_class(basis, 5) == [1, 1, 2, 6, 23, 103]


def _share_or_fail(share):
    """A share's square; "raise" raises ValueError, "die" SIGKILLs the process,
    "sleep" returns after a pause, "lambda" returns what cannot be pickled
    and "capacity" raises an error that pickles but does not unpickle."""
    if share == "raise":
        raise ValueError("share failed")
    if share == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if share == "sleep":
        time.sleep(0.2)
        return share
    if share == "lambda":
        return lambda: None
    if share == "capacity":
        raise CapacityError(5, 101, 100)
    return share * share


class TestInWorkers:
    """``_in_workers``: results in share order, errors raised here, no child left."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_results_in_share_order(self):
        assert enumeration._in_workers(_share_or_fail, [3, "sleep", 1, 2]) == [
            9, "sleep", 1, 4]

    def test_child_error_raised_here(self):
        with pytest.raises(ValueError, match="share failed"):
            enumeration._in_workers(_share_or_fail, [1, "raise", "sleep"])

    def test_killed_child_is_runtime_error(self):
        with pytest.raises(RuntimeError, match="killed by signal 9"):
            enumeration._in_workers(_share_or_fail, [1, "die"])

    def test_unpicklable_result_is_runtime_error(self):
        with pytest.raises(RuntimeError, match="function cannot be pickled"):
            enumeration._in_workers(_share_or_fail, [1, "lambda"])

    def test_unpicklable_error_is_runtime_error(self):
        with pytest.raises(RuntimeError, match="CapacityError cannot be pickled"):
            enumeration._in_workers(_share_or_fail, [1, "capacity"])

    def test_own_error_raised_after_children_reaped(self):
        with pytest.raises(ValueError, match="share failed"):
            enumeration._in_workers(_share_or_fail, ["raise", "sleep", 2])

    def test_first_error_in_share_order(self):
        with pytest.raises(RuntimeError, match="killed"):
            enumeration._in_workers(_share_or_fail, [1, "die", "raise"])


# half the draws are a pattern the paper's classes use, three of them
# with their own rule; a random length-4 pattern alone would be 2143 only
# one time in 24
PATTERNS = st.one_of(
    st.sampled_from([(1, 3, 2), (2, 1, 4, 3), (3, 1, 4, 2), (4, 1, 3, 2)]),
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
    n = len(parent)
    step = _insertion_rules(basis.patterns)
    free = brute_free_slots(parent, basis.patterns)
    node = (parent, ~free & ((2 << n) - 1), increasing_run(parent))
    children = [parent[:s] + (n + 1,) + parent[s:] for s in range(n + 1) if free >> s & 1]
    nodes = []
    step(*node, -1, nodes)
    assert [child for child, _, _ in nodes] == children
    child_free = [brute_free_slots(child, basis.patterns) for child in children]
    for (child, mask, run), slots in zip(nodes, child_free):
        assert mask == ~slots & ((4 << n) - 1), (basis, child)
        assert run == increasing_run(child), child
    # the node above the last level adds its children's free slots from
    # the same masks
    assert _count_subtrees([node], 2, step) == [
        len(children), sum(slots.bit_count() for slots in child_free)]


def test_carried_run_is_the_childs_increasing_run():
    # every parent of length <= 7, every slot: the run each child carries
    for n in range(8):
        for parent in permutations(range(1, n + 1)):
            run = increasing_run(parent)
            for s in range(n + 1):
                child = parent[:s] + (n + 1,) + parent[s:]
                assert increasing_run(child) == (s + 1 if s <= run else run), (parent, s)


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


def _new_slots(block, parent, free):
    """The ``added`` list that a rule's ``(block, helpers)`` source writes for ``parent`` from zeros."""
    body, helpers = block
    namespace: dict = {}
    exec(helpers + "def table(parent, free):\n    n = len(parent)\n    added = [0] * (n + 1)\n"
         + textwrap.indent(body, "    ") + "    return added\n", namespace)
    return namespace["table"](parent, free)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8).flatmap(lambda k: st.permutations(list(range(1, k + 1)))).map(tuple),
       _with_free_slots(st.integers(0, 7).flatmap(
           lambda n: st.permutations(list(range(1, n + 1))))))
# one example per shape of generated search; n+1 before n+2 (x) or after (y)
@example((2, 5, 4, 6, 1, 3), ((2, 3, 1, 5, 4), 0b111111))  # x, X = 1 < Y = 2
@example((2, 4, 6, 1, 3, 5), ((3, 1, 2, 5, 4), 0b110101))  # y, X = 2, Y = 4 = m
@example((2, 6, 3, 5, 1, 4), ((3, 5, 1, 6, 2, 7, 4), 0b11111111))  # y, X = 1 < Y = 2
@example((5, 6, 1, 2, 3, 4), ((2, 4, 1, 3, 6, 7, 5), 0b11011011))  # x, Y = 0
@example((6, 5, 1, 2, 3, 4), ((2, 4, 1, 3, 6, 7, 5), 0b11111111))  # y, Y = 0
@example((1, 2, 3, 4, 5, 6), ((1, 2, 4, 3, 5, 7, 6), 0b11111111))  # x, X = Y = m
@example((2, 1, 3, 4, 6, 5), ((2, 4, 1, 3, 6, 7, 5), 0b11111111))  # y, X = Y = m
@example((1, 2, 5, 6, 3, 4), ((1, 2, 4, 3, 5, 7, 6), 0b11111111))  # x, X = Y < m
@example((3, 1, 6, 5, 2, 4), ((3, 5, 1, 6, 2, 7, 4), 0b11111111))  # y, X = Y < m
@example((1, 2), ((3, 1, 2, 7, 5, 6, 4), 0b10110101))  # x, m = 0
@example((2, 1), ((3, 1, 2, 7, 5, 6, 4), 0b10110101))  # y, m = 0
def test_new_slot_search_matches_brute_force(pattern, parent_and_free):
    parent, free = parent_and_free
    assert _new_slots(_new_slot_search(pattern), parent, free) == _new_slots_by_brute_force(
        pattern, parent, free)


# length 24: 22 loops for the entries before n+1 and n+2, 21 after them,
# and 11 before with 10 after; CPython rejects more than 20 nested blocks
LONG_PATTERNS = [
    tuple(range(1, 25)),
    (24, *range(22, 0, -1), 23),
    (24, 23, *range(1, 23)),
    (*range(1, 11), 23, 11, 24, *range(12, 23)),
]


@pytest.mark.parametrize("pattern", LONG_PATTERNS)
def test_long_pattern_search_matches_brute_force(pattern):
    search = _new_slot_search(pattern)
    rises = list(range(1, 24))
    parents = [(), (2, 1), (3, 1, 4, 2, 5), tuple(range(1, 23)), tuple(rises),
               tuple(rises[:9] + rises[10:11] + rises[9:10] + rises[11:])]
    for parent in parents + [p[::-1] for p in parents]:
        free = (2 << len(parent)) - 1
        assert _new_slots(search, parent, free) == _new_slots_by_brute_force(
            pattern, parent, free), parent


@pytest.mark.parametrize("parallelism", [1, 2])
def test_long_pattern_counts(parallelism):
    basis = PatternBasis([tuple(range(1, 25))])
    assert count_class(basis, 6, parallelism=parallelism) == [1, 1, 2, 6, 24, 120, 720]


@settings(max_examples=100, deadline=None)
@given(BASES, st.integers(0, 7), st.integers(0, 7))
@example(PatternBasis([(1,)]), 7, 0)  # only the root's mask holds the pattern 1
@example(PatternBasis([(1, 2)]), 7, 3)
@example(PatternBasis([(2, 1)]), 7, 5)
@example(PatternBasis([LONG_PATTERNS[3]]), 7, 4)  # all of S_n
def test_levels_match_generic_levels(basis, max_n, warm_n):
    # cold and below a cached prefix of any length; each member's
    # carried mask is its blocked slots
    patterns = basis.patterns
    want = _generic_levels(patterns, max_n)
    cache = enumeration._LEVELS_CACHE
    cache.pop(patterns, None)
    try:
        assert class_levels(basis, max_n) == want
        cache.pop(patterns)
        class_levels(basis, warm_n)
        assert class_levels(basis, max_n) == want
        nodes = _grow(_root(patterns), max_n, _insertion_rules(patterns), last_masks=True)[1]
        assert [p for p, _, _ in nodes] == want[max_n]
        assert nodes == [(p, ~brute_free_slots(p, patterns) & ((2 << max_n) - 1),
                          increasing_run(p)) for p in want[max_n]]
    finally:
        cache.pop(patterns, None)


def test_empty_basis_rejected_before_any_work(monkeypatch):
    def no_rules(patterns):
        raise AssertionError("work started")

    monkeypatch.setattr(enumeration, "_insertion_rules", no_rules)
    basis = PatternBasis([])
    calls = [
        lambda: count_class(basis, 4),
        lambda: count_class(basis, 4, parallelism=2),
        lambda: class_levels(basis, 4),
        lambda: refined_count(basis, 4, ["bond"]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="basis must be nonempty"):
            call()
    assert () not in enumeration._LEVELS_CACHE


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([*sorted(_NEW_SLOT_RULES), (2, 1, 4, 3)]), _with_free_slots(PARENTS))
def test_new_slot_rules_match_generic_search(pattern, parent_and_free):
    # each closed rule, and the step's per-child slots for 2143, has the
    # generated tau'' search as its oracle, on any parent and any free
    # slots; the rules are exact at every slot
    parent, free = parent_and_free
    n = len(parent)
    generic = _new_slot_search(pattern)
    if pattern == (2, 1, 4, 3):
        run = increasing_run(parent)
        rule = [(2 << s) - (2 << run) if s > run else 0 for s in range(n + 1)]
    else:
        rule = _new_slots((_NEW_SLOT_RULES[pattern], ""), parent, free)
    want = _new_slots(generic, parent, free)
    for s in range(n + 1):
        if free >> s & 1:
            assert rule[s] == want[s], (pattern, parent, s)
    # the same through the compiled step, which adds the doubled parent
    # mask; with every slot free that adds nothing
    rule_step = _insertion_rules([pattern])
    generic_step = _compile_step([generic], False)
    for blocked in (~free & ((2 << n) - 1), 0):
        by_rule, by_search = [], []
        rule_step(parent, blocked, increasing_run(parent), -1, by_rule)
        generic_step(parent, blocked, increasing_run(parent), -1, by_search)
        assert by_rule == by_search, (pattern, parent, blocked)


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
    return [len(level) for level in _generic_levels(basis.patterns, max_n)]


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
        counts = refined_count(basis, 4, ["bond", "lr-min"],
                               "last-entry-equals-length")
        assert counts[(2, (1, 1))] == 1  # only 12

    def test_leading_maxima_identity_row(self):
        basis = PatternBasis.from_text("2143,3142,4132")
        counts = refined_count(basis, 4, ["leading-maxima"])
        assert counts[(3, (3,))] == 1  # only 123 has all leading maxima

    def test_totals_match_plain_counts(self):
        basis = PatternBasis.from_text("2143,3142,254613")
        refined = refined_count(basis, 6, ["leading-maxima", "bond"])
        counts = count_class(basis, 6)
        for n in range(7):
            assert sum(c for (m, _), c in refined.items() if m == n) == counts[n]

    def test_stat_values_attainable(self):
        basis = PatternBasis.from_text("2143,3142")
        refined = refined_count(basis, 6, ["leading-maxima", "bond", "lr-min"])
        for n, (ell, bond, lrmin) in refined:
            assert 0 <= ell <= n
            assert 0 <= bond <= max(0, n - 1)
            assert 0 <= lrmin <= n

    def test_unknown_ids_rejected(self):
        basis = PatternBasis.from_text("132")
        with pytest.raises(ValueError, match="unknown statistic"):
            refined_count(basis, 3, ["descents"])
        with pytest.raises(ValueError, match="unknown filter"):
            refined_count(basis, 3, ["bond"], "last-is-max")
        with pytest.raises(ValueError, match="'bond' is given twice"):
            refined_count(basis, 3, ["bond", "lr-min", "bond"])


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

    def test_json_round_trip(self, capsys):
        from permlab.cli import main

        code = main(["stat", "--basis", "132", "--max-n", "5", "--stats", "bond,lr-min",
                     "--filter", "first-entry-not-one", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["basis"] == ["132"]
        assert data["maxLength"] == 5
        assert data["stats"] == ["bond", "lr-min"]
        assert data["filter"] == "first-entry-not-one"
        assert all(set(rec) == {"n", "bond", "lr-min", "count"} for rec in data["counts"])
        counts = {(rec["n"], (rec["bond"], rec["lr-min"])): rec["count"]
                  for rec in data["counts"]}
        basis = PatternBasis.from_text("132")
        assert counts == refined_count(basis, 5, ["bond", "lr-min"], "first-entry-not-one")

    def test_unknown_format(self, capsys):
        from permlab.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["stat", "--basis", "132", "--max-n", "2", "--stats", "bond",
                  "--format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_json_is_deterministic(self, capsys):
        from permlab.cli import main

        argv = ["stat", "--basis", "132", "--max-n", "5", "--stats", "bond", "--format", "json"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])


class TestSimples:
    def test_simples_of_4132_class(self):
        basis = PatternBasis.from_text("2143,3142,4132")
        assert enumerate_simples(basis, 4)[4] == [P("2413")]
        assert enumerate_simples(basis, 3)[3] == []

    def test_no_simples_of_length_three_any_basis(self):
        assert enumerate_simples(PatternBasis.from_text("2143,3142"), 3)[3] == []

    def test_insertion_construction_base_case(self):
        assert simples_by_insertion(4)[4] == [P("2413")]

    def test_insertion_construction_empty_below_four(self):
        for max_n in range(8):
            built = simples_by_insertion(max_n)
            assert len(built) == max_n + 1
            assert built[:4] == [[]] * min(max_n + 1, 4)

    def test_insertion_matches_enumeration(self):
        basis = PatternBasis.from_text("2143,3142,4132")
        built = simples_by_insertion(9)
        enumerated = enumerate_simples(basis, 9)
        for n in range(4, 10):
            assert built[n] == enumerated[n]

    def test_construction_output_is_simple_and_in_class(self):
        basis = PatternBasis.from_text("2143,3142,4132")
        for level in simples_by_insertion(7)[4:]:
            for sigma in level:
                assert is_simple(sigma)
                assert avoids_all(sigma, basis.patterns)

    def test_worked_example_with_four_insertions(self):
        # 132-avoider 84536127 with insertions below rows 2, 3, 5, 6
        sigma = (2, 4, 7, 9, 12, 6, 8, 5, 10, 1, 3, 11)
        assert sigma in simples_by_insertion(12)[12]
        assert is_simple(sigma)
        assert avoids_all(sigma, PatternBasis.from_text("2143,3142,4132").patterns)


@settings(max_examples=30, deadline=None)
@given(BASES, st.integers(0, 7))
@example(PatternBasis.from_text("2143,3142,4132"), 7)
@example(PatternBasis([(1,)]), 3)
def test_simples_of_every_length(basis, max_n):
    # one answer per length, each the simple members of that level, and a
    # shorter request is a prefix of a longer one, cold or cached
    cache = enumeration._LEVELS_CACHE
    cache.pop(basis.patterns, None)
    try:
        simples = enumerate_simples(basis, max_n)
        assert len(simples) == max_n + 1
        for n, level in enumerate(simples):
            assert level == [p for p in brute_class(basis.patterns, n) if not intervals(p)]
        shorter = max(max_n - 2, 0)
        assert enumerate_simples(basis, shorter) == simples[: shorter + 1]
        cache.pop(basis.patterns)
        assert enumerate_simples(basis, shorter) == simples[: shorter + 1]
        assert enumerate_simples(basis, max_n) == simples
    finally:
        cache.pop(basis.patterns, None)
