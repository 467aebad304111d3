"""Exhaustive, pruned enumeration of pattern-avoidance classes.

Generation proceeds level by level: every member of Av_n(basis) arises
exactly once by inserting the new maximum n into a member of
Av_{n-1}(basis), so only occurrences through the new maximum need to be
tested.  One slot filter per basis (``_slot_filter``) gives the slots of
a parent where the new maximum completes no pattern.  The frequent
patterns (2143, 3142, 132, 4132) each map a parent, in one O(n) pass, to
a bitmask of the slots they block.  Every other pattern is compiled once
per filter by :func:`permlab.perms.pinned_max_search`, which drops from
the slots still free those it blocks, in one search per parent.

``class_levels`` builds and caches whole levels.  Output is
deterministic: each level is sorted lexicographically, with or without
worker processes.  A parallel build starts one pool per call; each of
its k workers takes every k-th parent of one level and grows those
subtrees to the requested length, returning sorted levels that are
merged level by level.

``count_class`` reads, builds and caches no level: it walks the
insertion tree depth-first from the root and counts each node's
children as the popcount of its free slots.  The slot filter runs only
on the nodes it starts from.  Below them each child inherits its
parent's blocked slots, the slot of the new maximum doubled, since an
occurrence that misses the parent's maximum n+1 is one in the parent
already.  A new block uses the next maximum n+2 as the pattern's
largest entry k and n+1 as its k-1, so the pattern's other entries
occur in the parent.  Each pattern therefore gives one table per
parent of the new blocks of every child: 2143, 3142 and 4132 by a
closed rule, every other pattern by a compiled search for those other
entries.  No search runs on a child, and the last two levels are never
built.  A parallel count sums per-level subtree totals over many
slices of one level, one pool per call.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterable, Sequence

from permlab.perms import (
    Perm,
    bond_count,
    contains,
    is_simple,
    leading_maxima_count,
    lr_minima,
    occurs_with_new_max,
    parse_permutation,
    perm_to_text,
    pinned_max_search,
    standardize,
    window_sources,
)

DEFAULT_CAP = 10_000_000


class CapacityError(RuntimeError):
    """Raised when a level exceeds the configured class-size cap.

    Building stops as soon as the partial level passes the cap, so
    ``size`` is a lower bound on the level's true size.
    """

    def __init__(self, n: int, size: int, cap: int):
        super().__init__(f"Av_{n} exceeds capacity cap ({size} > {cap})")
        self.n = n
        self.size = size
        self.cap = cap


# ---------------------------------------------------------------------------
# pattern basis


@dataclass(frozen=True)
class PatternBasis:
    """Normalized finite set of forbidden patterns.

    Duplicates and dominated patterns (those containing another basis
    element) are removed; the remainder is sorted by length, then
    lexicographically.
    """

    patterns: tuple[Perm, ...]

    def __init__(self, patterns: Iterable[Perm]):
        pats = sorted(set(tuple(p) for p in patterns), key=lambda p: (len(p), p))
        if any(len(p) == 0 for p in pats):
            raise ValueError("patterns must have length >= 1")
        kept = [
            p
            for p in pats
            if not any(q != p and contains(p, q) for q in pats)
        ]
        object.__setattr__(self, "patterns", tuple(kept))

    @classmethod
    def from_text(cls, text: str) -> "PatternBasis":
        """Parse a comma-separated list of digit-string patterns."""
        tokens = [t.strip() for t in text.split(",") if t.strip()]
        if not tokens:
            raise ValueError("empty basis")
        pats = []
        for tok in tokens:
            if not tok.isdigit():
                raise ValueError(
                    f"basis token {tok!r} is not a digit string; digit-string "
                    "and comma-list forms may not be mixed within one token"
                )
            pats.append(parse_permutation(tok))
        return cls(pats)

    @property
    def key(self) -> str:
        return ";".join(perm_to_text(p) for p in self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)


# ---------------------------------------------------------------------------
# blocked-slot masks
#
# Inserting the new maximum n+1 into a parent of length n at slot s gives
# parent[:s] + (n+1,) + parent[s:].  For each special pattern a function
# maps the parent to the int whose bit s is set exactly when that child
# has an occurrence of the pattern through the new maximum.  Value sets
# are ints too (bit v for value v), so each mask costs one O(n) pass.
# The conditions are exact for any parent, not only for avoiders.


def _blocked_2143(parent: Perm) -> int:
    # New max plays the 4: blocked iff the smallest inversion top left of
    # the slot lies below the largest value right of it.
    n = len(parent)
    suffix_max = [0] * (n + 1)
    top = 0
    for j in range(n - 1, -1, -1):
        v = parent[j]
        if v > top:
            top = v
        suffix_max[j] = top
    mask = 0
    seen = 0
    min_top = n + 1
    for s, v in enumerate(parent):
        if suffix_max[s] > min_top:
            mask |= 1 << s
        above = seen >> (v + 1)  # prefix values above v, shifted down
        if above:
            t = (above & -above).bit_length() + v
            if t < min_top:
                min_top = t
        seen |= 1 << v
    return mask


def _blocked_3142(parent: Perm) -> int:
    # New max plays the 4: blocked iff a value right of the slot lies in
    # (w, max-so-far) for some inversion bottom w left of the slot.
    n = len(parent)
    suffix = [0] * (n + 1)
    acc = 0
    for j in range(n - 1, -1, -1):
        acc |= 1 << parent[j]
        suffix[j] = acc
    mask = 0
    covered = 0
    top = 0
    for s, v in enumerate(parent):
        if covered & suffix[s]:
            mask |= 1 << s
        if v < top:
            covered |= (1 << top) - (2 << v)  # values v+1 .. top-1
        else:
            top = v
    return mask


def _blocked_132(parent: Perm) -> int:
    # New max plays the 3: blocked iff some value left of the slot lies
    # below some value right of it, i.e. unless the prefix holds exactly
    # the top s values (its minimum is n+1-s).
    n = len(parent)
    mask = 0
    low = n + 1
    for s, v in enumerate(parent):
        if low != n + 1 - s:
            mask |= 1 << s
        if v < low:
            low = v
    return mask


def _blocked_4132(parent: Perm) -> int:
    # New max plays the 4 in front: blocked iff the suffix from the slot
    # contains a 132, i.e. for every slot up to the last start of a 132.
    seen = 0
    max_bottom = 0  # largest inversion bottom right of j
    for j in range(len(parent) - 1, -1, -1):
        v = parent[j]
        if max_bottom > v:
            return (2 << j) - 1
        below = (seen & ((1 << v) - 1)).bit_length() - 1
        if below > max_bottom:
            max_bottom = below
        seen |= 1 << v
    return 0


_BLOCKED_SLOTS: dict[Perm, Callable[[Perm], int]] = {
    (2, 1, 4, 3): _blocked_2143,
    (3, 1, 4, 2): _blocked_3142,
    (1, 3, 2): _blocked_132,
    (4, 1, 3, 2): _blocked_4132,
}


def _per_slot_search(pattern: Perm) -> Callable[[Perm, int], int]:
    """The oracle for ``pinned_max_search``: one ``occurs_with_new_max`` per slot.

    The module name is read per call, so a rebound one is used.
    """
    def blocked(parent: Perm, slots: int) -> int:
        return sum(
            1 << s for s in range(len(parent) + 1)
            if slots >> s & 1 and occurs_with_new_max(parent, s, pattern)
        )

    return blocked


def _slot_filter(patterns: Sequence[Perm],
                 generic_only: bool = False) -> Callable[[Perm], int]:
    """A function from a parent to its free slots: those no pattern blocks.

    Slots blocked by a special pattern are dropped first; each other
    pattern, compiled once here by ``pinned_max_search``, then drops the
    free slots it blocks, in basis order.  ``generic_only`` tests every
    pattern slot by slot instead, as an oracle.  Building levels runs the
    filter on every parent, a depth-first count only on the nodes it
    starts from.
    """
    if generic_only:
        masks, searches = (), tuple(_per_slot_search(p) for p in patterns)
    else:
        masks = tuple(_BLOCKED_SLOTS[p] for p in patterns if p in _BLOCKED_SLOTS)
        searches = tuple(
            pinned_max_search(p) for p in patterns if p not in _BLOCKED_SLOTS
        )

    def free_slots(parent: Perm) -> int:
        blocked = 0
        for blocked_slots in masks:
            blocked |= blocked_slots(parent)
        free = ~blocked & ((2 << len(parent)) - 1)
        for search in searches:
            if not free:
                break
            free &= ~search(parent, free)
        return free

    return free_slots


def _extend_level(parents: Sequence[Perm], patterns: Sequence[Perm],
                  generic_only: bool = False, cap: int = DEFAULT_CAP) -> list[Perm]:
    """Children of ``parents`` under max-insertion that stay in the class.

    The slots come from ``_slot_filter(patterns, generic_only)``.  The
    scan stops after the first parent that takes the output past ``cap``.
    """
    free_slots = _slot_filter(patterns, generic_only)
    out: list[Perm] = []
    append = out.append
    for parent in parents:
        new_val = len(parent) + 1
        free = free_slots(parent)
        while free:
            low = free & -free
            free ^= low
            slot = low.bit_length() - 1
            append(parent[:slot] + (new_val,) + parent[slot:])
        if len(out) > cap:
            break
    return out


def _extend_shard(parents: Sequence[Perm], patterns: Sequence[Perm], depth: int,
                  cap: int) -> list[list[Perm]]:
    """The next ``depth`` levels grown from ``parents``, each sorted.

    One worker's share of a parallel build.  It stops after the first
    level whose own size passes ``cap``, and leaves that level unsorted:
    the sum over all shards is then past the cap too, so the level is
    never used.
    """
    levels = []
    for _ in range(depth):
        parents = _extend_level(parents, patterns, cap=cap)
        levels.append(parents)
        if len(parents) > cap:
            break
        parents.sort()
    return levels


# ---------------------------------------------------------------------------
# blocked-slot masks inherited down the insertion tree
#
# A child inserts n+1 at slot s of a parent of length n.  Inserting n+2
# at child slot t makes an occurrence either without n+1, which is one
# of the parent at slot t (t <= s) or t-1 (t > s), or with n+2 as the
# pattern's largest entry k and n+1 as its k-1.  The other entries of
# such an occurrence form tau'' (the pattern without k and k-1) in the
# parent, and their positions fix both the slots s and the slots t.  So
# one table per parent lists, for every slot s, the child slots this
# second kind adds: 2143, 3142 and 4132 from a closed rule each, every
# other pattern from a compiled search for its tau''.  A table function
# takes the parent and its free slots and returns the table, exact at
# every free slot.


def _increasing_run(parent: Perm) -> int:
    """The length of the longest increasing prefix of ``parent``."""
    for i in range(1, len(parent)):
        if parent[i] < parent[i - 1]:
            return i
    return len(parent)


def _new_2143_slots(parent: Perm, free: int) -> list[int]:
    """Per slot s, the child slots 2143 adds through n+2 and n+1.

    The 21 must lie left of n+2, so the child at slot s gains exactly
    the slots run+1..s, run being the increasing prefix's length.
    Exact at every slot, so ``free`` is not read.
    """
    run = _increasing_run(parent)
    return [(2 << s) - (2 << run) if s > run else 0 for s in range(len(parent) + 1)]


def _new_3142_slots(parent: Perm, free: int) -> list[int]:
    """Per slot s, the child slots 3142 adds through n+2 and n+1.

    With n+1 at slot s as the 3, n+2 at child slot c+1 is the 4 of an
    occurrence exactly when some parent[i] with s <= i < c, the 1, lies
    below max(parent[c:]), which holds the 2.  For one i these cuts are
    i+1..j, where j is the last position of a value above parent[i];
    the table ORs them over all i >= s.  Exact at every slot, so
    ``free`` is not read.
    """
    n = len(parent)
    table = [0] * (n + 1)
    acc = 0
    records = 0  # the values of the right-to-left maxima right of i
    where = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        v = parent[i]
        above = records >> (v + 1)
        if above:
            # the first value above v from the right is the least record above it
            j = where[(above & -above).bit_length() + v]
            acc |= (4 << j) - (4 << i)  # child slots i+2 .. j+1
        else:
            records |= 1 << v
            where[v] = i
        table[i] = acc
    return table


def _new_4132_slots(parent: Perm, free: int) -> list[int]:
    """Per free slot s, the child slots 4132 adds through n+2 and n+1.

    n+2 is the 4 left of the 1 and n+1 is the 3, so the 1 lies before
    slot s and the 2 after it: the child gains the slots 0..t0, t0 being
    the last i < s with parent[i] < max(parent[s:]).  Each free slot
    scans left from s - 1 for it, so a parent with a long decreasing
    suffix costs O(n) per free slot.
    """
    n = len(parent)
    table = [0] * (n + 1)
    top = 0  # max(parent[s:])
    for s in range(n - 1, 0, -1):
        if parent[s] > top:
            top = parent[s]
        if free >> s & 1:
            i = s - 1
            while i >= 0 and parent[i] > top:
                i -= 1
            if i >= 0:
                table[s] = (2 << i) - 1
    return table


_NEW_SLOT_RULES: dict[Perm, Callable[[Perm, int], list[int]]] = {
    (2, 1, 4, 3): _new_2143_slots,
    (3, 1, 4, 2): _new_3142_slots,
    (4, 1, 3, 2): _new_4132_slots,
}


def _new_slot_search(pattern: Perm) -> Callable[[Perm, int], list[int]]:
    """Compile ``pattern`` (length >= 2) into the table of its new child slots.

    Returns ``table(parent, free)``: per slot s in ``free``, the child
    slots where n+2 completes an occurrence with n+1 (0 at the other
    slots).  Seen from the parent, n+1 and n+2 take two slots x <= y,
    in the pattern's order, x after X of the m = k - 2 entries of tau''
    and y after Y of them.  An occurrence of tau'' at positions
    i_0 < ... < i_(m-1) then allows exactly the pairs with
    i_(X-1) < x <= i_X and i_(Y-1) < y <= i_Y (i_(-1) = -1 and
    i_m = n).  One depth-first search over the first Y entries takes,
    for each of their occurrences, the last i_Y that completes it, whose
    pairs hold those of every other completion.
    """
    k = len(pattern)
    m = k - 2
    at_k, at_k1 = pattern.index(k), pattern.index(k - 1)
    s_is_x = at_k > at_k1  # n+1, at slot s, comes before n+2
    X, Y = (at_k1, at_k - 1) if s_is_x else (at_k, at_k1 - 1)
    lo_of, hi_of = window_sources(standardize([v for v in pattern if v < k - 1]))
    last_idx = m - 1

    def table(parent: Perm, free: int) -> list[int]:
        n = len(parent)
        found = [0] * (n + 1)  # per slot of n+1, the parent slots of n+2
        # chosen[m] stays 0 and chosen[m + 1] holds n + 1: the open bounds
        chosen = [0] * (m + 2)
        chosen[m + 1] = n + 1
        pos = [0] * m

        def rest(j: int, start: int) -> bool:
            # any completion of the entries after i_Y
            lo, hi = chosen[lo_of[j]], chosen[hi_of[j]]
            for p in range(start, n - m + j + 1):
                v = parent[p]
                if lo < v < hi:
                    if j == last_idx:
                        return True
                    chosen[j] = v
                    if rest(j + 1, p + 1):
                        return True
            return False

        def close(a: int) -> None:
            # the first Y entries end at a: add the pairs of their last i_Y
            if Y == m:
                top = n
            else:
                lo, hi = chosen[lo_of[Y]], chosen[hi_of[Y]]
                for top in range(n - m + Y, a, -1):
                    v = parent[top]
                    if lo < v < hi:
                        chosen[Y] = v
                        if Y == last_idx or rest(Y + 1, top + 1):
                            break
                else:
                    return
            x_lo = pos[X - 1] + 1 if X else 0
            x_hi = top if X == Y else pos[X]
            y_lo = a + 1
            if s_is_x:
                todo = free & ((2 << x_hi) - (1 << x_lo))
                while todo:
                    low = todo & -todo
                    todo ^= low
                    s = low.bit_length() - 1
                    found[s] |= (2 << top) - (1 << (s if s > y_lo else y_lo))
            else:
                todo = free & ((2 << top) - (1 << y_lo))
                while todo:
                    low = todo & -todo
                    todo ^= low
                    s = low.bit_length() - 1
                    found[s] |= (2 << (s if s < x_hi else x_hi)) - (1 << x_lo)

        def first(j: int, start: int) -> None:
            # the first Y entries, in position order
            lo, hi = chosen[lo_of[j]], chosen[hi_of[j]]
            for p in range(start, n - m + j + 1):
                v = parent[p]
                if lo < v < hi:
                    chosen[j] = v
                    pos[j] = p
                    if j + 1 < Y:
                        first(j + 1, p + 1)
                    else:
                        close(p)

        if free:
            if Y:
                first(0, 0)
            else:
                close(-1)
        # n+2 at slot u of the parent is child slot u, or u + 1 after n+1
        return [u << 1 for u in found] if s_is_x else found

    return table


def _child_masks(patterns: Sequence[Perm]) -> Callable[[Perm, int], list[tuple[int, int]]]:
    """A function from a parent and its blocked slots to its children's.

    ``child_masks(parent, blocked)`` takes the exact blocked-slot mask of
    ``parent`` (the complement of ``_slot_filter(patterns)(parent)``) and
    returns, in slot order, each free slot s with the exact mask of the
    child that puts n+1 there: the parent's mask with bit s doubled, and
    each pattern's table entry at s.  A length-1 pattern blocks every
    slot, and the inherited mask has them all.
    """
    tables = tuple(
        _NEW_SLOT_RULES.get(pattern) or _new_slot_search(pattern)
        for pattern in patterns if len(pattern) > 1
    )

    def child_masks(parent: Perm, blocked: int) -> list[tuple[int, int]]:
        free = ~blocked & ((2 << len(parent)) - 1)
        new = [table(parent, free) for table in tables]
        out = []
        while free:
            low = free & -free
            free ^= low
            s = low.bit_length() - 1
            mask = (blocked & ((low << 1) - 1)) | ((blocked >> s) << (s + 1))
            for added in new:
                mask |= added[s]
            out.append((s, mask))
        return out

    return child_masks


def _count_subtrees(parents: Sequence[Perm], patterns: Sequence[Perm],
                    depth: int) -> list[int]:
    """How many class members lie 1, ..., ``depth`` levels below ``parents``.

    A depth-first walk that holds one root-to-leaf path.  ``_slot_filter``
    gives the blocked slots of each starting parent; below them every
    node gets its mask from its parent through ``_child_masks``, one
    table per pattern and parent, so no search runs on a child.  The
    last level is counted as popcounts of free slots: a node two levels
    above it sums the free slots of its children's masks, so neither the
    last level nor the one above it is built.  Also one worker's share
    of a parallel count.
    """
    free_slots = _slot_filter(patterns)
    child_masks = _child_masks(patterns)
    totals = [0] * depth
    last = depth - 1

    def walk(parent: Perm, blocked: int, d: int) -> None:
        n = len(parent)
        totals[d] += n + 1 - blocked.bit_count()
        if d == last:
            return
        children = child_masks(parent, blocked)
        if d + 1 == last:
            totals[last] += sum(n + 2 - mask.bit_count() for _, mask in children)
            return
        new_val = n + 1
        for s, mask in children:
            walk(parent[:s] + (new_val,) + parent[s:], mask, d + 1)

    if depth > 0:
        for parent in parents:
            walk(parent, ~free_slots(parent) & ((2 << len(parent)) - 1), 0)
    return totals


# ---------------------------------------------------------------------------
# class enumeration with an in-process cache

_LEVELS_CACHE: dict[tuple[Perm, ...], list[list[Perm]]] = {}


def check_parallelism(value: int) -> int:
    """Return ``value`` if it is a worker count in 1..os.cpu_count(), else raise."""
    limit = os.cpu_count() or 1
    if not 1 <= value <= limit:
        raise ValueError(
            f"parallelism must be between 1 and {limit} (the CPU count), got {value}"
        )
    return value


def class_levels(basis: PatternBasis, max_n: int, *, parallelism: int = 1,
                 cap: int = DEFAULT_CAP) -> list[list[Perm]]:
    """Av_0(basis) .. Av_max_n(basis) as sorted lists (cached per basis).

    With ``parallelism`` p > 1, levels are built in this process until
    one has at least 4p parents.  Then one pool of p workers is started
    for the whole call: worker i takes every p-th of those parents and
    grows its subtrees down to ``max_n``, sorting each level it builds.
    The p sorted runs of each level are merged here, so every level is
    the same as without workers.

    >>> [len(level) for level in class_levels(PatternBasis([(1, 3, 2)]), 5)]
    [1, 1, 2, 5, 14, 42]
    """
    check_parallelism(parallelism)
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if len(basis) == 0:
        raise ValueError("basis must be nonempty")
    patterns = basis.patterns
    levels = _LEVELS_CACHE.setdefault(patterns, [[()]])
    while len(levels) <= max_n:
        parents = levels[-1]
        if parallelism > 1 and len(parents) >= 4 * parallelism:
            # strided, not contiguous: the costly parents come first in
            # lexicographic order
            depth = max_n + 1 - len(levels)
            with ProcessPoolExecutor(max_workers=parallelism) as pool:
                futures = [
                    pool.submit(_extend_shard, parents[i::parallelism], patterns, depth, cap)
                    for i in range(parallelism)
                ]
                shards = [f.result() for f in futures]
        else:
            shards = [_extend_shard(parents, patterns, 1, cap)]
        # a shard ends early only at a level past the cap, so zip stops
        # no later than the level that raises
        for parts in zip(*shards):
            size = sum(len(part) for part in parts)
            if size > cap:
                raise CapacityError(len(levels), size, cap)
            # each part is sorted; timsort merges the runs
            levels.append(parts[0] if len(parts) == 1 else sorted(chain.from_iterable(parts)))
    return levels[: max_n + 1]


def enumerate_class(basis: PatternBasis, n: int, *, parallelism: int = 1,
                    cap: int = DEFAULT_CAP) -> list[Perm]:
    """Exactly Av_n(basis) in lexicographic order."""
    return class_levels(basis, n, parallelism=parallelism, cap=cap)[n]


def count_class(basis: PatternBasis, max_n: int, *, parallelism: int = 1) -> list[int]:
    """(|Av_0|, ..., |Av_max_n|).

    The class is counted depth-first from the root by
    ``_count_subtrees``, whatever the level cache holds: no level is
    read, built or cached, and the slot filter's compiled searches run
    only on the root, since every node below it takes its blocked slots
    from its parent's tables.  With ``parallelism`` p > 1, levels are
    first grown here from the root until one has at least 32p parents;
    one pool of p workers then counts the subtrees of 4p strided slices
    of them, starting a walk at each, and the per-level totals are
    summed.

    >>> count_class(PatternBasis([(1, 3, 2)]), 5)
    [1, 1, 2, 5, 14, 42]
    """
    check_parallelism(parallelism)
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    patterns = basis.patterns
    counts = [1]
    frontier = [()]
    if parallelism > 1:
        while len(counts) <= max_n and len(frontier) < 32 * parallelism:
            frontier = _extend_level(frontier, patterns)
            counts.append(len(frontier))
    depth = max_n + 1 - len(counts)
    if parallelism > 1 and depth > 0:
        # many more slices than workers, so that no one slow slice sets the time
        tasks = [frontier[i::4 * parallelism] for i in range(4 * parallelism)]
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            shards = list(pool.map(_count_subtrees, tasks, repeat(patterns), repeat(depth)))
        counts.extend(sum(totals) for totals in zip(*shards))
    else:
        counts.extend(_count_subtrees(frontier, patterns, depth))
    return counts


# ---------------------------------------------------------------------------
# refined counting


def _lr_min_count(p: Perm) -> int:
    return len(lr_minima(p))


STATISTICS: dict[str, Callable[[Perm], int]] = {
    "leading-maxima": leading_maxima_count,
    "bond": bond_count,
    "lr-min": _lr_min_count,
}

FILTERS: dict[str, Callable[[Perm], bool]] = {
    "none": lambda p: True,
    "last-entry-equals-length": lambda p: bool(p) and p[-1] == len(p),
    "last-entry-not-length": lambda p: not p or p[-1] != len(p),
    "first-entry-not-max": lambda p: not p or p[0] != len(p),
    "first-entry-not-one": lambda p: bool(p) and p[0] != 1,
}


@dataclass
class RefinedCountTable:
    """Counts of a class by length and a tuple of statistics."""

    basis: PatternBasis
    max_length: int
    stat_names: tuple[str, ...]
    filter_name: str = "none"
    counts: dict[tuple[int, tuple[int, ...]], int] = field(default_factory=dict)

    def total(self, n: int) -> int:
        return sum(c for (m, _), c in self.counts.items() if m == n)

    def get(self, n: int, stats: tuple[int, ...]) -> int:
        return self.counts.get((n, stats), 0)

    def rows(self):
        for (n, stats), count in sorted(self.counts.items()):
            yield n, stats, count

    def to_json(self) -> str:
        records = [
            {"n": n, **dict(zip(self.stat_names, stats)), "count": count}
            for n, stats, count in self.rows()
        ]
        return json.dumps(
            {
                "basis": [perm_to_text(p) for p in self.basis.patterns],
                "maxLength": self.max_length,
                "stats": list(self.stat_names),
                "filter": self.filter_name,
                "counts": records,
            },
            indent=2,
        )


def refined_count(basis: PatternBasis, max_n: int, stats: Sequence[str],
                  filter_id: str = "none", *, parallelism: int = 1) -> RefinedCountTable:
    """Count class members by length and the named statistics.

    Statistics come from the closed registry {leading-maxima, bond,
    lr-min}; the optional element filter from {none,
    last-entry-equals-length, last-entry-not-length, first-entry-not-max,
    first-entry-not-one}.
    """
    try:
        fns = [STATISTICS[s] for s in stats]
    except KeyError as exc:
        raise ValueError(f"unknown statistic id {exc.args[0]!r}") from None
    if filter_id not in FILTERS:
        raise ValueError(f"unknown filter id {filter_id!r}")
    keep = FILTERS[filter_id]
    table = RefinedCountTable(basis, max_n, tuple(stats), filter_id)
    counts = table.counts
    for n, level in enumerate(class_levels(basis, max_n, parallelism=parallelism)):
        for p in level:
            if keep(p):
                key = (n, tuple(fn(p) for fn in fns))
                counts[key] = counts.get(key, 0) + 1
    return table


# ---------------------------------------------------------------------------
# simple permutations


def enumerate_simples(basis: PatternBasis, n: int, *,
                      parallelism: int = 1) -> list[Perm]:
    """The simple members of Av_n(basis), sorted."""
    return [p for p in enumerate_class(basis, n, parallelism=parallelism) if is_simple(p)]


def simples_by_insertion(n: int) -> list[Perm]:
    """Length-n simples built from 132-avoiders by leading-maximum insertion.

    Base permutations are the alpha in Av_m(132) (m >= 3) with
    alpha_1 = m and alpha_m = m-1; below each row r in 2..m-1 at most one
    leading maximum is inserted, and exactly one between every bonded
    pair of rows.  Insertion below rows 1 and m is never allowed.
    """
    if n < 4:
        raise ValueError("the construction produces nothing below length 4")
    from itertools import combinations

    basis132 = PatternBasis([(1, 3, 2)])
    out: list[Perm] = []
    for m in range(3, n + 1):
        k = n - m
        if k > m - 2:
            continue
        for rho in enumerate_class(basis132, m - 2):
            alpha = (m,) + rho + (m - 1,)
            forced = {
                max(a, b)
                for a, b in zip(alpha, alpha[1:])
                if abs(a - b) == 1
            }
            free = sorted(set(range(2, m)) - forced)
            need = k - len(forced)
            if need < 0 or need > len(free):
                continue
            for extra in combinations(free, need):
                rows = sorted(forced.union(extra))
                sigma = _insert_leading_maxima(alpha, rows)
                out.append(sigma)
    return sorted(out)


def _insert_leading_maxima(alpha: Perm, rows: list[int]) -> Perm:
    """Insert one new leading maximum directly below each listed row."""
    shift = {}
    inserted = {}
    j = 0
    for v in range(1, len(alpha) + 1):
        if j < len(rows) and rows[j] == v:
            inserted[v] = v + j
            j += 1
        shift[v] = v + j
    prefix = tuple(inserted[r] for r in rows)
    return prefix + tuple(shift[v] for v in alpha)
