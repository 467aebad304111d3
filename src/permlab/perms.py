"""Pure operations on permutations in one-line notation.

A permutation is a tuple of the integers 1..n with no repeats; the empty
tuple is the empty permutation.  All functions here are pure and treat
their arguments as immutable, so values can be shared freely across
threads.

Positions in returned index sets (``lr_maxima``, ``horizontal_gaps``,
``lr_minima``) are 1-based, matching the usual one-line
conventions; values are 1-based by construction.

Text format (shared repo-wide): a digit string for length <= 9
("2413"), a comma-separated list otherwise ("2,4,1,3" also accepted),
and the empty string for the empty permutation.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf
from typing import Iterable, NamedTuple, Sequence

Perm = tuple[int, ...]


class ParseError(ValueError):
    """Raised when text does not describe a permutation."""


def perm(values: Iterable[int]) -> Perm:
    """Validate ``values`` as a rearrangement of 1..n and return it as a tuple.

    >>> perm([2, 4, 1, 3])
    (2, 4, 1, 3)
    """
    vals = tuple(values)
    _validate(vals, [str(v) for v in vals])
    return vals


def _validate(vals: Sequence[int], tokens: Sequence[str]) -> None:
    seen: set[int] = set()
    for v, tok in zip(vals, tokens):
        if v <= 0:
            raise ParseError(f"non-positive value {tok!r}")
        if v in seen:
            raise ParseError(f"duplicate value {tok!r}")
        seen.add(v)
    n = len(vals)
    for v in range(1, n + 1):
        if v not in seen:
            raise ParseError(f"missing value {v}")


def parse_permutation(text: str) -> Perm:
    """Parse the shared text format into a permutation.

    >>> parse_permutation("2413")
    (2, 4, 1, 3)
    >>> parse_permutation("2,4,1,3")
    (2, 4, 1, 3)
    >>> parse_permutation("")
    ()
    """
    s = text.strip()
    if not s:
        return ()
    if "," in s:
        tokens = [t.strip() for t in s.split(",")]
        vals = []
        for tok in tokens:
            try:
                vals.append(int(tok))
            except ValueError:
                raise ParseError(f"malformed token {tok!r}") from None
    else:
        tokens = list(s)
        vals = []
        for tok in tokens:
            if not tok.isdigit():
                raise ParseError(f"malformed token {tok!r}")
            vals.append(int(tok))
    _validate(vals, tokens)
    return tuple(vals)


def perm_to_text(p: Perm) -> str:
    """Inverse of :func:`parse_permutation` (digit string when possible)."""
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def standardize(values: Sequence[int]) -> Perm:
    """Map distinct integers order-isomorphically onto 1..k.

    >>> standardize((3, 1, 5, 6))
    (2, 1, 3, 4)
    """
    rank = dict(zip(sorted(values), range(1, len(values) + 1)))
    return tuple(map(rank.__getitem__, values))


# ---------------------------------------------------------------------------
# containment


def contains(host: Sequence[int], pattern: Perm) -> bool:
    """Exact test: does some subsequence of ``host`` realize ``pattern``?

    ``host`` may be any sequence of distinct integers (only relative
    order matters).  A pattern of length 3 takes one O(n) pass once
    reverse and complement map it to 123 or to 132 (one stack scanned
    right to left, Knuth, TAOCP vol. 1, 2.2.1).  Longer ones take a
    depth-first search over partial occurrences, pruning candidates by
    the value window forced by entries already matched.

    >>> contains((3, 1, 5, 4, 6, 2), (3, 1, 4, 2))
    True
    >>> contains((1, 2, 3, 4, 5, 6), (2, 1, 4, 3))
    False
    >>> contains((7, -2, 9, 4), (2, 1, 3)), contains((7, -2, 9, 4), (3, 2, 1))
    (True, False)
    """
    k = len(pattern)
    n = len(host)
    if k == 0:
        return True
    if k > n:
        return False
    if k == 3:
        a, b, c = pattern
        if a > b:  # complement: 321 -> 123, 312 -> 132, 213 -> 231
            host = [-v for v in host]
        if (a > c) != (a > b):  # reverse: 231 -> 132
            host = host[::-1]
        if b == 2:  # 123: an entry above the least one with a smaller one before it
            low = mid = inf
            for v in host:
                if v > mid:
                    return True
                if v < low:
                    low = v
                else:
                    mid = v
            return False
        two = -inf  # 132: the largest scanned entry that a larger scanned one precedes
        stack: list[int] = []
        for v in reversed(host):
            if v < two:
                return True
            while stack and stack[-1] < v:
                two = stack.pop()
            stack.append(v)
        return False
    chosen = [0] * k
    last_idx = k - 1
    top = max(host) + 1  # host values need not be standardized
    bottom = min(host) - 1

    def rec(j: int, start: int) -> bool:
        pj = pattern[j]
        lo, hi = bottom, top
        for i in range(j):
            ci = chosen[i]
            if pattern[i] < pj:
                if ci > lo:
                    lo = ci
            elif ci < hi:
                hi = ci
        for pos in range(start, n - (k - j) + 1):
            v = host[pos]
            if lo < v < hi:
                if j == last_idx:
                    return True
                chosen[j] = v
                if rec(j + 1, pos + 1):
                    return True
        return False

    try:
        return rec(0, 0)
    finally:
        del rec  # rec refers to itself through its cell: free it without a cycle


def avoids_all(host: Sequence[int], patterns: Iterable[Perm]) -> bool:
    """True iff ``host`` contains none of ``patterns``."""
    return not any(contains(host, p) for p in patterns)


def occurs_with_new_max(parent: Sequence[int], slot: int, pattern: Perm) -> bool:
    """Occurrence test through an inserted maximum.

    Conceptually the host is ``parent`` with a new maximum inserted at
    0-based position ``slot``; the function decides whether that host
    has an occurrence of ``pattern`` using the new entry.  When
    ``parent`` avoids ``pattern`` this is equivalent to containment in
    the child, which is what makes insertion-tree enumeration cheap.
    """
    k = len(pattern)
    if k == 0:
        return False
    if k == 1:
        return True
    q = pattern.index(k)  # the new maximum must play the pattern's maximum
    reduced = pattern[:q] + pattern[q + 1 :]
    n = len(parent)
    if q > slot or (k - 1 - q) > n - slot:
        return False
    chosen = [0] * (k - 1)
    last_idx = k - 2

    def rec(j: int, start: int) -> bool:
        if j == q and start < slot:
            start = slot
        pj = reduced[j]
        lo, hi = 0, n + 1
        for i in range(j):
            ci = chosen[i]
            if reduced[i] < pj:
                if ci > lo:
                    lo = ci
            elif ci < hi:
                hi = ci
        last = (slot - (q - j)) if j < q else (n - (k - 1 - j))
        for pos in range(start, last + 1):
            v = parent[pos]
            if lo < v < hi:
                if j == last_idx:
                    return True
                chosen[j] = v
                if rec(j + 1, pos + 1):
                    return True
        return False

    try:
        return rec(0, 0)
    finally:
        del rec  # rec refers to itself through its cell: free it without a cycle


def window_sources(pattern: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each entry of ``pattern``, the earlier entries that bound its value.

    Entry j lies above the largest earlier entry below it (index
    ``lo_of[j]``) and below the smallest earlier entry above it
    (``hi_of[j]``).  With no such entry the index is m = len(pattern)
    for the lower bound and m + 1 for the upper, which a search reads
    as no bound.

    >>> window_sources((2, 4, 1, 3))
    ((4, 0, 4, 0), (5, 5, 0, 1))
    """
    m = len(pattern)
    lo_of = tuple(
        max((i for i in range(j) if pattern[i] < pattern[j]),
            key=pattern.__getitem__, default=m)
        for j in range(m)
    )
    hi_of = tuple(
        min((i for i in range(j) if pattern[i] > pattern[j]),
            key=pattern.__getitem__, default=m + 1)
        for j in range(m)
    )
    return lo_of, hi_of


# ---------------------------------------------------------------------------
# statistics


def lr_maxima(p: Perm) -> tuple[int, ...]:
    """1-based positions whose value exceeds everything earlier.

    >>> lr_maxima((2, 4, 3, 1, 5, 6))
    (1, 2, 5, 6)
    """
    out = []
    best = 0
    for i, v in enumerate(p, start=1):
        if v > best:
            out.append(i)
            best = v
    return tuple(out)


def lr_minima(p: Perm) -> tuple[int, ...]:
    """1-based positions whose value is below everything earlier."""
    out = []
    best = len(p) + 1
    for i, v in enumerate(p, start=1):
        if v < best:
            out.append(i)
            best = v
    return tuple(out)


def leading_maxima_count(p: Perm) -> int:
    """Length of the maximal strictly increasing prefix (0 for the empty one).

    >>> leading_maxima_count((2, 4, 3, 1, 5, 6))
    2
    """
    count = 0
    best = 0
    for v in p:
        if v < best:
            break
        best = v
        count += 1
    return count


def horizontal_gaps(p: Perm) -> tuple[int, ...]:
    """Positions that are simultaneously an LR-maximum and a descent.

    >>> horizontal_gaps((2, 4, 3, 1, 5, 6))
    (2,)
    """
    n = len(p)
    lr = set(lr_maxima(p))
    return tuple(i for i in sorted(lr) if i < n and (i + 1) not in lr)


def bond_count(p: Perm) -> int:
    """Number of adjacent positions whose values differ by exactly 1."""
    return sum(1 for a, b in zip(p, p[1:]) if abs(a - b) == 1)


# ---------------------------------------------------------------------------
# composition operators


def direct_sum(a: Perm, b: Perm) -> Perm:
    """a (+) b: place b above and to the right of a."""
    n = len(a)
    return a + tuple(v + n for v in b)


def skew_sum(a: Perm, b: Perm) -> Perm:
    """a (-) b: place a above and to the left of b."""
    m = len(b)
    return tuple(v + m for v in a) + b


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def extraction(a: Perm, b: Perm, i: int) -> Perm:
    """Skew sum with the first ``i`` leading maxima of ``b`` slid before ``a``.

    Only the positions of the extracted entries change, never their
    values; ``i = 0`` degenerates to the plain skew sum.

    >>> extraction((1,), (2, 3, 1), 1)
    (2, 4, 3, 1)
    """
    if not a:
        raise ValueError("extraction requires a nonempty left operand")
    if i < 0 or i > leading_maxima_count(b):
        raise ValueError(
            f"cannot extract {i} leading maxima from a permutation with "
            f"{leading_maxima_count(b)}"
        )
    shifted = tuple(v + len(b) for v in a)
    return b[:i] + shifted + b[i:]


# ---------------------------------------------------------------------------
# simplicity, inflation, deflation


def is_simple(p: Perm) -> bool:
    """True iff ``p`` has no nontrivial interval (1, 12, 21, () are simple)."""
    n = len(p)
    for lo0 in range(n):
        mn = mx = p[lo0]
        last = n - 1 if lo0 else n - 2  # the whole of p is no proper interval
        for hi0 in range(lo0 + 1, last + 1):
            v = p[hi0]
            if v < mn:
                mn = v
            elif v > mx:
                mx = v
            if mx - mn == hi0 - lo0:
                return False
            if mx - mn > last - lo0:
                break  # too wide in value for the positions left
    return True


def inflate(skeleton: Perm, blocks: Sequence[Perm]) -> Perm:
    """Replace each entry of ``skeleton`` by the corresponding block.

    >>> inflate((2, 1), ((1, 2), (1,)))
    (2, 3, 1)
    """
    k = len(skeleton)
    if len(blocks) != k:
        raise ValueError(f"expected {k} blocks, got {len(blocks)}")
    if not all(blocks):
        raise ValueError("blocks must be nonempty")
    size = [0] * (k + 1)
    for v, block in zip(skeleton, blocks):
        size[v] = len(block)
    below = list(accumulate(size))  # below[v - 1]: entries of the blocks under value v
    return tuple([w + below[v - 1] for v, block in zip(skeleton, blocks) for w in block])


class Deflation(NamedTuple):
    skeleton: Perm
    blocks: tuple[Perm, ...]


def is_sum_decomposable(p: Perm) -> bool:
    """True iff a proper prefix of ``p`` holds exactly the values 1..m."""
    mx = 0
    for m, v in enumerate(p[:-1], start=1):
        if v > mx:
            mx = v
        if mx == m:
            return True
    return False


def is_skew_decomposable(p: Perm) -> bool:
    """True iff the complement of ``p`` is sum-decomposable."""
    n = len(p)
    return is_sum_decomposable([n + 1 - v for v in p])


def deflate(p: Perm) -> Deflation:
    """Unique decomposition into a simple skeleton and its blocks.

    Conventions: skeleton 12 forces a sum-indecomposable first block,
    skeleton 21 a skew-indecomposable one; skeletons of length >= 4 have
    uniquely determined blocks (the maximal proper intervals, which are
    pairwise disjoint once sum/skew decomposability is excluded).

    One pass finds the first sum (else skew) component and shifts the
    rest into one block.  Otherwise each block is the longest proper
    interval starting where the previous one ends: O(n) per block.

    >>> deflate((3, 1, 5, 4, 6, 2))
    Deflation(skeleton=(3, 1, 4, 2), blocks=((1,), (1,), (2, 1, 3), (1,)))
    """
    n = len(p)
    if not n:
        raise ValueError("cannot deflate the empty permutation")
    mx = 0
    for m, v in enumerate(p, start=1):
        if v > mx:
            mx = v
        if mx == m:
            break
    if m < n:
        return Deflation((1, 2), (p[:m], tuple([v - m for v in p[m:]])))
    mn = n + 1
    for m, v in enumerate(p, start=1):
        if v < mn:
            mn = v
        if mn + m == n + 1:
            break
    if m < n:
        return Deflation((2, 1), (tuple([v - mn + 1 for v in p[:m]]), p[m:]))
    blocks: list[Perm] = []
    reps: list[int] = []
    start = 0
    while start < n:
        mn = mx = lo = p[start]
        end = start  # the longest proper interval from start ends here
        last = n - 1 if start else n - 2
        for hi in range(start + 1, last + 1):
            v = p[hi]
            if v < mn:
                mn = v
            elif v > mx:
                mx = v
            if mx - mn == hi - start:
                end, lo = hi, mn
            elif mx - mn > last - start:
                break  # too wide in value for the positions left
        blocks.append(tuple([v - lo + 1 for v in p[start : end + 1]]) if end > start else (1,))
        reps.append(lo)
        start = end + 1
    return Deflation(standardize(reps), tuple(blocks))


# ---------------------------------------------------------------------------
# deletions


def strip_leading_maxima(p: Perm) -> Perm:
    """Delete the increasing prefix and standardize the remainder.

    >>> strip_leading_maxima((2, 4, 3, 1, 5, 6))
    (2, 1, 3, 4)
    """
    return standardize(p[leading_maxima_count(p):])


def delete_lr_maxima(p: Perm) -> Perm:
    """Delete every LR-maximum position and standardize the remainder.

    >>> delete_lr_maxima((2, 4, 3, 1, 5, 6))
    (2, 1)
    """
    lr = set(lr_maxima(p))
    return standardize([v for i, v in enumerate(p, start=1) if i not in lr])
