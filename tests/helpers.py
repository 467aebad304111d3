"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive (subsequence scans over
itertools.combinations, full S_n filters, every component of a sum or
skew sum, every cut set of a deflation, one occurrence search per slot,
every interval, series arithmetic term by term on (x, t, u) dicts) so
that it cannot share a bug with the pruned search paths or the series
engine it is used to check.  ``count_pools`` records the worker groups
a call starts, and ``calls_to`` the calls of one module function.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations
from typing import NamedTuple

from permlab.perms import Perm, is_simple, occurs_with_new_max, standardize
from permlab.series import TOTAL_GRADED, X_GRADED, MSeries, SeriesError, _Unknown


def brute_contains(host: Perm, pattern: Perm) -> bool:
    k = len(pattern)
    if k == 0:
        return True
    return any(
        standardize(sub) == pattern for sub in combinations(host, k)
    )


def brute_avoids_all(host: Perm, patterns) -> bool:
    return not any(brute_contains(host, p) for p in patterns)


def all_perms(n: int):
    for p in permutations(range(1, n + 1)):
        yield p


def brute_class(patterns, n: int) -> list[Perm]:
    return sorted(p for p in all_perms(n) if brute_avoids_all(p, patterns))


def brute_free_slots(parent: Perm, patterns) -> int:
    """The slots of ``parent`` where a new maximum completes none of ``patterns``.

    Bit s is set when no pattern occurs through the new maximum inserted
    at slot s: one ``occurs_with_new_max`` per slot and pattern, exact
    for any parent.
    """
    return sum(
        1 << s for s in range(len(parent) + 1)
        if not any(occurs_with_new_max(parent, s, p) for p in patterns)
    )


def brute_length3_patterns(host) -> set[Perm]:
    """Every pattern of length 3 in ``host``, read off each triple's comparisons."""
    shapes = {(a < b, a < c, b < c): (a, b, c) for a, b, c in permutations((1, 2, 3))}
    seen = {(x < y, x < z, y < z) for x, y, z in combinations(host, 3)}
    return {shapes[s] for s in seen}


def sum_components(p: Perm) -> list[Perm]:
    """Finest decomposition p = c1 (+) c2 (+) ... into sum-indecomposables."""
    out = []
    start = 0
    mx = 0
    for idx, v in enumerate(p):
        if v > mx:
            mx = v
        if mx == idx + 1:
            out.append(tuple(w - start for w in p[start : idx + 1]))
            start = idx + 1
    return out


def skew_components(p: Perm) -> list[Perm]:
    """Finest decomposition p = c1 (-) c2 (-) ... into skew-indecomposables."""
    n = len(p)
    out = []
    start = 0
    mn = n + 1
    for idx, v in enumerate(p):
        if v < mn:
            mn = v
        if mn == n - idx:
            below = n - idx - 1
            out.append(tuple(w - below for w in p[start : idx + 1]))
            start = idx + 1
    return out


class Interval(NamedTuple):
    lo: int
    hi: int
    value_lo: int
    value_hi: int


def intervals(p: Perm) -> list[Interval]:
    """All nontrivial intervals (1 < length < n), 1-based, sorted by (lo, hi)."""
    n = len(p)
    out = []
    for lo0 in range(n):
        for hi0 in range(lo0 + 1, n):
            window = p[lo0 : hi0 + 1]
            mn, mx = min(window), max(window)
            if hi0 - lo0 + 1 < n and mx - mn == hi0 - lo0:
                out.append(Interval(lo0 + 1, hi0 + 1, mn, mx))
    return out


def brute_decompositions(p: Perm) -> list[tuple[Perm, tuple[Perm, ...]]]:
    """Every convention-respecting (skeleton, blocks) pair inflating to ``p``.

    A search over all 2^(n-1) cut sets: the skeleton 1 only for n = 1,
    a simple skeleton otherwise, and a sum- (skew-) indecomposable first
    block under 12 (21).
    """
    n = len(p)
    if n == 1:
        return [((1,), ((1,),))]
    out = []
    for cuts in range(1 << (n - 1)):
        bounds = [0]
        for b in range(n - 1):
            if cuts >> b & 1:
                bounds.append(b + 1)
        bounds.append(n)
        if len(bounds) == 2:
            continue  # skeleton of length 1 is only for length-1 hosts
        segments = [p[a:b] for a, b in zip(bounds, bounds[1:])]
        blocks = []
        reps = []
        ok = True
        for seg in segments:
            lo, hi = min(seg), max(seg)
            if hi - lo + 1 != len(seg):
                ok = False
                break
            blocks.append(tuple(v - lo + 1 for v in seg))
            reps.append(lo)
        if not ok:
            continue
        skeleton = standardize(reps)
        if not is_simple(skeleton):
            continue
        if skeleton == (1, 2) and len(sum_components(blocks[0])) > 1:
            continue
        if skeleton == (2, 1) and len(skew_components(blocks[0])) > 1:
            continue
        out.append((skeleton, tuple(blocks)))
    return out


def count_pools(monkeypatch) -> list[int]:
    """Wrap ``enumeration._in_workers``; the list gets each worker group's share count."""
    from permlab import enumeration

    started: list[int] = []
    real = enumeration._in_workers

    def in_workers(fn, shares):
        started.append(len(shares))
        return real(fn, shares)

    monkeypatch.setattr(enumeration, "_in_workers", in_workers)
    return started


@contextmanager
def calls_to(module, name: str):
    """Wrap ``module.name`` inside the block; yields a list of each call's arguments."""
    real = getattr(module, name)
    calls: list[tuple] = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    setattr(module, name, spy)
    try:
        yield calls
    finally:
        setattr(module, name, real)


# ---------------------------------------------------------------------------
# series oracles: arithmetic term by term on the (x, t, u) view, with the
# MSeries constructor doing the truncation


def lazy(s: MSeries) -> MSeries:
    """s as a node over an operand that is not complete.

    The operand is an unknown of a solve that is at s's last grade and
    has stored none, so it reads s's grades as its guess: the node, and
    every series built on it, computes each grade only when asked, as a
    series built on an unknown does inside a solve.
    """
    pending = _Unknown(s)
    pending._solving = s.order
    return pending + 0


def forced(s: MSeries) -> MSeries:
    """s with every grade up to its order computed."""
    s.slice(s.order)
    return s


def term_sum(a: MSeries, b: MSeries, sign: int = 1) -> MSeries:
    """a + sign * b, one term at a time."""
    out = dict(a.coeffs)
    for key, c in b.coeffs.items():
        out[key] = out.get(key, 0) + sign * c
    return MSeries(out, min(a.order, b.order), a.grading)


def term_product(a: MSeries, b: MSeries) -> MSeries:
    """a * b, one pair of terms at a time."""
    out = {}
    for (x1, t1, u1), c1 in a.coeffs.items():
        for (x2, t2, u2), c2 in b.coeffs.items():
            key = (x1 + x2, t1 + t2, u1 + u2)
            out[key] = out.get(key, 0) + c1 * c2
    return MSeries(out, min(a.order, b.order), a.grading)


def term_scale(a: MSeries, c) -> MSeries:
    """c * a for a rational c, one term at a time."""
    return MSeries({k: v * Fraction(c) for k, v in a.coeffs.items()}, a.order, a.grading)


def term_power(a: MSeries, e: int) -> MSeries:
    out = MSeries.const(1, a.order, a.grading)
    for _ in range(e):
        out = term_product(out, a)
    return out


def geometric_reciprocal(s: MSeries) -> MSeries:
    """1/s = inv0 * (1 + m + m^2 + ...) with m = 1 - inv0 * s, term by term.

    Costs ``order`` full products; ``reciprocal`` solves grade by grade
    instead and must give the same series.
    """
    inv0 = 1 / Fraction(s.coefficient())
    m = MSeries(
        {k: -c * inv0 for k, c in s.coeffs.items() if k != (0, 0, 0)},
        s.order,
        s.grading,
    )
    one = MSeries.const(1, s.order, s.grading)
    acc = one
    for _ in range(s.order):
        acc = term_sum(term_product(acc, m), one)
    return term_scale(acc, inv0)


def naive_substitute(s: MSeries, bindings) -> MSeries:
    """The sum over the terms of s of c * x'^a * t'^b * u'^c, term by term.

    ``substitute`` sums over the powers of one binding instead and must
    give the same series.  A total-graded s with a term in a free t or u
    and x-graded series bindings raises ``SeriesError``, as ``substitute``
    must: s holds x t^b u^c only up to total degree s.order, but each of
    them has x-degree 1.
    """
    series = [b for b in bindings.values() if isinstance(b, MSeries)]
    grading = series[0].grading if series else s.grading
    if s.grading == TOTAL_GRADED and grading == X_GRADED and any(
            et and "t" not in bindings or eu and "u" not in bindings
            for _, et, eu in s.coeffs):
        raise SeriesError("a free t or u has no x-graded truncation")
    order = min([s.order] + [b.order for b in series])

    def factor(v):
        b = bindings.get(v)
        if isinstance(b, MSeries):
            assert order <= b.order  # a truncated series cannot be extended
            return MSeries(b.coeffs, order, b.grading)
        if b is None:
            return MSeries.var(v, order, grading)
        return MSeries.const(b, order, grading)

    total = MSeries({}, order, grading)
    for (ex, et, eu), c in s.coeffs.items():
        term = term_product(term_product(term_power(factor("x"), ex),
                                         term_power(factor("t"), et)),
                            term_power(factor("u"), eu))
        total = term_sum(total, term_scale(term, c))
    return total
