"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive (subsequence scans over
itertools.combinations, full S_n filters, every component of a sum or
skew sum, every cut set of a deflation) so that it cannot share a bug
with the pruned search paths it is used to check.  ``count_pools``
records the worker groups a call starts.
"""

from __future__ import annotations

from itertools import combinations, permutations

from permlab.perms import Perm, is_simple, standardize


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
