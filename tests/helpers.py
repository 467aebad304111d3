"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive (subsequence scans over
itertools.combinations, full S_n filters) so that it cannot share a bug
with the pruned search paths it is used to check.  ``count_pools``
records the worker pools a call starts.
"""

from __future__ import annotations

from itertools import combinations, permutations

from permlab.perms import Perm, standardize


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


def count_pools(monkeypatch) -> list[int]:
    """Wrap ``enumeration.ProcessPoolExecutor``; the list gets each pool's size."""
    from permlab import enumeration

    started: list[int] = []
    real = enumeration.ProcessPoolExecutor

    def pool(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", pool)
    return started
