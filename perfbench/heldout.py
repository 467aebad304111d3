"""Held-out classes Av(2143, 3142, tau') for the count-paper workload.

The workload seed draws tau' from a fixed pool of length-6 patterns that
avoid 2143 and 3142, so that a speed-up tuned to the four paper patterns
is also exercised on classes its author never ran.  The pinned counts in
``reference.json`` come from permlab's pruned enumeration and are
cross-checked here against a brute-force scan over all of S_n that
shares no code with permlab.

    python3 perfbench/heldout.py --check           # verify the pinned table
    python3 perfbench/heldout.py --write           # recompute and pin it

Both run from the repository root and take about a minute at the
default brute-force depth of 9.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations, permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import PAPER_SCHRODER, REFERENCE_PATH, load_reference  # noqa: E402

POOL_SIZE = 8
POOL_START, POOL_STEP = 24, 49
PRUNED_N = 10


def _order_key(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of the pattern's entries listed by increasing value."""
    return tuple(sorted(range(len(pattern)), key=pattern.__getitem__))


def brute_contains(host: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """Does some subsequence of ``host`` have the relative order of ``pattern``?"""
    key = _order_key(pattern)
    k = len(pattern)
    rng = range(k)
    for sub in combinations(host, k):
        if tuple(sorted(rng, key=sub.__getitem__)) == key:
            return True
    return False


def brute_avoiders(n: int, patterns: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All of S_n avoiding every pattern, by testing each permutation."""
    return [
        p for p in permutations(range(1, n + 1))
        if not any(brute_contains(p, q) for q in patterns)
    ]


def parse(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text)


def pool() -> list[str]:
    """The fixed held-out pool: every 49th length-6 avoider of 2143 and 3142."""
    candidates = [
        "".join(map(str, p))
        for p in brute_avoiders(6, [(2, 1, 4, 3), (3, 1, 4, 2)])
    ]
    candidates = [c for c in candidates if c not in PAPER_SCHRODER]
    return [candidates[POOL_START + POOL_STEP * i] for i in range(POOL_SIZE)]


def pruned_counts(tau: str, max_n: int) -> list[int]:
    from permlab.enumeration import PatternBasis, count_class

    return count_class(PatternBasis.from_text(f"2143,3142,{tau}"), max_n)


def brute_counts(taus: list[str], max_n: int) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {t: [] for t in taus}
    for n in range(max_n + 1):
        base = brute_avoiders(n, [(2, 1, 4, 3), (3, 1, 4, 2)])
        for t in taus:
            pat = parse(t)
            out[t].append(sum(1 for p in base if not brute_contains(p, pat)))
    return out


def build_table(brute_n: int) -> dict[str, list[int]]:
    taus = pool()
    table = {t: pruned_counts(t, PRUNED_N) for t in taus}
    brute = brute_counts(taus, brute_n)
    for t in taus:
        if table[t][: brute_n + 1] != brute[t]:
            raise SystemExit(
                f"tau'={t}: pruned {table[t][: brute_n + 1]} != brute force {brute[t]}"
            )
    return table


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    ap.add_argument("--brute-n", type=int, default=9)
    args = ap.parse_args(argv)
    table = build_table(args.brute_n)
    ref = load_reference()
    if args.write:
        ref["heldout"] = table
        REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"pinned {len(table)} held-out classes to n = {PRUNED_N}")
        return 0
    if ref.get("heldout") != table:
        print("pinned held-out table differs from the recomputed one", file=sys.stderr)
        return 1
    print(f"held-out table ok ({len(table)} classes, brute force to n = {args.brute_n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
