"""Element-wise verification of the structural facts behind the counts.

Every structural check here either scans an exhaustively enumerated
class for a claimed property or rebuilds a class from a case
decomposition and compares multisets, so its failures come with a
concrete witness permutation.  Reconstruction checks demand every
element be produced exactly once: overcounting is as much a failure as
undercounting.  Cross counts and series identities yield witnesses with
no permutation.  A check returns a ``VerificationReport`` of plain data,
which ``permlab.cli`` renders; it passes when it has no witness.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from itertools import combinations, permutations, product
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence

from permlab.enumeration import (
    PatternBasis,
    class_levels,
    count_class,
    enumerate_simples,
    simples_by_insertion,
)
from permlab.perms import (
    Perm,
    avoids_all,
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
    perm_to_text,
    skew_sum,
    standardize,
    strip_leading_maxima,
)
from permlab.series import IDENTITIES, PAPER_BASES, check_identity, identity_ids, named_series

BASIS_2143 = PatternBasis.from_text("2143")
BASIS_2143_3142 = PatternBasis.from_text("2143,3142")
PAT_132 = (1, 3, 2)


@dataclass
class VerificationReport:
    check_id: str
    max_n: int
    witnesses: list[tuple[Perm, str]]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        """A check passes when it found no witness."""
        return not self.witnesses


@dataclass(frozen=True)
class CaseTag:
    """Which branch of a case decomposition produced an element."""

    case_id: str  # "no-gap" | "one-gap" | "multi-gap"
    payload: tuple = ()

    def __str__(self) -> str:
        if not self.payload:
            return self.case_id
        return f"{self.case_id}{self.payload}"


def _reported(check_id: str):
    """Make a generator of (perm, reason) witnesses the check ``check_id``.

    The check takes the generator's arguments, runs it to its end and
    returns the report at ``max_n`` with every witness it yielded,
    shortest and least first.  Its time is the time the generator took.
    """

    def decorate(witnesses: Callable[..., Iterable[tuple[Perm, str]]]
                 ) -> Callable[..., VerificationReport]:
        @wraps(witnesses)
        def check(max_n: int, *args, **kwargs) -> VerificationReport:
            started = time.perf_counter()
            found = sorted(witnesses(max_n, *args, **kwargs), key=lambda w: (len(w[0]), w[0]))
            return VerificationReport(check_id, max_n, found,
                                      (time.perf_counter() - started) * 1000.0)

        return check

    return decorate


STRUCTURAL_CHECKS: dict[str, Callable[[int], VerificationReport]] = {}


def _structural(check_id: str, *, cap: int | None = None):
    """As ``_reported``, and register the check in ``STRUCTURAL_CHECKS``.

    ``run_check`` runs a registered check at ``--max-n``, or at ``cap``
    if that is smaller.  ``verify --all`` runs them in the order they are
    defined here.
    """

    def decorate(witnesses: Callable[[int], Iterable[tuple[Perm, str]]]
                 ) -> Callable[..., VerificationReport]:
        check = _reported(check_id)(witnesses)
        STRUCTURAL_CHECKS[check_id] = (
            check if cap is None else lambda max_n: check(min(max_n, cap))
        )
        return check

    return decorate


# ---------------------------------------------------------------------------
# structural scans


@_structural("top-values")
def check_top_values(max_n: int) -> Iterator[tuple[Perm, str]]:
    """Over Av(2143): the LR-maxima from the last leading maximum onward
    carry exactly the top values, and that position is a horizontal gap
    unless the permutation is the identity."""
    for n, level in enumerate(class_levels(BASIS_2143, max_n)):
        if n == 0:
            continue
        for p in level:
            ell = leading_maxima_count(p)
            lrset = set(lr_maxima(p))
            tail = {p[i - 1] for i in lrset if i >= ell}
            expect = set(range(p[ell - 1], n + 1))
            if tail != expect:
                yield p, f"LR tail values {sorted(tail)} != {sorted(expect)}"
            if any(p[ell - 1] <= p[i - 1] for i in range(1, n + 1) if i not in lrset):
                yield p, "a non-LR-maximum exceeds the last leading maximum"
            if p != identity(n) and ell not in horizontal_gaps(p):
                yield p, "last leading maximum is not a horizontal gap"


def _gap_blocks(p: Perm) -> list[Perm]:
    """Standardized non-LR-max content following each horizontal gap."""
    gaps = horizontal_gaps(p)
    lr = set(lr_maxima(p))
    blocks: list[list[int]] = [[] for _ in gaps]
    g = -1
    for i, v in enumerate(p, start=1):
        if i in lr:
            if g + 1 < len(gaps) and i == gaps[g + 1]:
                g += 1
            continue
        blocks[g].append(v)
    return [standardize(b) for b in blocks]


@_structural("gap-staircase")
def check_gap_staircase(max_n: int) -> Iterator[tuple[Perm, str]]:
    """Over Av(2143,3142): deleting all LR-maxima leaves the skew sum of
    the per-gap blocks."""
    for level in class_levels(BASIS_2143_3142, max_n):
        for p in level:
            blocks = _gap_blocks(p)
            stacked: Perm = ()
            for b in blocks:
                stacked = skew_sum(stacked, b)
            got = delete_lr_maxima(p)
            if got != stacked:
                yield p, f"deleting LR-maxima gives {got}, gap blocks stack to {stacked}"


@_structural("strip-132")
def check_strip_characterization(max_n: int) -> Iterator[tuple[Perm, str]]:
    """Membership in the 4132 class == stripped permutation avoids 132,
    over every permutation of each length.

    Membership is a set lookup in the enumerated level of the class
    (``avoids_all`` is its oracle in the enumeration tests); the 132
    test runs on every permutation of S_n."""
    levels = class_levels(PAPER_BASES["4132"], max_n)
    for n in range(max_n + 1):
        members = set(levels[n])
        for p in permutations(range(1, n + 1)):
            member = p in members
            stripped_ok = not contains(strip_leading_maxima(p), PAT_132)
            if member != stripped_ok:
                yield p, f"class membership {member} but stripped-avoids-132 {stripped_ok}"


# ---------------------------------------------------------------------------
# case-decomposition rebuilds


def _one_gap_pairs(levels: Sequence[Sequence[Perm]], max_core: int,
                   require_132_rest: bool) -> Iterator[tuple[Perm, int]]:
    """(beta, i) pairs usable for single-gap extraction cores."""
    for b_len in range(1, max_core):
        for beta in levels[b_len]:
            top = min(leading_maxima_count(beta), b_len - 1)
            for i in range(top + 1):
                if require_132_rest and not contains(beta[i:], PAT_132):
                    continue
                yield beta, i


def _with_trailing_runs(core: Perm, tag: CaseTag, max_n: int):
    for m in range(max_n - len(core) + 1):
        yield direct_sum(core, identity(m)), tag


def _gen_254613(max_n: int) -> Iterator[tuple[Perm, CaseTag]]:
    levels = class_levels(PAPER_BASES["254613"], max_n)
    for n in range(max_n + 1):
        yield identity(n), CaseTag("no-gap")
    for beta, i in _one_gap_pairs(levels, max_n, require_132_rest=False):
        core = extraction((1,), beta, i)
        yield from _with_trailing_runs(core, CaseTag("one-gap", (beta, i)), max_n)
    # multi-gap: one gap insertion on a gapped seed, then any number of
    # block insertions, then a trailing run
    frontier: list[tuple[Perm, CaseTag]] = []
    for p0_len in range(2, max_n - 1):
        for p0 in levels[p0_len]:
            if p0 == identity(p0_len):
                continue
            capped = direct_sum(p0, (1,))
            for k1 in range(max_n - p0_len - 1):
                for b_len in range(1, max_n - p0_len - k1):
                    for beta in levels[b_len]:
                        x = direct_sum(identity(k1), skew_sum(capped, beta))
                        frontier.append((x, CaseTag("multi-gap", (p0, k1, beta))))
    while frontier:
        x, tag = frontier.pop()
        yield from _with_trailing_runs(x, tag, max_n)
        for k in range(max_n - len(x) - 1):
            for b_len in range(1, max_n - len(x) - k):
                for beta in levels[b_len]:
                    x2 = direct_sum(identity(k), skew_sum(direct_sum((1,), x), beta))
                    frontier.append((x2, CaseTag("multi-gap", tag.payload + (k, beta))))


def _gen_132_free_or_one_gap(basis: PatternBasis, max_n: int):
    """The cases the 524361 and 546132 rebuilds share.

    Every member of the 4132 class (the 132-free case, any gap count),
    then each single-gap extraction core whose rest contains 132, with
    its trailing runs.  Returns the (beta, i) pairs of those cores.
    """
    for level in class_levels(PAPER_BASES["4132"], max_n):
        for p in level:
            yield p, CaseTag("no-gap")
    pairs = list(_one_gap_pairs(class_levels(basis, max_n), max_n, require_132_rest=True))
    for beta, i in pairs:
        core = extraction((1,), beta, i)
        yield from _with_trailing_runs(core, CaseTag("one-gap", (beta, i)), max_n)
    return pairs


def _gen_524361(max_n: int) -> Iterator[tuple[Perm, CaseTag]]:
    levels_4132 = class_levels(PAPER_BASES["4132"], max_n)
    pairs = yield from _gen_132_free_or_one_gap(PAPER_BASES["524361"], max_n)
    for a_len in range(1, max_n - 3):
        for alpha in levels_4132[a_len]:
            if alpha[0] == 1:
                continue
            alpha_prime = direct_sum(alpha, (1,))
            for beta, i in pairs:
                if a_len + 1 + len(beta) > max_n:
                    continue
                core = extraction(alpha_prime, beta, i)
                yield from _with_trailing_runs(
                    core, CaseTag("multi-gap", (alpha, beta, i)), max_n
                )


def _in_relocation_domain(sigma: Perm) -> bool:
    """sigma != empty and the last leading maximum is not one more than
    its predecessor (predecessor of position 1 reads as value 0)."""
    if not sigma:
        return False
    ell = leading_maxima_count(sigma)
    prev = sigma[ell - 2] if ell >= 2 else 0
    return sigma[ell - 1] - 1 != prev


def _gen_546132(max_n: int) -> Iterator[tuple[Perm, CaseTag]]:
    levels_4132 = class_levels(PAPER_BASES["4132"], max_n)
    one_gap_by_len: dict[int, list[Perm]] = {}
    for p, tag in _gen_132_free_or_one_gap(PAPER_BASES["546132"], max_n):
        yield p, tag
        if tag.case_id == "one-gap":
            one_gap_by_len.setdefault(len(p), []).append(p)
    for b_len in range(1, max_n):
        for beta in levels_4132[b_len]:
            if not _in_relocation_domain(beta):
                continue
            ell = leading_maxima_count(beta)
            for a_len in range(4, max_n - b_len + 1):
                for alpha in one_gap_by_len.get(a_len, []):
                    blocks = [(1,)] * b_len
                    blocks[ell - 1] = direct_sum(alpha, (1,))
                    yield inflate(beta, blocks), CaseTag("multi-gap", (alpha, beta))


def _rebuild_check(basis: PatternBasis,
                   gen: Callable[[int], Iterator[tuple[Perm, CaseTag]]],
                   max_n: int) -> Iterator[tuple[Perm, str]]:
    """Witnesses that ``gen`` does not produce each member of the class once."""
    produced: Counter[Perm] = Counter()
    tags: dict[Perm, list[CaseTag]] = {}
    for p, tag in gen(max_n):
        produced[p] += 1
        tags.setdefault(p, []).append(tag)
    members: set[Perm] = set()
    for level in class_levels(basis, max_n):
        for p in level:
            members.add(p)
            got = produced.get(p, 0)
            if got == 0:
                yield p, "class element never generated"
            elif got > 1:
                via = ", ".join(str(t) for t in tags[p][:3])
                yield p, f"generated {got} times (via {via})"
    for p, count in produced.items():
        if p not in members:
            yield p, f"generated {count}x but not in the class"


@_structural("rebuild-254613")
def check_rebuild_254613(max_n: int) -> Iterator[tuple[Perm, str]]:
    """Identity / single-gap-extraction / gap-and-block-insertion cases
    rebuild the 254613 class exactly once each."""
    return _rebuild_check(PAPER_BASES["254613"], _gen_254613, max_n)


@_structural("rebuild-524361")
def check_rebuild_524361(max_n: int) -> Iterator[tuple[Perm, str]]:
    """132-free case plus extraction cases rebuild the 524361 class."""
    return _rebuild_check(PAPER_BASES["524361"], _gen_524361, max_n)


@_structural("rebuild-546132")
def check_rebuild_546132(max_n: int) -> Iterator[tuple[Perm, str]]:
    """132-free case, extraction case, and the inflate-at-last-leading-
    maximum case rebuild the 546132 class."""
    return _rebuild_check(PAPER_BASES["546132"], _gen_546132, max_n)


# ---------------------------------------------------------------------------
# the prefix-relocation bijection


def relocate_identity_prefix(sigma: Perm) -> Perm:
    """Slide the maximal identity prefix to sit directly below and before
    the last leading maximum, values packed just under it."""
    ell = leading_maxima_count(sigma)
    i = 0
    while i < len(sigma) and sigma[i] == i + 1:
        i += 1
    if i == 0:
        return sigma
    top = sigma[ell - 1]

    def remap(v: int) -> int:
        if v <= i:
            return v + top - i - 1
        if v < top:
            return v - i
        return v

    middle = tuple(remap(v) for v in sigma[i : ell - 1])
    moved = tuple(range(top - i, top))
    return middle + moved + (top,) + tuple(remap(v) for v in sigma[ell:])


@_structural("prefix-relocation")
def check_prefix_relocation(max_n: int) -> Iterator[tuple[Perm, str]]:
    """The relocation map is a length- and leading-maxima-preserving
    bijection from the bonded-top subset onto the first-entry != 1 subset
    of the 4132 class."""
    levels = class_levels(PAPER_BASES["4132"], max_n)
    for n, level in enumerate(levels):
        if n == 0:
            continue
        members = set(level)
        domain = [p for p in level if _in_relocation_domain(p)]
        codomain = {p for p in level if p[0] != 1}
        image = set()
        for sigma in domain:
            tau = relocate_identity_prefix(sigma)
            if len(tau) != n:
                yield sigma, f"image {tau} has wrong length"
                continue
            if tau not in members:
                yield sigma, f"image {tau} left the class"
            if tau[0] == 1:
                yield sigma, f"image {tau} starts with 1"
            if leading_maxima_count(tau) != leading_maxima_count(sigma):
                yield sigma, f"image {tau} changed leading maxima"
            if tau in image:
                yield sigma, f"image {tau} already hit (not injective)"
            image.add(tau)
        if len(domain) != len(codomain):
            yield (), f"n={n}: domain size {len(domain)} != codomain size {len(codomain)}"
        elif image != codomain:
            missed = sorted(codomain - image)[:3]
            yield from ((p, "never hit by the relocation map") for p in missed)


# ---------------------------------------------------------------------------
# simples


@_structural("simples-coincide")
def check_simples_coincide(max_n: int) -> Iterator[tuple[Perm, str]]:
    """The 263514 and 4132 classes have identical simple members."""
    simples_263514 = enumerate_simples(PAPER_BASES["263514"], max_n)
    simples_4132 = enumerate_simples(PAPER_BASES["4132"], max_n)
    for a, b in zip(map(set, simples_263514), map(set, simples_4132)):
        for p in sorted(a - b):
            yield p, "simple in the 263514 class only"
        for p in sorted(b - a):
            yield p, "simple in the 4132 class only"


@_structural("simples-construction")
def check_simples_construction(max_n: int) -> Iterator[tuple[Perm, str]]:
    """Leading-maximum insertion into 132-avoiders yields exactly the
    simples of the 4132 class (plus 1, 12, 21 at short lengths)."""
    simples = enumerate_simples(PAPER_BASES["4132"], max_n)
    short = {1: [(1,)], 2: [(1, 2), (2, 1)], 3: []}
    for n, expect in short.items():
        if n <= max_n and simples[n] != expect:
            yield (), f"n={n}: simples {simples[n]} != {expect}"
    constructed = simples_by_insertion(max_n)
    for n in range(4, max_n + 1):
        built = constructed[n]
        built_set, enum_set = set(built), set(simples[n])
        if len(built) != len(built_set):
            dup = [p for p, c in Counter(built).items() if c > 1][:3]
            yield from ((p, "constructed more than once") for p in dup)
        for p in sorted(built_set - enum_set):
            yield p, "constructed but not a class simple"
        for p in sorted(enum_set - built_set):
            yield p, "class simple the construction misses"


def _is_one_of_132(p: Perm, i: int) -> bool:
    """p_i is the 1 of a 132: the later entries above p_i are not increasing."""
    above = [v for v in p[i:] if v > p[i - 1]]
    return any(a > b for a, b in zip(above, above[1:]))


def _is_three_of_213(p: Perm, i: int) -> bool:
    """p_i is the 3 of a 213: the earlier entries below p_i are not increasing."""
    below = [v for v in p[:i - 1] if v < p[i - 1]]
    return any(a > b for a, b in zip(below, below[1:]))


@_structural("inflation-rules")
def check_inflation_rules(max_n: int) -> Iterator[tuple[Perm, str]]:
    """Position classification of class simples, and closure of inflation:
    constrained positions tolerate only increasing blocks, free positions
    tolerate every small class member."""
    basis = PAPER_BASES["263514"].patterns
    levels = class_levels(PAPER_BASES["263514"], max_n)
    small_blocks = [p for level in levels[2:4] for p in level if p != identity(len(p))]
    for n in range(4, max_n + 1):
        for sigma in filter(is_simple, levels[n]):
            ell = leading_maxima_count(sigma)
            suffix_lrmin = set(lr_minima(standardize(sigma[ell:])))
            constrained = set()
            for i in range(1, n + 1):
                is_one = _is_one_of_132(sigma, i)
                is_three = _is_three_of_213(sigma, i)
                want_one = i < ell
                want_three = i > ell and (i - ell) not in suffix_lrmin
                if is_one != want_one:
                    yield sigma, f"position {i}: 1-of-132 is {is_one}, classified {want_one}"
                if is_three != want_three:
                    yield (
                        sigma, f"position {i}: 3-of-213 is {is_three}, classified {want_three}"
                    )
                if is_one or is_three:
                    constrained.add(i)
            free = set(range(1, n + 1)) - constrained
            ones = [(1,)] * n
            for i in constrained:
                blocks = list(ones)
                blocks[i - 1] = (2, 1)
                if avoids_all(inflate(sigma, blocks), basis):
                    yield sigma, f"21 at constrained position {i} stays in the class"
            for i in free:
                for rho in small_blocks:
                    blocks = list(ones)
                    blocks[i - 1] = rho
                    if not avoids_all(inflate(sigma, blocks), basis):
                        yield (
                            sigma, f"{perm_to_text(rho)} at free position {i} leaves the class"
                        )
            joint = [
                (2, 1) if i in free else (1, 2) for i in range(1, n + 1)
            ]
            if not avoids_all(inflate(sigma, joint), basis):
                yield sigma, "joint conforming inflation leaves the class"


# ---------------------------------------------------------------------------
# deflation uniqueness


def _lex_rank(p: Perm) -> int:
    """The position of ``p`` in the lexicographic order of S_n."""
    n = len(p)
    rank = used = 0  # used: bit v set once v has been read
    for i, v in enumerate(p):
        # the digit is how many values below v are still unread
        rank = rank * (n - i) + v - 1 - (used & ((1 << v) - 1)).bit_count()
        used |= 1 << v
    return rank


def _deflation_tallies(max_n: int) -> Iterator[tuple[int, bytearray, bytearray]]:
    """For n = 1, ..., max_n: (n, counts, agrees), indexed by lex rank in S_n.

    ``counts[r]`` is the number of ways to write the permutation of rank
    r as a simple skeleton of length k >= 2 inflated by blocks that
    honor the 12/21 first-block conventions (sum-indecomposable first
    block under 12, skew-indecomposable under 21); the skeleton 1 is
    only for n = 1.  Each such pair is generated, inflated and tallied
    once, and ``agrees[r]`` is set when ``deflate()`` of its inflation
    returns it.  ``is_simple`` runs once on each permutation of
    S_2..S_max_n, and only S_1..S_{max_n - 1} are held as blocks.
    """
    levels: list[list[Perm]] = [[()], [(1,)]]  # levels[m] = S_m in lex order
    simples: list[list[Perm]] = [[], [(1,)]]  # simples[k]: the skeletons of length k
    for n in range(1, max_n + 1):
        if len(levels) < n:
            levels.append(list(permutations(range(1, n))))
        if n > 1:
            simples.append([s for s in permutations(range(1, n + 1)) if is_simple(s)])
        first_blocks = {
            (1, 2): [[b for b in level if not is_sum_decomposable(b)] for level in levels],
            (2, 1): [[b for b in level if not is_skew_decomposable(b)] for level in levels],
        }
        counts = bytearray(factorial(n))
        agrees = bytearray(factorial(n))
        for k in range(2, n + 1) if n > 1 else (1,):
            for cuts in combinations(range(1, n), k - 1):
                sizes = [b - a for a, b in zip((0, *cuts), (*cuts, n))]
                rest = [levels[m] for m in sizes[1:]]
                for sigma in simples[k]:
                    first = first_blocks.get(sigma, levels)[sizes[0]]
                    for blocks in product(first, *rest):
                        q = inflate(sigma, blocks)
                        r = _lex_rank(q)
                        counts[r] += 1
                        if deflate(q) == (sigma, blocks):
                            agrees[r] = 1
        yield n, counts, agrees


@_structural("deflation-uniqueness", cap=7)
def check_deflation_uniqueness(max_n: int) -> Iterator[tuple[Perm, str]]:
    """deflate() returns the unique convention-respecting decomposition.

    Each length is checked against ``_deflation_tallies``.  A
    permutation counted once by a decomposition that ``deflate()``
    returns passes, and inflates back by construction; any other is
    deflated again and reported as not inflating back, as having some
    other number of decompositions, or as disagreeing, in that order.
    """
    for n, counts, agrees in _deflation_tallies(max_n):
        for r, p in enumerate(permutations(range(1, n + 1))):
            if counts[r] == 1 and agrees[r]:
                continue
            d = deflate(p)
            if inflate(d.skeleton, d.blocks) != p:
                yield p, "deflation does not inflate back"
            elif counts[r] != 1:
                yield p, f"{counts[r]} convention-respecting decompositions"
            else:
                yield p, "deflate() disagrees with the inflation tally"


# ---------------------------------------------------------------------------
# cross counts


DEFAULT_COUNT_TARGETS: list[tuple[PatternBasis, str]] = [
    (PAPER_BASES["254613"], "large-schroder"),
    (PAPER_BASES["524361"], "large-schroder"),
    (PAPER_BASES["546132"], "large-schroder"),
    (PAPER_BASES["263514"], "large-schroder"),
    (PAPER_BASES["4132"], "a033321"),
]


@_reported("cross-count")
def check_cross_counts(max_n: int,
                       targets: Sequence[tuple[PatternBasis, str]] | None = None
                       ) -> Iterator[tuple[Perm, str]]:
    """Class counts match their closed-form series coefficient by coefficient."""
    for basis, series_name in (targets if targets is not None else DEFAULT_COUNT_TARGETS):
        counts = count_class(basis, max_n)
        coeffs = named_series(series_name, max_n).x_coefficients()
        for n, (got, want) in enumerate(zip(counts, coeffs)):
            if got != want:
                yield (), (f"basis {basis.key}: count {got} at n={n}, "
                           f"{series_name} coefficient {want}")
                break


# ---------------------------------------------------------------------------
# aggregation


def check_ids() -> list[str]:
    return [*STRUCTURAL_CHECKS, "cross-count", *identity_ids()]


def _identity_witnesses(order: int, identity_id: str) -> Iterator[tuple[Perm, str]]:
    """The first coefficient at which the sides of the identity differ, if any."""
    mismatch = check_identity(identity_id, order)
    if mismatch is not None:
        (ex, et, eu), lhs, rhs = mismatch
        yield (), f"coefficient of x^{ex} t^{et} u^{eu}: lhs {lhs} != rhs {rhs}"


def run_check(check_id: str, max_n: int, order: int, *, count_n: int) -> VerificationReport:
    """Run one registered structural check or series identity by id.

    Structural checks run at max_n (or their cap, if smaller), cross
    counts at count_n, closed-form identities at ``order`` and
    enumeration-backed ones at min(order, max_n).
    """
    if check_id in STRUCTURAL_CHECKS:
        return STRUCTURAL_CHECKS[check_id](max_n)
    if check_id == "cross-count":
        return check_cross_counts(count_n)
    if check_id in identity_ids():
        budget = min(order, max_n) if IDENTITIES[check_id].enum_backed else order
        return _reported(check_id)(_identity_witnesses)(budget, check_id)
    raise KeyError(
        f"unknown check id {check_id!r}; known: {', '.join(check_ids())}"
    )


def run_all(max_n: int, order: int, *, count_n: int) -> list[VerificationReport]:
    """Every registered check, in ``check_ids()`` order, at ``run_check``'s budgets."""
    return [run_check(cid, max_n, order, count_n=count_n) for cid in check_ids()]

