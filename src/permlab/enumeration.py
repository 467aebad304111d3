"""Exhaustive, pruned enumeration of pattern-avoidance classes.

Every member of Av_{n+1}(basis) arises exactly once by inserting the new
maximum n+1 into one of the n+1 slots of a member of Av_n(basis).  Each
member carries a blocked-slot mask, bit s set when the new maximum at
slot s completes a pattern; the one slot of the root () is blocked only
by the pattern 1.  A child gets its mask from its parent's: the
parent's, with the slot of n+1 counted on both sides of it, since an
occurrence that misses n+1 is one in the parent already, ORed with the
slots where n+2 completes an occurrence as the pattern's largest entry
k with n+1 as its k-1.  The pattern's other entries then occur in the
parent, so each parent keeps one list, one int per slot, into which
every pattern ORs the new blocks of that slot's child: 3142 and 4132 by
a closed rule, every other pattern by a search for those other entries.
2143 adds, per child, the slots between the parent's increasing prefix
and the child's n+1; each member also carries that prefix's length.  No
member is ever searched for a pattern.

All of it is one function per basis, the insertion step
(``_insertion_rules``): Python source with every pattern's rule written
inline, compiled once per call.  It takes a node (member, mask, run)
and either counts the node's subtree depth-first or lists its children
as nodes.

``class_levels`` grows whole levels breadth-first (``_grow``), each
sorted lexicographically, and caches them per basis.  The cache holds
no masks, so a call that continues a cached prefix grows the masks of
its top level again from the root.  Every command and check asks each
class for one length only, its deepest (``enumerate_simples`` and
``simples_by_insertion`` answer for every length up to it at once), so
none of them pays that rebuild.  The last level built gets no masks.

``count_class`` reads, builds and caches no level: the step walks the
insertion tree depth-first from the root, and a node two levels above
the last adds its children's free slots, popcounts of their masks, in
its slot loop, so the last two levels are never built.

Level builds run in one process.  With p processes, ``count_class``
grows levels here until one is large enough, then forks p - 1 workers
once per call (``_in_workers``).  Each of the p processes, the caller
included, counts the subtrees of every p-th node of that level, and the
per-level totals are summed.  Every function returns plain data, which
``permlab.cli`` renders.
"""

from __future__ import annotations

import os
import textwrap
from dataclasses import dataclass
from math import inf
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from permlab.perms import (
    Perm,
    bond_count,
    contains,
    is_simple,
    leading_maxima_count,
    lr_minima,
    parse_permutation,
    perm_to_text,
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

    def __len__(self):
        return len(self.patterns)


# ---------------------------------------------------------------------------
# the insertion step: blocked-slot masks inherited down the tree
#
# A child inserts n+1 at slot s of a parent of length n.  Inserting n+2
# at child slot t makes an occurrence either without n+1, which is one
# of the parent at slot t (t <= s) or t-1 (t > s), or with n+2 as the
# pattern's largest entry k and n+1 as its k-1.  The other entries of
# such an occurrence form tau'' (the pattern without k and k-1) in the
# parent, and their positions fix both the slots s and the slots t.  So
# each pattern has a block of source that ORs, per parent, the child
# slots this second kind adds into one list ``added`` of n+1 ints, one
# per slot s: 3142 and 4132 by a closed rule each, every other pattern
# by a search for its tau'' generated for that pattern.  A block reads
# the locals ``parent``, ``n`` and ``free`` and is exact at every free
# slot.  2143 has no block: the child at slot s gains the slots
# run+1..s, run being the length of the parent's increasing prefix,
# which each node carries (the child's is s + 1 if s <= run, else run).
# The pattern 1 has none either: it blocks the root's one slot, so the
# class is empty from length 1 on.

_NEW_SLOT_RULES: dict[Perm, str] = {
    # With n+1 at slot s as the 3, n+2 at child slot c+1 is the 4 of an
    # occurrence exactly when some parent[i] with s <= i < c, the 1, lies
    # below max(parent[c:]), which holds the 2.  For one i these cuts are
    # i+1..j, where j is the last position of a value above parent[i];
    # slot s gets them ORed over all i >= s.
    (3, 1, 4, 2): """\
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
    added[i] |= acc
""",
    # n+2 is the 4 left of the 1 and n+1 is the 3, so the 1 lies before
    # slot s and the 2 after it: the child gains the slots 0..t0, t0 being
    # the last i < s with parent[i] < max(parent[s:]).  Each free slot
    # scans left from s - 1 for it, so a parent with a long decreasing
    # suffix costs O(n) per free slot.
    (4, 1, 3, 2): """\
top = 0  # max(parent[s:])
for s in range(n - 1, 0, -1):
    if parent[s] > top:
        top = parent[s]
    if free >> s & 1:
        i = s - 1
        while i >= 0 and parent[i] > top:
            i -= 1
        if i >= 0:
            added[s] |= (2 << i) - 1
""",
}


def _new_slot_search(pattern: Perm) -> tuple[str, str]:
    """Generate the search for ``pattern``'s (length >= 2) new slots.

    Returns Python source ``(block, helpers)``.  The block ORs into
    ``added[s]``, for each slot s in ``free``, the child slots where n+2
    completes an occurrence with n+1.  Seen from the parent, n+1 and
    n+2 take two slots x <= y, in the pattern's order, x after X of the
    m = k - 2 entries of tau'' and y after Y of them.  An occurrence of
    tau'' at positions i_0 < ... < i_(m-1) then allows exactly the pairs
    with i_(X-1) < x <= i_X and i_(Y-1) < y <= i_Y (i_(-1) = -1 and
    i_m = n).  For each occurrence of the first Y entries, the search
    takes the last i_Y that completes it, whose pairs hold those of
    every other completion.

    Entries 0..Y-1 are nested ``for`` loops over positions, each value
    window a comparison of two local variables.  Entry Y is a scan down
    from the right, and the entries after it a nested existence check
    that breaks out at the first completion.  CPython rejects more than
    20 statically nested blocks, so once 16 loops are open (the scan for
    entry Y may make 17, and the step and the recording loop 2 more),
    the rest of the nest goes into a helper function, defined in
    ``helpers`` and named after the pattern, that takes the chosen
    positions and values as arguments.
    """
    k = len(pattern)
    m = k - 2
    at_k, at_k1 = pattern.index(k), pattern.index(k - 1)
    s_is_x = at_k > at_k1  # n+1, at slot s, comes before n+2
    X, Y = (at_k1, at_k - 1) if s_is_x else (at_k, at_k1 - 1)
    # window bound m (lower) or m + 1 (upper) means no earlier entry bounds it
    lo_of, hi_of = window_sources(standardize([v for v in pattern if v < k - 1]))
    max_loops = 16  # open at once, below CPython's 20 nested blocks
    tag = "_".join(map(str, pattern))
    helpers: list[str] = []

    def define(name: str, params: list[str], body: list[str]) -> str:
        call = f"{name}_{tag}({', '.join(params)})"
        helpers.extend([f"def {call}:", *body])
        return call

    def loop(j: int, pos: str, positions: str, ind: str) -> tuple[list[str], str]:
        # the lines that choose entry j at ``pos``, and their body's indent
        lines = [f"{ind}for {pos} in {positions}:", f"{ind}    v{j} = parent[{pos}]"]
        lo = f"v{lo_of[j]} < " if lo_of[j] < m else ""
        hi = f" < v{hi_of[j]}" if hi_of[j] < m else ""
        if not (lo or hi):
            return lines, ind + "    "
        return lines + [f"{ind}    if {lo}v{j}{hi}:"], ind + "        "

    def after(j: int, prev: str) -> str:
        # positions of entry j past ``prev`` that leave room for the rest
        start = "0" if prev == "-1" else f"{prev} + 1"
        return f"range({start}, n - {m - 1 - j})" if j < m - 1 else f"range({start}, n)"

    def first(j: int, ind: str, loops: int) -> list[str]:
        # entries j..Y-1 in position order, then close
        if j == Y:
            return close(ind, loops)
        if loops == max_loops:
            names = [f"{c}{i}" for c in "pv" for i in range(j)]
            call = define(f"first_{j}", ["parent", "free", "added", "n", *names],
                          first(j, "    ", 0))
            return [ind + call]
        lines, inner = loop(j, f"p{j}", after(j, f"p{j - 1}" if j else "-1"), ind)
        return lines + first(j + 1, inner, loops + 1)

    def exists(j: int, prev: str, ind: str, loops: int, fail: str,
               found: list[str]) -> list[str]:
        # run ``found`` if entries j..m-1 occur after position ``prev``,
        # else ``fail``
        if loops >= max_loops:
            params = ["parent", "n", prev, *(f"v{i}" for i in range(j))]
            call = define(f"rest_{j}", params,
                          exists(j, prev, "    ", 0, "return False", ["return True"]))
            return [f"{ind}if {call}:", *(f"{ind}    {line}" for line in found),
                    f"{ind}{fail}"]
        lines, inner = loop(j, f"q{j}", after(j, prev), ind)
        lines += ([f"{inner}break"] if j == m - 1
                  else exists(j + 1, f"q{j}", inner, loops + 1, "continue", ["break"]))
        return lines + [f"{ind}else:", f"{ind}    {fail}", *(ind + line for line in found)]

    def close(ind: str, loops: int) -> list[str]:
        # the first Y entries end at a: record the pairs of the last i_Y
        a = f"p{Y - 1}" if Y else "-1"
        top = "n" if Y == m else "top"
        # 1 << x_lo and 1 << y_lo, x_lo = i_(X-1) + 1 and y_lo = i_(Y-1) + 1
        x_low = f"2 << p{X - 1}" if X else "1"
        y_low = f"2 << {a}" if Y else "1"
        if s_is_x:
            # n+1 at slot s in [x_lo, x_hi], n+2 at parent slot u in
            # [max(s, y_lo), i_Y], which is child slot u + 1
            if X < Y:  # every s lies below y_lo
                todo = f"free & ((2 << p{X}) - ({x_low}))"
                gain = f"(4 << {top}) - (4 << {a})"
            else:
                todo = f"free & ((2 << {top}) - ({x_low}))"
                gain = f"(4 << {top}) - (low << 1)"
        else:
            # n+1 at slot s in [y_lo, i_Y], n+2 at child slot u in
            # [x_lo, min(s, x_hi)]
            todo = f"free & ((2 << {top}) - ({y_low}))"
            gain = f"(2 << p{X}) - ({x_low})" if X < Y else f"(low << 1) - ({x_low})"
        record = [
            f"todo = {todo}",
            "while todo:",
            "    low = todo & -todo",
            "    todo ^= low",
            f"    added[low.bit_length() - 1] |= {gain}",
        ]
        if Y == m:
            return [ind + line for line in record]
        # the last i_Y: scan down, record at the first that completes, stop
        lines, inner = loop(Y, "top", f"range(n - {m - Y}, {a}, -1)", ind)
        if Y == m - 1:
            return lines + [inner + line for line in (*record, "break")]
        return lines + exists(Y + 1, "top", inner, loops + 1, "continue", [*record, "break"])

    block = first(0, "", 0)
    return "\n".join(block) + "\n", "".join(line + "\n" for line in helpers)


_Node = tuple[Perm, int, int]  # (member, blocked-slot mask, increasing run)
_Step = Callable[[Perm, int, int, int, list], None]


def _compile_step(blocks: Sequence[tuple[str, str]], with_2143: bool) -> _Step:
    """Compile one node's step from ``blocks`` and, if ``with_2143``, 2143's rule.

    ``step(parent, blocked, run, left, out)`` takes a node: a member, its
    blocked-slot mask and the length of its increasing prefix.  With
    ``left`` >= 0 it counts the node's subtree, whose children lie
    ``left`` levels above the last: ``out[left]`` gains the node's
    children, and at ``left`` 1 ``out[0]`` gains their free slots,
    summed from their masks in the slot loop with no child built.  With
    ``left`` < 0 it appends the node's children to ``out`` as nodes, in
    slot order.  In its source, {rules} is each pattern's block and
    {mask} the child mask at slot s: the parent's mask with bit s
    doubled, ORed with added[s] and, with 2143, with its slots run+1..s.
    """
    rules = "".join(block for block, _ in blocks)
    mask = "blocked + (blocked & -low)"
    if rules:
        rules = "added = [0] * (n + 1)\n" + rules
        mask += " | added[s]"
    if with_2143:
        rules = "past = 2 << run  # the bit of slot run + 1\n" + rules
        mask += " | ((2 << s) - past if s > run else 0)"
    step = """\
def step(parent, blocked, run, left, out):
    n = len(parent)
    free = ~blocked & ((2 << n) - 1)
    if left >= 0:
        k = free.bit_count()
        out[left] += k
        if not left:
            return
    if not free:
        return
{rules}
    todo = free
    if left == 1:
        leaves = (n + 2) * k
        while todo:
            low = todo & -todo
            todo ^= low
            s = low.bit_length() - 1
            leaves -= ({mask}).bit_count()
        out[0] += leaves
        return
    new_val = n + 1
    left -= 1
    while todo:
        low = todo & -todo
        todo ^= low
        s = low.bit_length() - 1
        child = parent[:s] + (new_val,) + parent[s:]
        mask = {mask}
        if left < 0:
            out.append((child, mask, s + 1 if s <= run else run))
        else:
            step(child, mask, s + 1 if s <= run else run, left, out)
"""
    source = "".join(helpers for _, helpers in blocks) + step.format(
        rules=textwrap.indent(rules, " " * 4), mask=mask)
    namespace: dict = {}
    exec(compile(source, "<insertion step>", "exec"), namespace)
    return namespace["step"]


def _insertion_rules(patterns: Sequence[Perm]) -> _Step:
    """The insertion step of ``patterns``, compiled once per call, before any fork.

    Each pattern but 1 and 2143 brings its closed rule's block or its
    generated search.
    """
    blocks = [
        (rule, "") if (rule := _NEW_SLOT_RULES.get(pattern)) else _new_slot_search(pattern)
        for pattern in patterns if len(pattern) > 1 and pattern != (2, 1, 4, 3)
    ]
    return _compile_step(blocks, (2, 1, 4, 3) in patterns)


def _root(patterns: Sequence[Perm]) -> list[_Node]:
    """Level 0 as nodes: the one slot of () is blocked only by the pattern 1."""
    return [((), int((1,) in patterns), 0)]


def _count_subtrees(nodes: Sequence[_Node], depth: int, step: _Step) -> list[int]:
    """How many class members lie 1, ..., ``depth`` levels below ``nodes``.

    A depth-first walk by ``step`` that holds one root-to-leaf path, so
    neither the last level nor the one above it is built.  Also one
    process's share of a parallel count.
    """
    totals = [0] * depth
    if depth > 0:
        for parent, blocked, run in nodes:
            step(parent, blocked, run, depth - 1, totals)
    return totals[::-1]


def _grow(nodes: Sequence[_Node], depth: int, step: _Step, cap: float = DEFAULT_CAP,
          last_masks: bool = False) -> tuple[list[list[Perm]], list[_Node]]:
    """The next ``depth`` levels below ``nodes``, each sorted, and the last as nodes.

    Each level that is a parent in this call, and the last one if
    ``last_masks``, comes from ``step`` as nodes; the nodes returned are
    empty otherwise.  The build stops after the first parent that takes
    a level past ``cap``, and leaves that level unsorted: the caller
    raises on it, so it is never used.
    """
    levels = []
    for d in range(depth):
        with_masks = last_masks or d + 1 < depth
        children: list = []
        append = children.append
        for parent, blocked, run in nodes:
            if with_masks:
                step(parent, blocked, run, -1, children)
            else:
                n = len(parent)
                free = ~blocked & ((2 << n) - 1)
                new_val = n + 1
                while free:
                    low = free & -free
                    free ^= low
                    s = low.bit_length() - 1
                    append(parent[:s] + (new_val,) + parent[s:])
            if len(children) > cap:
                break
        if len(children) > cap:
            levels.append(children)
            break
        if with_masks:
            children.sort(key=itemgetter(0))
            levels.append([node[0] for node in children])
        else:
            children.sort()
            levels.append(children)
        nodes = children if with_masks else []
    return levels, nodes


# ---------------------------------------------------------------------------
# worker processes


def _in_workers(fn: Callable, shares: Sequence) -> list:
    """``[fn(share) for share in shares]``, the shares computed at once.

    Share 0 runs in this process; each other share runs in a child made
    by ``os.fork`` (``_child_share``), so ``fn`` and its share are not
    pickled, and this process must run no other threads.  This process
    reads every child's pipe to EOF and reaps every child, even when its
    own share or a child failed, then raises the first error in share
    order.  A child that does not exit 0 gives a ``RuntimeError`` with
    its exit status.  One share forks nothing and imports no ``pickle``.
    """
    children = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_share(fn, share, read_end, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        results = [fn(shares[0])]
    finally:
        if children:
            import pickle
        outcomes = []
        for pid, read_end in children:
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0:
                outcomes.append(pickle.loads(data))
            else:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                outcomes.append((False, RuntimeError(f"worker process {pid} {how}")))
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return results


def _child_share(fn: Callable, share, read_end: int, write_end: int) -> None:
    """In a forked child: pickle ``(ok, fn(share) or its error)`` to ``write_end``.

    A value or error that cannot be pickled is sent as a
    ``RuntimeError`` naming its type.  Never returns: the child ends in
    ``os._exit``, 0 once everything is written, so it runs no cleanup
    of the process it was forked from.
    """
    import pickle

    code = 1
    try:
        os.close(read_end)
        try:
            outcome = (True, fn(share))
        except Exception as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
            if not outcome[0]:
                pickle.loads(data)  # an error may pickle but not unpickle
        except Exception as exc:
            data = pickle.dumps((False, RuntimeError(
                f"a worker's {type(outcome[1]).__name__} cannot be pickled: {exc}"
            )))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# class enumeration with an in-process cache

_LEVELS_CACHE: dict[tuple[Perm, ...], list[list[Perm]]] = {}


def check_parallelism(value: int) -> int:
    """Return ``value`` if it is a worker count in 1..os.cpu_count(), else raise.

    A count above 1 also needs ``os.fork``.
    """
    limit = os.cpu_count() or 1
    if not 1 <= value <= limit:
        raise ValueError(
            f"parallelism must be between 1 and {limit} (the CPU count), got {value}"
        )
    if value > 1 and not hasattr(os, "fork"):
        raise ValueError(
            f"parallelism above 1 needs os.fork, which this platform lacks; got {value}"
        )
    return value


def _checked_patterns(basis: PatternBasis, max_n: int) -> tuple[Perm, ...]:
    """The patterns of ``basis``, once the request is valid; raises ``ValueError`` else."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if len(basis) == 0:
        raise ValueError("basis must be nonempty")
    return basis.patterns


def class_levels(basis: PatternBasis, max_n: int, *,
                 cap: int = DEFAULT_CAP) -> list[list[Perm]]:
    """Av_0(basis) .. Av_max_n(basis) as sorted lists (cached per basis).

    Every missing level comes from one ``_grow`` call in this process,
    from the top cached level, whose masks are grown again from the
    root under no cap since those levels passed theirs when they were
    built.  Each new level is checked against ``cap`` before it is
    cached.

    >>> [len(level) for level in class_levels(PatternBasis([(1, 3, 2)]), 5)]
    [1, 1, 2, 5, 14, 42]
    """
    patterns = _checked_patterns(basis, max_n)
    levels = _LEVELS_CACHE.setdefault(patterns, [[()]])
    if len(levels) > max_n:
        return levels[: max_n + 1]
    step = _insertion_rules(patterns)
    nodes = _grow(_root(patterns), len(levels) - 1, step, inf, True)[1]
    for level in _grow(nodes, max_n + 1 - len(levels), step, cap)[0]:
        if len(level) > cap:
            raise CapacityError(len(levels), len(level), cap)
        levels.append(level)
    return levels[: max_n + 1]


def count_class(basis: PatternBasis, max_n: int, *, parallelism: int = 1) -> list[int]:
    """(|Av_0|, ..., |Av_max_n|).

    The class is counted depth-first from the root by the basis's
    insertion step (``_count_subtrees``), whatever the level cache
    holds: no level is read, built or cached.  With ``parallelism``
    p > 1, levels are first grown here by ``_grow``, as nodes with their
    masks, until one has at least 32p members.  This process and p - 1
    forked workers (``_in_workers``) then each count the subtrees of one
    of p strided shares of them with the same step, and the per-level
    totals are summed.  At p = 1 this process counts the one share, the
    root, and forks nothing.

    >>> count_class(PatternBasis([(1, 3, 2)]), 5)
    [1, 1, 2, 5, 14, 42]
    """
    check_parallelism(parallelism)
    patterns = _checked_patterns(basis, max_n)
    step = _insertion_rules(patterns)
    nodes = _root(patterns)
    counts = [1]
    if parallelism > 1:
        while len(counts) <= max_n and len(nodes) < 32 * parallelism:
            nodes = _grow(nodes, 1, step, last_masks=True)[1]
            counts.append(len(nodes))
    depth = max_n + 1 - len(counts)
    if depth > 0:
        # share i holds every p-th node from the i-th: strided, not
        # contiguous, since the costly parents come first in lexicographic order
        shards = _in_workers(lambda share: _count_subtrees(share, depth, step),
                             [nodes[i::parallelism] for i in range(parallelism)])
        counts.extend(sum(totals) for totals in zip(*shards))
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


def refined_count(basis: PatternBasis, max_n: int, stats: Sequence[str],
                  filter_id: str = "none") -> dict[tuple[int, tuple[int, ...]], int]:
    """Count class members by length and the named statistics: {(n, values): count}.

    ``values`` holds the statistics in the order of ``stats``; only pairs
    that occur are keys.  Statistics come from the closed registry
    {leading-maxima, bond, lr-min}; the optional element filter from
    {none, last-entry-equals-length, last-entry-not-length,
    first-entry-not-max, first-entry-not-one}.
    """
    try:
        fns = [STATISTICS[s] for s in stats]
    except KeyError as exc:
        raise ValueError(f"unknown statistic id {exc.args[0]!r}") from None
    for i, s in enumerate(stats):
        if s in stats[:i]:  # a table row keys its values by statistic id
            raise ValueError(f"statistic id {s!r} is given twice")
    if filter_id not in FILTERS:
        raise ValueError(f"unknown filter id {filter_id!r}")
    keep = FILTERS[filter_id]
    counts: dict[tuple[int, tuple[int, ...]], int] = {}
    for n, level in enumerate(class_levels(basis, max_n)):
        for p in level:
            if keep(p):
                key = (n, tuple(fn(p) for fn in fns))
                counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# simple permutations


def enumerate_simples(basis: PatternBasis, max_n: int) -> list[list[Perm]]:
    """The simple members of Av_0(basis) .. Av_max_n(basis), each length sorted."""
    return [[p for p in level if is_simple(p)] for level in class_levels(basis, max_n)]


def simples_by_insertion(max_n: int) -> list[list[Perm]]:
    """The simples of lengths 0..max_n built from 132-avoiders by leading-maximum insertion.

    Base permutations are the alpha in Av_m(132) (m >= 3) with
    alpha_1 = m and alpha_m = m-1; below each row r in 2..m-1 at most one
    leading maximum is inserted, and exactly one between every bonded
    pair of rows.  Insertion below rows 1 and m is never allowed.  The
    construction produces nothing below length 4.
    """
    from itertools import combinations

    out: list[list[Perm]] = [[] for _ in range(max_n + 1)]
    levels_132 = class_levels(PatternBasis([(1, 3, 2)]), max_n)
    for m in range(3, max_n + 1):
        for rho in levels_132[m - 2]:
            alpha = (m,) + rho + (m - 1,)
            forced = {
                max(a, b)
                for a, b in zip(alpha, alpha[1:])
                if abs(a - b) == 1
            }
            free = sorted(set(range(2, m)) - forced)
            # k = n - m insertions, at most one below each of rows 2..m-1
            for k in range(len(forced), min(m - 2, max_n - m) + 1):
                for extra in combinations(free, k - len(forced)):
                    rows = sorted(forced.union(extra))
                    out[m + k].append(_insert_leading_maxima(alpha, rows))
    return [sorted(level) for level in out]


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
