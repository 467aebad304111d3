"""Exact truncated power series over the rationals, in x, t, u.

``MSeries`` is a truncated series, cut off either by x-degree (the usual
grading for class generating functions, whose t/u slices are honest
polynomials) or by total degree (used for the simple-permutation series,
whose natural grade is u-degree + x-degree).  It stores graded slices:
a slice keys each (t, u) pair by one packed int, x following from the
grade, and ``coeffs`` is a view keyed by exponent triples (x, t, u).  No
floating point anywhere: coefficients are ints unless one is truly
fractional, then :class:`fractions.Fraction`.

A series computes one grade at a time (van der Hoeven, "Relax, but don't
be too lazy", JSC 2002).  Grade d of a sum, product, rational multiple,
quotient, square root or substitution is built from the grades of its
operands up to d, and kept.  A quotient a / b is one node, which pairs
only the nonzero grades of a complete b, so dividing by 1 - tx costs one
slice product per grade; a substitution sums b^e * Q_e over the powers of
one bound series b, one product per exponent and grade.  A series whose
operands are complete is computed to its order at once, so every series
the public functions return is complete; one built on an unknown of a
fixed-point solve computes each grade when the solve asks for it.  All
of them hand a grade's slice pairs to one dispatcher: two large all-int
slices as packed ints (a bigint multiply), any other pair term by term.

On top of the arithmetic sit a registry of named series, a fixed-point
solver for the functional equations those series satisfy, and a
registry of checkable identities, each with a deliberately corrupted
variant for mutation testing.  The solver is online: it evaluates an
equation's step once, on unknowns whose grades it stores itself, and
then computes grade 0, 1, ..., order, each unknown's grade in turn, from
the grades already stored.  Each builder whose only input is the order
(the closed forms, and the fixed points they rest on) builds once per
process: it keeps its result at the highest order asked for and serves
a lower order cut from it, so identities that share a series share its
build.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from math import comb
from typing import Callable, Mapping

from permlab.enumeration import PatternBasis, class_levels, enumerate_simples, refined_count
from permlab.perms import (
    is_skew_decomposable,
    is_sum_decomposable,
    lr_minima,
    strip_leading_maxima,
)

Key = tuple[int, int, int]  # exponents of (x, t, u)

X_GRADED = "x"
TOTAL_GRADED = "total"

_VAR_INDEX = {"x": 0, "t": 1, "u": 2}

# enumeration-backed series are cut off here: they read whole levels from
# class_levels or refined_count, and level 12 of a Schroder class alone
# holds about 5.3 M tuples (about 1 GB)
ENUM_DEPTH_LIMIT = 12


class SeriesError(ValueError):
    pass


class NonContractionError(RuntimeError):
    """A fixed-point equation is not a contraction at some grade.

    Raised when grade d of an unknown depends on grade d of an unknown
    being solved, and the initial guess is not reproduced there (see
    :func:`fixed_point_solve`).  ``agreement`` is d, the grade below
    which every unknown is final, and ``passes`` the number of grades
    attempted, the failing one included.
    """

    def __init__(self, equation_id: str, agreement: int, passes: int):
        super().__init__(
            f"fixed-point equation {equation_id!r} is not a contraction: "
            f"grade {agreement} of its solution depends on itself and does "
            "not reproduce the initial guess "
            f"(stalled at agreement degree {agreement}; grades attempted: {passes})"
        )
        self.equation_id = equation_id
        self.agreement = agreement
        self.passes = passes


def _norm_coeff(c):
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


# A series is kept as {grade: slice}, without empty grades.  A slice maps
# _key(t, u) = t << 32 | u to the nonzero coefficient of its (t, u) pair,
# and x follows from the grade d: x = d when x-graded, d - t - u when
# total-graded.  A stored u stays below 2**31, so the sum of two keys is
# the key of the product and never carries into t.  A slice is never
# changed once stored, so series share slices freely.
_U_MASK = (1 << 32) - 1
_U_CARRY = 1 << 31
_HALF = Fraction(1, 2)


def _key(t: int, u: int) -> int:
    """The slice key of the exponent pair (t, u)."""
    if not 0 <= u < _U_CARRY:
        raise SeriesError(f"u exponent {u} is outside 0..2**31-1")
    return t << 32 | u


def _add_products(acc: dict[int, object], left, right) -> None:
    """acc += left * right for two nonzero grade slices, one term pair at a time."""
    if len(left) > len(right):
        left, right = right, left  # fewer passes over the longer slice
    get = acc.get
    pairs = right.items()
    for k1, c1 in left.items():
        for k2, c2 in pairs:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2


# A pair of all-int slices with at least _PACK_MIN terms each is multiplied as
# two packed ints (Kronecker substitution per slice pair: Harvey, "Faster
# polynomial multiplication via multipoint Kronecker substitution", JSC 2009),
# so CPython's bigint multiply forms its term products.  Smaller pairs do not
# repay the passes over their slices: the order-20 identities took 22 % longer
# when every pair of 2 or more terms was packed, 7 % with 4 or more, and 3 %
# with 16 or more.  A grade packs at most _PACK_SPREAD digits per term (the
# identities' grades hold at most 3.3), so a sparse slice never allocates a
# large buffer.
_PACK_MIN = _PACK_SPREAD = 8


def _int_shape(sl):
    """(t_min, u_min, t_max, u_max, coefficient bits) of an all-int slice, else None."""
    try:
        bits = max(map(int.bit_length, sl.values()))
    except TypeError:  # a Fraction
        return None
    us = [k & _U_MASK for k in sl]
    return min(sl) >> 32, min(us), max(sl) >> 32, max(us), bits


def _add_pairs(acc: dict[int, object], pairs) -> None:
    """acc += the sum of left * right over the nonzero slice pairs of one grade."""
    packed = []
    for left, right in pairs:
        if len(left) == 1 == len(right):
            [k1], [k2] = left, right
            acc[k1 + k2] = acc.get(k1 + k2, 0) + left[k1] * right[k2]
        elif len(left) >= _PACK_MIN <= len(right) and None not in (
                shapes := (_int_shape(left), _int_shape(right))):
            packed.append((left, right, *shapes))
        else:
            _add_products(acc, left, right)
    if packed:
        _add_packed(acc, packed)


def _pack(sl, origin: int, stride: int, width: int) -> int:
    """The int whose digit (t - t_o) * stride + u - u_o, ``width`` bytes, is c
    for each term c t^t u^u of ``sl``, where origin = t_o << 32 | u_o."""
    top = max(sl) - origin
    size = ((top >> 32) * stride + (top & _U_MASK) + 1) * width
    bufs = bytearray(size), bytearray(size)  # positive and negative coefficients
    for k, c in sl.items():
        k -= origin
        i = ((k >> 32) * stride + (k & _U_MASK)) * width
        bufs[c < 0][i:i + width] = abs(c).to_bytes(width, "little")
    return int.from_bytes(bufs[0], "little") - int.from_bytes(bufs[1], "little")


def _add_packed(acc: dict[int, object], packed) -> None:
    """acc += the sum of left * right over (left, right, left shape, right shape).

    The packed ints' digits sit at (t - t0) * stride + u - u0, (t0, u0) the
    least exponents of the grade's products, in rows that never overlap.
    The products sum into one int, decoded once.  A digit's bits exceed a
    pair's coefficient bits plus the bit length of the number of products
    summed into one coefficient, so it holds any coefficient of the sum.
    """
    t_lo, u_lo, t_hi, u_hi, bits = zip(*(map(sum, zip(a, b)) for *_, a, b in packed))
    t0, u0 = min(t_lo), min(u_lo)
    stride = max(u_hi) - u0 + 1
    digits = (max(t_hi) - t0 + 1) * stride
    if digits > _PACK_SPREAD * sum(len(left) + len(right) for left, right, *_ in packed):
        for left, right, *_ in packed:
            _add_products(acc, left, right)
        return
    summed = sum(min(len(left), len(right)) for left, right, *_ in packed)
    width = (max(bits) + summed.bit_length()) // 8 + 1
    base, total = t0 << 32 | u0, 0
    for left, right, a, _ in packed:
        origin = a[0] << 32 | a[1]
        total += _pack(left, origin, stride, width) * _pack(right, base - origin, stride, width)
    half = 1 << 8 * width - 1  # added to every digit, so that none is negative
    raw = (total + int.from_bytes(half.to_bytes(width, "little") * digits, "little")
           ).to_bytes(digits * width, "little")
    for i in range(digits):
        c = int.from_bytes(raw[i * width:(i + 1) * width], "little") - half
        if c:
            t, u = divmod(i, stride)
            k = base + (t << 32) + u
            acc[k] = acc.get(k, 0) + c


def _convolve(acc: dict[int, object], left, right, d: int, start: int = 0) -> None:
    """acc += sum(left(i) * right(d - i) for i in start..d).

    ``left`` and ``right`` map a grade to its slice, or to None if it is
    zero.  Each pair asks for the lower of its two grades first (the
    right one on a tie) and is skipped when either slice is zero, so a
    lazy operand is never asked for a grade the product cannot use.
    """
    pairs = []
    for i in range(start, d + 1):
        j = d - i
        if i < j:
            sl = left(i)
            if sl:
                sr = right(j)
                if sr:
                    pairs.append((sl, sr))
        else:
            sr = right(j)
            if sr:
                sl = left(i)
                if sl:
                    pairs.append((sl, sr))
    _add_pairs(acc, pairs)


def _store_slice(slices: dict[int, dict[int, object]], d: int,
                 acc: dict[int, object], scale=1) -> None:
    """slices[d] = scale * acc without zeros, for a nonzero scale.

    One scaling rule: a scale p/q takes an int c to c * p // q whenever q
    divides c * p, so an exact halving builds no ``Fraction``.
    """
    p, q = scale.numerator, scale.denominator
    scaled = scale != 1
    out = {}
    for k, c in acc.items():
        if c:
            if scaled:
                if type(c) is int:
                    c *= p
                    if q != 1:
                        c = Fraction(c, q) if c % q else c // q
                else:
                    c *= scale
            if type(c) is not int:
                c = _norm_coeff(c)
            if k & _U_CARRY:
                raise SeriesError("a u exponent reached 2**31")
            out[k] = c
    if out:
        slices[d] = out


def _plain_constant(grade0: dict[int, object] | None):
    """The constant term of a grade-0 slice that must be a plain rational."""
    if not grade0:
        return 0
    if any(grade0):
        raise SeriesError("grade-0 part is not a plain rational constant")
    return grade0[0]


class MSeries:
    """Truncated multivariate series with exact rational coefficients.

    It holds the grades computed so far, as slices, and until the last
    of them is stored, a ``fill(slices, d)`` that stores grade d reading
    only its operands' grades up to d.  A series is complete once every
    grade up to its order is stored; it then drops ``fill``, and with it
    its operands.  A series built from complete operands is complete
    when it is returned, so errors raise at the operation.  One built on
    an unknown of :func:`fixed_point_solve` computes each grade the first
    time it is asked for, through :meth:`slice`, after the grades below.

    Inspection (``coeffs``, ``terms``, ``coefficient``, ``x_coefficients``,
    ``is_zero``, ``==``, ``repr``) reads the grades stored so far and
    computes none.
    """

    __slots__ = ("_slices", "order", "grading", "_done", "_fill")

    def __init__(self, coeffs: Mapping[Key, object], order: int,
                 grading: str = X_GRADED):
        if grading not in (X_GRADED, TOTAL_GRADED):
            raise SeriesError(f"unknown grading {grading!r}")
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        slices: dict[int, dict[int, object]] = {}
        total = grading == TOTAL_GRADED
        for (ex, et, eu), c in coeffs.items():
            if ex < 0 or et < 0:
                raise SeriesError(f"exponents {(ex, et, eu)} have a negative x or t")
            d = ex + et + eu if total else ex
            if d > order:
                continue
            if type(c) is not int:
                c = _norm_coeff(c)
            if c:
                slices.setdefault(d, {})[_key(et, eu)] = c
        self._slices = slices
        self.order = order
        self.grading = grading
        self._done = order + 1  # grades below this one are stored
        self._fill = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c, order: int, grading: str = X_GRADED) -> "MSeries":
        return cls.monomial(c, order, grading)

    @classmethod
    def monomial(cls, c, order: int, grading: str = X_GRADED, *,
                 x: int = 0, t: int = 0, u: int = 0) -> "MSeries":
        return cls({(x, t, u): c if type(c) is int else Fraction(c)}, order, grading)

    @classmethod
    def var(cls, name: str, order: int, grading: str = X_GRADED) -> "MSeries":
        key = [0, 0, 0]
        key[_VAR_INDEX[name]] = 1
        return cls({tuple(key): 1}, order, grading)

    # -- grades --------------------------------------------------------------

    def slice(self, d: int) -> dict[int, object] | None:
        """Grade d as a slice, or None if it is zero, computing the grades up to d."""
        while self._done <= d:
            if self._done > self.order:
                raise SeriesError(f"grade {d} is beyond the truncation order")
            self._fill(self._slices, self._done)
            self._done += 1
            if self._done > self.order:
                self._fill = None  # complete: let go of the operands
        return self._slices.get(d)

    def _require_complete(self, operation: str) -> None:
        """Raise unless every grade is stored: ``operation`` needs every term."""
        if self._done <= self.order:
            raise SeriesError(
                f"{operation} needs every term, and this series is still being solved"
            )

    # -- inspection: the grades stored so far --------------------------------

    @property
    def coeffs(self) -> dict[Key, object]:
        """The nonzero coefficients keyed by (x, t, u), built on each read."""
        total = self.grading == TOTAL_GRADED
        out = {}
        for d, sl in self._slices.items():
            for k, c in sl.items():
                t, u = k >> 32, k & _U_MASK
                out[(d - t - u if total else d, t, u)] = c
        return out

    def is_zero(self) -> bool:
        return not self._slices

    def coefficient(self, *, x: int = 0, t: int = 0, u: int = 0) -> Fraction:
        return Fraction(self.coeffs.get((x, t, u), 0))

    def x_coefficients(self) -> list[Fraction]:
        """Coefficient list of a univariate series in x."""
        if any(any(sl) for sl in self._slices.values()):
            raise SeriesError("series is not univariate in x")
        return [Fraction(self._slices.get(n, {}).get(0, 0)) for n in range(self.order + 1)]

    def terms(self) -> list[tuple[Key, object]]:
        """The (key, coefficient) pairs sorted by grade, then by (x, t, u)."""
        grade = sum if self.grading == TOTAL_GRADED else (lambda k: k[0])
        return sorted(self.coeffs.items(), key=lambda kv: (grade(kv[0]), kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MSeries):
            return NotImplemented
        return (
            self.grading == other.grading
            and self.order == other.order
            and self._slices == other._slices
        )

    def __repr__(self):
        terms = self.terms()
        head = ", ".join(f"{k}: {c}" for k, c in terms[:4])
        more = "..." if len(terms) > 4 else ""
        return f"MSeries({{{head}{more}}}, order={self.order}, grading={self.grading!r})"

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "MSeries":
        if isinstance(other, MSeries):
            if other.grading != self.grading:
                raise SeriesError("grading mismatch")
            return other
        return MSeries.const(other, self.order, self.grading)

    def _sum(self, other, sign: int) -> "MSeries":
        a, b = self, self._coerce(other)

        def fill(slices, d):
            sa, sb = a.slice(d), b.slice(d)
            if not sb or (not sa and sign == 1):
                # share the operand's slice: adding a constant copies nothing
                if sa or sb:
                    slices[d] = sa or sb
                return
            acc = dict(sa or {})
            for key, c in sb.items():
                acc[key] = acc.get(key, 0) + sign * c
            _store_slice(slices, d, acc)

        return _node(fill, min(a.order, b.order), self.grading, a, b)

    def __add__(self, other) -> "MSeries":
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "MSeries":
        return self._sum(other, -1)

    def __rsub__(self, other) -> "MSeries":
        return self._coerce(other)._sum(self, -1)

    def __neg__(self) -> "MSeries":
        return self._scale(-1)

    def __mul__(self, other) -> "MSeries":
        if not isinstance(other, MSeries):
            return self._scale(other if type(other) is int else _norm_coeff(Fraction(other)))
        return _product(self, self._coerce(other))

    __rmul__ = __mul__

    def _scale(self, c) -> "MSeries":
        """c times this series, for a rational c."""
        a = self

        def fill(slices, d):
            sl = a.slice(d)
            if sl and c:
                _store_slice(slices, d, sl, c)

        return _node(fill, self.order, self.grading, a)

    def __pow__(self, e: int) -> "MSeries":
        if e < 0:
            raise SeriesError("negative powers are not defined; use reciprocal")
        result = MSeries.const(1, self.order, self.grading)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __truediv__(self, other) -> "MSeries":
        return self._coerce(other).reciprocal(self)

    def __rtruediv__(self, other) -> "MSeries":
        return self.reciprocal(other)

    def reciprocal(self, numerator=1) -> "MSeries":
        """numerator / self; requires a nonzero rational constant term.

        ``a / b`` is ``b.reciprocal(a)``.  Solves b * q = a one grade at a
        time: q_d = (a_d - sum(b_i * q_(d-i) for i in 1..d)) / b_0.  A
        complete divisor pairs only its nonzero grades with q's, so
        dividing by 1 - tx costs one slice product per grade.

        >>> x = MSeries.var("x", 5)
        >>> (1 - x - x * x).reciprocal().x_coefficients() == [1, 1, 2, 3, 5, 8]
        True
        >>> (x / (2 - x)).coefficient(x=3)
        Fraction(1, 8)
        """
        a, b = self._coerce(numerator), self
        grades = None if b._done <= b.order else [
            (i, sl) for i, sl in sorted(b._slices.items()) if i]
        scale = None  # -1 / b_0, set at grade 0

        def fill(slices, d):
            nonlocal scale
            if d == 0:
                c0 = _plain_constant(b.slice(0))
                if not c0:
                    raise SeriesError("not invertible: zero constant term")
                scale = -c0 if c0 in (1, -1) else _norm_coeff(-1 / Fraction(c0))
            acc: dict[int, object] = {}
            if grades is None:
                _convolve(acc, b.slice, slices.get, d, 1)
            else:
                _add_pairs(acc, [(sl, slices[d - i]) for i, sl in grades if d - i in slices])
            for k, c in (a.slice(d) or {}).items():
                acc[k] = acc.get(k, 0) - c
            _store_slice(slices, d, acc, scale)

        return _node(fill, min(a.order, b.order), b.grading, a, b)

    def sqrt1(self) -> "MSeries":
        """Square root with constant term 1.

        root_d = (a_d - sum(root_i * root_(d-i) for i in 1..d-1)) / 2.
        """
        a = self

        def fill(slices, d):
            if d == 0:
                if _plain_constant(a.slice(0)) != 1:
                    raise SeriesError("sqrt1 requires constant term exactly 1")
                slices[0] = {0: 1}
                return
            acc: dict[int, object] = {}
            _convolve(acc, slices.get, slices.get, d, 1)  # root_d is not there yet
            rhs = dict(a.slice(d) or {})
            for k, c in acc.items():
                rhs[k] = rhs.get(k, 0) - c
            _store_slice(slices, d, rhs, _HALF)

        return _node(fill, self.order, self.grading, a)

    # -- operations on every term, on the (x, t, u) view ---------------------

    def divide_one_minus(self, var: str) -> "MSeries":
        """Exact division by (1 - var); raises if the division is inexact."""
        self._require_complete("divide_one_minus")
        idx = _VAR_INDEX[var]
        groups: dict[tuple[int, int], dict[int, object]] = {}
        for key, c in self.coeffs.items():
            groups.setdefault(key[:idx] + key[idx + 1:], {})[key[idx]] = c
        out: dict[Key, object] = {}
        for rest, poly in groups.items():
            acc, deg = 0, max(poly)
            for e in range(deg):  # the quotient's coefficient of var^e
                acc = acc + poly.get(e, 0)
                if acc:
                    out[rest[:idx] + (e,) + rest[idx:]] = acc
            if acc + poly[deg] != 0:
                raise SeriesError(f"series is not divisible by (1 - {var})")
        return MSeries(out, self.order, self.grading)

    def substitute(self, bindings: Mapping[str, "MSeries | Fraction | int"]) -> "MSeries":
        """Compose: replace each bound variable by a series or rational.

        A bound variable that carries positive grade weight in this
        series' grading must be replaced by a series of positive
        valuation, so every truncated-away monomial stays beyond the
        result's order; for the same reason a total-graded series with a
        free t or u takes no x-graded series.  This series needs every
        term, but a bound series may be one still being solved; its
        valuation is then checked when grade 0 of the result is computed.

        The result sums b^e * Q_e over the exponents e of one variable bound
        to b, the series still being solved if there is one, else the first;
        Q_e, its terms of exponent e with the other bindings put in, is built
        the same way, once.  So a grade costs one product per exponent, and a
        complete Q_e pairs only its nonzero grades with b^e's.  A rational is
        bound as a constant series.  The powers compute only the grades read.
        """
        self._require_complete("substitute")
        unknown = set(bindings) - set(_VAR_INDEX)
        if unknown:
            raise SeriesError(f"unknown variables in bindings: {sorted(unknown)}")
        series = {v: b for v, b in bindings.items() if isinstance(b, MSeries)}
        if series:
            gradings = {b.grading for b in series.values()}
            if len(gradings) > 1:
                raise SeriesError("bound series have mismatched gradings")
            grading = gradings.pop()
            order = min([self.order] + [b.order for b in series.values()])
        else:
            grading, order = self.grading, self.order
        if self.grading == TOTAL_GRADED and grading == X_GRADED and any(
                k >> 32 and "t" not in bindings or k & _U_MASK and "u" not in bindings
                for sl in self._slices.values() for k in sl):
            raise SeriesError("a total-graded series with a free t or u takes no x-graded one")
        # variables with positive grade weight in this series' grading
        weighted = [v for v in bindings if self.grading == TOTAL_GRADED or v == "x"]
        for v in weighted:
            if v not in series and Fraction(bindings[v]) != 0:
                raise SeriesError(f"binding for {v!r} must have zero constant term")
        series.update((v, MSeries.const(r, order, grading))
                      for v, r in bindings.items() if v not in series)
        # each binding, the least grade it can have, and its powers [_, b, b^2, ...]
        bound = {v: (b, min(b._slices, default=order + 1) if b._done > b.order
                     else int(v in weighted), [None, b]) for v, b in series.items()}
        return _compose(self.coeffs, bound, order, grading, weighted)


def _node(fill: Callable[[dict, int], None], order: int, grading: str,
          *operands: MSeries, eager: bool = True) -> MSeries:
    """The series whose grade d ``fill(slices, d)`` stores from its operands' grades.

    If ``eager`` and every operand is complete, so is the series when it
    is returned; otherwise it computes each grade when one is asked for.
    """
    s = object.__new__(MSeries)
    s._slices, s.order, s.grading, s._done, s._fill = {}, order, grading, 0, fill
    if eager and all(o._done > o.order for o in operands):
        s.slice(order)
    return s


def _product(a: MSeries, b: MSeries, eager: bool = True) -> MSeries:
    """a * b as a node (see :func:`_node`).

    A complete operand with one term c t^k u^m, at grade g, shifts the other:
    grade d is c t^k u^m times the other's grade d - g, the other's own slice
    when the term is 1.  Otherwise a complete operand (the one with fewer nonzero
    grades, of two) walks the other's grades, and two lazy ones are convolved from
    the least grade each can have.
    """
    for one, other in ((a, b), (b, a)):
        if one._done > one.order and len(one._slices) == 1:
            [(g, term)] = one._slices.items()
            if len(term) == 1:
                [(key, c)] = term.items()

                def fill(slices, d):
                    sl = other.slice(d - g) if d >= g else None
                    if sl and (key or c != 1):
                        _store_slice(slices, d, {k + key: v for k, v in sl.items()}, c)
                    elif sl:
                        slices[d] = sl  # shared: slices never change

                return _node(fill, min(a.order, b.order), a.grading, a, b, eager=eager)
    done = sorted((s for s in (a, b) if s._done > s.order), key=lambda s: len(s._slices))
    if done:
        few = done[0]
        grades, other = sorted(few._slices.items()), b if few is a else a

    def fill(slices, d):
        acc: dict[int, object] = {}
        if done:
            _add_pairs(acc, _walk(grades, other, d))
        else:
            start = next(iter(a._slices), a._done)  # lazy: stored in ascending order
            if d >= start + next(iter(b._slices), b._done):
                _convolve(acc, a.slice, b.slice, d, start)
        _store_slice(slices, d, acc)

    return _node(fill, min(a.order, b.order), a.grading, a, b, eager=eager)


def _walk(grades: list, other: MSeries, d: int) -> list:
    """The nonzero pairs of the ``grades`` (i, slice), i ascending, of a complete series
    with grade d - i of ``other``.  Only the top grade is asked for; the rest are
    read where stored (an unknown's top grade may be its guess)."""
    if not grades or d < grades[0][0]:
        return []
    stored, top = other._slices, other.slice(d - grades[0][0])
    pairs = [(sl, stored[d - i]) for i, sl in grades[1:bisect_left(grades, (d + 1,))]
             if d - i in stored]
    return pairs + [(grades[0][1], top)] if top else pairs


def _compose(terms, bound: dict, cut: int, grading: str, checked=()) -> MSeries:
    """The sum of ``terms`` to grade ``cut`` with the ``bound`` variables put in
    (see :meth:`MSeries.substitute`); grade 0 checks that the bindings of the
    ``checked`` variables have no constant term."""
    if not bound:
        return MSeries(terms, cut, grading)
    # the binding still being solved if there is one, else the first
    v = min(bound, key=lambda v: bound[v][0]._done > bound[v][0].order)
    i, (b, val, pows) = _VAR_INDEX[v], bound[v]
    parts: dict[int, dict[Key, object]] = {}
    for key, c in terms.items():
        if key[i] * val <= cut:
            parts.setdefault(key[i], {})[key[:i] + (0,) + key[i + 1:]] = c
    rest = {w: bound[w] for w in bound if w != v}
    q = {e: _compose(part, rest, cut - e * val, grading) for e, part in parts.items()}
    top = max(q, default=0)
    while len(pows) <= top:
        pows.append(_product(pows[-1], b, eager=False))
    # b^e goes to the top grade any Q_e', e' >= e, reads, lowest first: no deep recursion
    reach, low = [0] * (top + 1), cut + 1
    for e in range(top, 0, -1):
        if e in q:
            low = min(low, min(q[e]._slices, default=low) if q[e]._done > q[e].order else 0)
        reach[e] = max(low, int(b._done <= b.order))  # being solved: below d
        low += val
    walks = {e: sorted(p._slices.items()) for e, p in q.items() if p._done > p.order}

    def fill(slices, d):
        if d == 0:
            for w in checked:
                if bound[w][0].slice(0):
                    raise SeriesError(f"binding for {w!r} must have zero constant term")
        acc = dict(q[0].slice(d) or {}) if 0 in q else {}
        pairs = []
        for e in range(1, (min(top, d // val) if val else top) + 1):
            if d - reach[e] >= e * val:
                pows[e].slice(d - reach[e])
            if e in walks:
                pairs += _walk(walks[e], pows[e], d)
            elif e in q:
                _convolve(acc, pows[e].slice, q[e].slice, d, e * val)
        _add_pairs(acc, pairs)
        _store_slice(slices, d, acc)

    return _node(fill, cut, grading, *(s for s, _, _ in bound.values()))


# ---------------------------------------------------------------------------
# shared closed-form building blocks


def _cut(result, order: int):
    """A complete series (or tuple of them) cut to ``order``, sharing its slices."""
    if isinstance(result, tuple):
        return tuple(_cut(s, order) for s in result)
    s = object.__new__(MSeries)
    s._slices = {d: sl for d, sl in result._slices.items() if d <= order}
    s.order, s.grading, s._done, s._fill = order, result.grading, order + 1, None
    return s


def _built_once(builder):
    """Build an order-only series once per process and serve lower orders from it.

    The wrapper keeps the builder's result at the highest order asked for
    so far and serves every order up to it as a new complete series (or
    tuple of them) sharing the kept slices of grade <= order.  That is
    exact: grade d of a builder's result does not depend on its order,
    and a stored slice never changes.  A higher order builds again and
    replaces what is kept.  A call with ``corrupt=True`` goes to the
    builder every time and is not kept.
    """
    kept, kept_order = None, -1

    @wraps(builder)
    def served(order: int, *, corrupt: bool = False):
        nonlocal kept, kept_order
        if corrupt:
            return builder(order, corrupt=True)
        if not 0 <= order <= kept_order:  # the builder rejects a negative order
            kept, kept_order = builder(order), order
        return _cut(kept, order)

    return served


def _x(order: int, grading: str = X_GRADED) -> MSeries:
    return MSeries.var("x", order, grading)


def _t(order: int, grading: str = X_GRADED) -> MSeries:
    return MSeries.var("t", order, grading)


def _u(order: int, grading: str = X_GRADED) -> MSeries:
    return MSeries.var("u", order, grading)


@_built_once
def catalan_series(order: int) -> MSeries:
    """Catalan generating function via its quadratic fixed point."""
    return fixed_point_solve("catalan-fixed", order)


@_built_once
def large_schroder_series(order: int) -> MSeries:
    """(3 - x - sqrt(1 - 6x + x^2)) / 2; starts 1, 1, 2, 6, 22, ..."""
    x = _x(order)
    rad = (1 - 6 * x + x * x).sqrt1()
    return (3 - x - rad) * Fraction(1, 2)


@_built_once
def little_schroder_series(order: int) -> MSeries:
    """2 / (1 + x + sqrt(1 - 6x + x^2)); starts 1, 1, 3, 11, 45, ..."""
    x = _x(order)
    rad = (1 - 6 * x + x * x).sqrt1()
    return 2 / (1 + x + rad)


def _c_star(mark: MSeries) -> MSeries:
    """C(x / (1 - mark * x)), the Catalan series at x / (1 - mark * x)."""
    x = _x(mark.order)
    return catalan_series(mark.order).substitute({"x": x / (1 - mark * x)})


@_built_once
def catalan_layered(order: int) -> MSeries:
    """C(x / (1 - tx)): Catalan with extra LR-maxima slots marked by t."""
    return _c_star(_t(order))


@_built_once
def lead_4132_closed(order: int, *, corrupt: bool = False) -> MSeries:
    """Closed form of the leading-maxima series over the 4132 class.

    ``corrupt`` puts tx + x in place of tx - x, for the identity's
    mutation test.
    """
    x, t = _x(order), _t(order)
    cs = catalan_layered(order)
    numer = 1 - t * x + (t * x + x if corrupt else t * x - x) * cs
    return numer / (1 - x * cs) / (1 - t * x)


@_built_once
def lead_4132_first_not_one_closed(order: int, *, corrupt: bool = False) -> MSeries:
    """Closed form of the same series restricted to first entry != 1.

    ``corrupt`` drops the - 1 from C* - 1, for the identity's mutation
    test.
    """
    x, t = _x(order), _t(order)
    cs = catalan_layered(order)
    return t * x * (cs if corrupt else cs - 1) / (1 - x * cs)


@_built_once
def a033321_series(order: int) -> MSeries:
    """2 / (1 + x + sqrt((1 - x)(1 - 5x))); every coefficient of 1 + x + sqrt is even."""
    x = _x(order)
    rad = ((1 - x) * (1 - 5 * x)).sqrt1()
    return 2 / (1 + x + rad)


@_built_once
def simples_gf_closed(order: int, *, corrupt: bool = False) -> MSeries:
    """Radical closed form of the constrained/free simples series (total grade).

    The square-root branch is the one with s(0, x) = 0, which the
    definition forces (every simple of length >= 4 has at least one
    constrained position); the enumeration-backed checks referee this.
    ``corrupt`` puts 2ux in place of 3ux, for the identity's mutation
    test.
    """
    g = TOTAL_GRADED
    x, u = _x(order, g), _u(order, g)
    p = x * x + x + 1
    q = x * x + 3 * x + 1
    rad = (1 + u * u * p * p - 2 * u * q).sqrt1()
    numer = -x * (u - 1 + (2 if corrupt else 3) * u * x + u * x * x + rad)
    return numer / (2 * (u + 1) * (x + 1))


@_built_once
def stat132_system(order: int) -> tuple[MSeries, MSeries]:
    return fixed_point_solve("stat132-system", order)


@_built_once
def stat132_ending_max(order: int, *, corrupt: bool = False) -> MSeries:
    """Bond/LR-min series over 132-avoiders ending in their maximum (n >= 2).

    ``corrupt`` drops the t of the u t x^2 term, for the identity's
    mutation test.
    """
    h, _ = stat132_system(order)
    x, t, u = _x(order), _t(order), _u(order)
    return (x * (h - 1) + u * (1 if corrupt else t) * x * x) / (1 - x * t)


@_built_once
def simples_gf_from_stats(order: int) -> MSeries:
    """Monomial-summation route to the simples series.

    Each coefficient c of t^b u^m x^n in the ending-max table contributes
    c * x^(m+1) u^(n+b-m) (1+u)^(n-b-1); the exponents are provably
    nonnegative (m <= n and b <= n-1 for n >= 2), and a table entry where
    one is not raises :class:`SeriesError`.
    """
    # an entry of x-degree n contributes at total degree n + b + 1 or more,
    # so the table to this order covers every contribution kept; at this
    # order it shares the stat132-system solve of the same order
    table = stat132_ending_max(order)
    out: dict[Key, object] = {}
    for (n, b, m), c in table.coeffs.items():
        if n + b - m < 0 or n - b - 1 < 0:
            raise SeriesError(
                f"ending-max table entry (n, b, m) = {(n, b, m)} gives a negative exponent"
            )
        base_u = n + b - m
        for j in range(n - b):  # expand (1+u)^(n-b-1)
            x_e = m + 1
            u_e = base_u + j
            if x_e + u_e > order:
                continue
            key = (x_e, 0, u_e)
            out[key] = out.get(key, 0) + c * comb(n - b - 1, j)
    return MSeries(out, order, TOTAL_GRADED)


@_built_once
def gf_263514_fixed(order: int) -> MSeries:
    return fixed_point_solve("gf-263514-fixed", order)


@_built_once
def kernel_root_series(order: int) -> MSeries:
    """The kernel root, as the fixed point of its step; equals the little Schroder series."""
    return fixed_point_solve("kernel-root", order)


# ---------------------------------------------------------------------------
# enumeration-backed series

# The classes of the paper, keyed by their third basis pattern (Av(132) as "132").
PAPER_BASES = {
    "254613": PatternBasis.from_text("2143,3142,254613"),
    "524361": PatternBasis.from_text("2143,3142,524361"),
    "546132": PatternBasis.from_text("2143,3142,546132"),
    "263514": PatternBasis.from_text("2143,3142,263514"),
    "4132": PatternBasis.from_text("2143,3142,4132"),
    "132": PatternBasis.from_text("132"),
}


def _check_enum_order(name: str, order: int) -> None:
    if order > ENUM_DEPTH_LIMIT:
        raise SeriesError(
            f"series {name!r} is enumeration-backed; order {order} exceeds "
            f"the enumeration depth limit {ENUM_DEPTH_LIMIT}"
        )


def lead_enum(basis_name: str, order: int, filter_id: str = "none") -> MSeries:
    """Sum of t^(leading maxima) x^n over an enumerated class."""
    _check_enum_order(f"lead-enum-{basis_name}", order)
    counts = refined_count(PAPER_BASES[basis_name], order, ["leading-maxima"], filter_id)
    return MSeries({(n, ell, 0): count for (n, (ell,)), count in counts.items()},
                   order, X_GRADED)


def stat132_ending_max_enum(order: int) -> MSeries:
    """Enumerated bond/LR-min table over Av(132) with last entry = length, n >= 2."""
    _check_enum_order("stat132-enum-ending-max", order)
    counts = refined_count(
        PAPER_BASES["132"], order, ["bond", "lr-min"], "last-entry-equals-length"
    )
    return MSeries({(n, b, m): count for (n, (b, m)), count in counts.items() if n >= 2},
                   order, X_GRADED)


def class_gf_enum(basis_name: str, order: int, kind: str | None = None) -> MSeries:
    """Plain counting series of an enumerated class, from length 1 (no empty permutation).

    With ``kind`` "sum" or "skew", only its sum- or skew-decomposable
    members are counted.
    """
    _check_enum_order(f"gf-enum-{basis_name}" + (f"-{kind}" if kind else ""), order)
    keep = {"sum": is_sum_decomposable, "skew": is_skew_decomposable}.get(kind)
    levels = class_levels(PAPER_BASES[basis_name], order)
    return MSeries(
        {(n, 0, 0): len(lv) if keep is None else sum(map(keep, lv))
         for n, lv in enumerate(levels) if n},
        order,
        X_GRADED,
    )


def simples_gf_enum(order: int) -> MSeries:
    """Brute-force simples series: u^(n-lrmin-1) x^(lrmin+1) over stripped simples."""
    _check_enum_order("simples-gf-enum", order)
    coeffs: dict[Key, object] = {}
    simples = enumerate_simples(PAPER_BASES["263514"], order)
    for n in range(4, order + 1):
        for sigma in simples[n]:
            m = len(lr_minima(strip_leading_maxima(sigma)))
            key = (m + 1, 0, n - m - 1)
            coeffs[key] = coeffs.get(key, 0) + 1
    return MSeries(coeffs, order, TOTAL_GRADED)


# ---------------------------------------------------------------------------
# fixed-point equation registry


@dataclass(frozen=True)
class _Equation:
    """A fixed-point equation y = step(y) on a tuple of series.

    ``initial(order)`` is the initial guess, one series per name.
    ``step`` maps the unknowns to their new values.  The solver runs it
    once, on unknowns whose grades it stores itself; plain Picard
    iteration (the tests' oracle) runs it on complete series.
    """

    names: tuple[str, ...]
    initial: Callable[[int], tuple[MSeries, ...]]
    step: Callable[..., tuple]


def _catalan_step(y):
    x = _x(y.order)
    return (y * y * x + 1,)


def _stat132_step(h, g, *, corrupt: bool = False) -> tuple:
    """The joint bond/LR-min map over 132-avoiders.

    ``corrupt`` puts u^2 in place of u on the u*x*r term, for the
    identity's mutation test.
    """
    order = h.order
    x, t, u = _x(order), _t(order), _u(order)
    # with tx = t x/(1 - t x) and ux = u x/(1 - t u x): p = (h - 1) tx + h + u tx - 1,
    # q = g ux + g - 1 and r = g t ux + g - 1, where tx + 1 = 1/(1 - t x),
    # t ux + 1 = 1/(1 - t u x) and ux + 1 = (1 + (1 - t) u x)/(1 - t u x)
    p = (h + (u - 1) * t * x) / (1 - t * x) - 1
    r1 = g / (1 - t * u * x)
    q = r1 * (1 + (1 - t) * u * x) - 1
    r = r1 - 1
    px = p * x  # before the big product, which then needs q only below the order
    pxq = px * q
    h_new = pxq + r * ((u * u if corrupt else u) * x) + 1
    g_new = pxq + px + 1  # px*(q+1) reuses the big product
    return h_new, g_new


def _sum_part(f, *, corrupt: bool = False):
    """2xf - x^2(f+1): the sum-decomposable part of a class counted by f.

    ``corrupt`` puts x^2 f in place of x^2(f+1), for the identity's
    mutation test.
    """
    x = _x(f.order)
    return f * (2 * x) - (f if corrupt else f + 1) * (x * x)


def _skew_part(f, *, corrupt: bool = False):
    """f^2/(1+f): the skew-decomposable part of a class counted by f.

    ``corrupt`` puts 1 - f in place of 1 + f, for the identity's
    mutation test.
    """
    return f * f / (1 - f if corrupt else f + 1)


def _gf263514_step(f) -> tuple:
    order = f.order
    x = _x(order)
    s_at = simples_gf_closed(order).substitute({"u": x / (1 - x), "x": f})
    return (_skew_part(f) + _sum_part(f) + s_at + x,)


def _kernel_root_step(t_cur) -> tuple:
    x = _x(t_cur.order)
    return (t_cur * t_cur * x / (1 - _c_star(t_cur) * x) + 1,)


EQUATIONS: dict[str, _Equation] = {
    "catalan-fixed": _Equation(
        ("catalan",), lambda order: (MSeries.const(1, order),), _catalan_step
    ),
    "stat132-system": _Equation(
        ("stat132-last-not-max", "stat132-first-not-max"),
        lambda order: (MSeries.const(1, order), MSeries.const(1, order)),
        _stat132_step,
    ),
    "gf-263514-fixed": _Equation(
        ("gf-263514",),
        lambda order: (MSeries({}, order),),
        _gf263514_step,
    ),
    "kernel-root": _Equation(
        ("kernel-root",),
        lambda order: (MSeries.const(1, order),),
        _kernel_root_step,
    ),
}


class _Unknown(MSeries):
    """An unknown of a fixed-point solve, whose grades the solve stores.

    While the solve computes grade d, asking for grade d of an unknown
    whose grade d is not stored yet gives the initial guess's grade d,
    and asking for a higher grade is an error.
    """

    __slots__ = ("_guess", "_guess_read", "_solving", "definition")

    def __init__(self, guess: MSeries):
        super().__init__({}, guess.order, guess.grading)
        self._done = 0
        self._guess = guess._slices
        self._guess_read = False
        self._solving = 0
        self.definition: MSeries | None = None

    def slice(self, d: int) -> dict[int, object] | None:
        if d < self._done:
            return self._slices.get(d)
        if d > self._solving:
            raise SeriesError(
                f"grade {d} of an unknown was read while grade {self._solving} is solved"
            )
        self._guess_read = True
        return self._guess.get(d)


def fixed_point_solve(equation_id: str, order: int):
    """Solve a registered fixed-point equation to the given order, online.

    The step runs once, on the unknowns, and builds the map as a network
    of series that compute their grades on demand; the solve then
    computes grade 0, 1, ..., order, each of the unknowns in turn, and
    stores an unknown's grade as soon as it is computed.  For a
    contraction, grade d of the step reads only stored grades of the
    unknowns, so each grade of each series is computed once, and the
    result is the truncated solution that Picard iteration from the
    initial guess converges to.

    Where grade d of the step does read grade d of an unknown not stored
    yet (grade 0 of ``f * f`` in the 263514 equation, say), it is given
    the initial guess's grade d, and once every unknown's grade d is
    stored, each guess so read must be reproduced.  Otherwise the map is
    not a contraction there and :class:`NonContractionError` is raised,
    with ``agreement`` d and ``passes`` d + 1, the grades attempted.
    """
    if equation_id not in EQUATIONS:
        raise SeriesError(f"unknown equation {equation_id!r}")
    eq = EQUATIONS[equation_id]
    unknowns = tuple(_Unknown(guess) for guess in eq.initial(order))
    for y, value in zip(unknowns, eq.step(*unknowns)):
        y.definition = y._coerce(value)
    for d in range(order + 1):
        for y in unknowns:
            y._solving = d
        for y in unknowns:
            got = y.definition.slice(d)
            if got:
                y._slices[d] = got
            y._done = d + 1
        for y in unknowns:
            if y._guess_read and y._slices.get(d) != y._guess.get(d):
                raise NonContractionError(equation_id, d, d + 1)
            y._guess_read = False
    solution = []
    for y in unknowns:
        y.definition = None  # the definitions refer back to the unknowns: free them now
        s = MSeries({}, order, y.grading)
        s._slices = y._slices  # every grade is stored: the result is complete
        solution.append(s)
    return tuple(solution) if len(solution) > 1 else solution[0]


# ---------------------------------------------------------------------------
# named series registry

_NAMED: dict[str, Callable[[int], MSeries]] = {
    "catalan": catalan_series,
    "catalan-closed": lambda order: 2 / (1 + (1 - 4 * _x(order)).sqrt1()),
    "large-schroder": large_schroder_series,
    "little-schroder": little_schroder_series,
    # the root (3 - x - sqrt((3 - x)^2 - 8))/2 of B^2 + (x - 3)B + 2, whose
    # radicand is 1 - 6x + x^2: the large Schroder series
    "schroder-cubic-root": large_schroder_series,
    "kernel-root": kernel_root_series,
    "catalan-layered": catalan_layered,
    "a033321": a033321_series,
    "lead-4132": lead_4132_closed,
    "lead-4132-first-not-one": lead_4132_first_not_one_closed,
    "extract-524361": lambda order: _extraction_from(lead_enum("524361", order)),
    "extract-546132": lambda order: _extraction_from(lead_enum("546132", order)),
    "stat132-last-not-max": lambda order: stat132_system(order)[0],
    "stat132-first-not-max": lambda order: stat132_system(order)[1],
    "stat132-ending-max": stat132_ending_max,
    "simples-gf-from-stats": simples_gf_from_stats,
    "simples-gf-closed": simples_gf_closed,
    "gf-263514": gf_263514_fixed,
    "gf-263514-sum-part": lambda order: _sum_part(gf_263514_fixed(order)),
    "gf-263514-skew-part": lambda order: _skew_part(gf_263514_fixed(order)),
    "lead-enum-254613": lambda order: lead_enum("254613", order),
    "lead-enum-524361": lambda order: lead_enum("524361", order),
    "lead-enum-546132": lambda order: lead_enum("546132", order),
    "lead-enum-4132": lambda order: lead_enum("4132", order),
    "lead-enum-4132-first-not-one": lambda order: lead_enum(
        "4132", order, "first-entry-not-one"
    ),
    "stat132-enum-ending-max": stat132_ending_max_enum,
    "simples-gf-enum": simples_gf_enum,
}


def _extraction_from(a: MSeries) -> MSeries:
    """(A(1,x) - t*A(t,x)) / (1-t) - catalan-layered / (1-tx)."""
    order = a.order
    x, t = _x(order), _t(order)
    b = a.substitute({"t": 1})
    first = (b - t * a).divide_one_minus("t")
    return first - catalan_layered(order) / (1 - t * x)


def series_names() -> list[str]:
    return sorted(_NAMED)


def named_series(name: str, order: int) -> MSeries:
    if name not in _NAMED:
        raise SeriesError(
            f"unknown series {name!r}; known: {', '.join(series_names())}"
        )
    return _NAMED[name](order)


# ---------------------------------------------------------------------------
# identity registry


@dataclass(frozen=True)
class _Identity:
    build: Callable[[int, bool], tuple[MSeries, MSeries]]
    enum_backed: bool = False


IDENTITIES: dict[str, _Identity] = {}


def _identity(identity_id: str, *, enum_backed: bool = False):
    """Register the decorated builder as the identity ``identity_id``.

    The builder takes ``(order, corrupt)`` and returns the sides (lhs,
    rhs), or a list of such pairs, that must agree to ``order``; its
    docstring states the identity.  ``enum_backed`` marks an identity that
    enumerates a class, so it is held to ``ENUM_DEPTH_LIMIT`` and run by
    ``verify`` at min(--order, --max-n).
    """

    def register(build):
        IDENTITIES[identity_id] = _Identity(build, enum_backed)
        return build

    return register


def _lead_functional_sides(a: MSeries, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Shared shape of the three six-pattern functional equations."""
    order = a.order
    x, t = _x(order), _t(order)
    y = lead_4132_closed(order)
    z = lead_4132_first_not_one_closed(order)
    d = _extraction_from(a)
    xd = x * d / (1 - x)
    return a, y + t * xd + (t if corrupt else 1) * xd * z


@_identity("lead-254613-functional", enum_backed=True)
def _identity_lead_254613(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Enumerated leading-maxima series over the 254613 class satisfies its
    extraction/gap/block functional equation.
    """
    a = lead_enum("254613", order)
    x, t = _x(order), _t(order)
    b = a.substitute({"t": 1})
    tx_inv = 1 / (1 - t * x)
    e = (b - t * a).divide_one_minus("t") - tx_inv
    if corrupt:
        e = e + tx_inv - 1
    gap_factor = x * (b - 1) / (1 - x) / (1 - t * x)
    block = 1 - t * x * (b - 1) / (1 - t * x)
    rhs = tx_inv + t * x * e / (1 - x) + (a - tx_inv) * gap_factor / block
    return a, rhs


@_identity("schroder-cubic")
def _identity_schroder_cubic(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """The large Schroder series is a root of B^2 + (x-3)B + 2."""
    b = large_schroder_series(order)
    x = _x(order)
    c = 1 if corrupt else 2
    return b * b + (x - 3) * b + c, MSeries({}, order)


@_identity("kernel-root-product")
def _identity_kernel_product(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """x * little-schroder * large-schroder = large-schroder - 1."""
    b = large_schroder_series(order)
    t = little_schroder_series(order)
    x = _x(order)
    rhs = (b + 1) if corrupt else (b - 1)
    return x * t * b, rhs


@_identity("kernel-254613-vanishes")
def _identity_kernel_254613(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """The cubic kernel of the 254613 equation vanishes at the kernel root."""
    b = large_schroder_series(order)
    t = little_schroder_series(order)
    x = _x(order)
    sign = -1 if corrupt else 1
    kernel = (
        b * t * t * t * x * x
        + sign * b * t * t * x * x
        - b * t * t * x
        - b * t * x * x
        + b * x
        - t * t * x
        + t
        - 1
    )
    return kernel, MSeries({}, order)


@_identity("lead-524361-functional", enum_backed=True)
def _identity_lead_524361(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Enumerated series over the 524361 class satisfies its functional equation."""
    return _lead_functional_sides(lead_enum("524361", order), corrupt)


@_identity("lead-546132-functional", enum_backed=True)
def _identity_lead_546132(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Enumerated series over the 546132 class satisfies the same functional
    equation (no extra t on the inflation term).
    """
    return _lead_functional_sides(lead_enum("546132", order), corrupt)


@_identity("lead-4132-closed", enum_backed=True)
def _identity_lead_4132_closed(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Enumerated leading-maxima series over the 4132 class matches its closed form."""
    return lead_enum("4132", order), lead_4132_closed(order, corrupt=corrupt)


@_identity("lead-4132-first-not-one-closed", enum_backed=True)
def _identity_first_not_one_closed(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Enumerated leading-maxima series over the 4132 subclass with first
    entry != 1 matches its closed form.
    """
    closed = lead_4132_first_not_one_closed(order, corrupt=corrupt)
    return lead_enum("4132", order, "first-entry-not-one"), closed


@_identity("first-not-one-from-full")
def _identity_first_not_one_from_full(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Restricted series = (1 - tx) * full series - 1."""
    x, t = _x(order), _t(order)
    y = lead_4132_closed(order)
    z = lead_4132_first_not_one_closed(order)
    factor = (1 + t * x) if corrupt else (1 - t * x)
    return z, factor * y - 1


@_identity("kernel-524361-vanishes")
def _identity_kernel_524361(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """t^2 x + (t-1) x C* - (t-1) vanishes at the kernel root t."""
    troot = little_schroder_series(order)
    x = _x(order)
    c_star = _c_star(troot)
    e = 3 if corrupt else 2
    lhs = troot**e * x + (troot - 1) * x * c_star - (troot - 1)
    return lhs, MSeries({}, order)


@_identity("schroder-from-kernel-root")
def _identity_schroder_from_kernel(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """large-schroder * (1 - x * kernel-root) = 1."""
    b = large_schroder_series(order)
    troot = little_schroder_series(order)
    x = _x(order)
    factor = (1 - troot * x * x) if corrupt else (1 - troot * x)
    return b * factor, MSeries.const(1, order)


@_identity("kernel-root-closed")
def _identity_kernel_root_closed(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """The kernel fixed point equals (1 + x - sqrt(1-6x+x^2)) / (4x)."""
    closed = little_schroder_series(order)
    if corrupt:
        closed = closed * (1 + _x(order))
    return kernel_root_series(order), closed


@_identity("lead-4132-functional")
def _identity_lead_4132_functional(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """The closed 4132 series satisfies its own functional equation."""
    x, t = _x(order), _t(order)
    y = lead_4132_closed(order)
    cs = catalan_layered(order)
    tx_inv = 1 / (1 - t * x)
    mid_num = cs if corrupt else (cs - 1)
    return y, tx_inv + (t * x * mid_num / (1 - t * x) + x * (y - tx_inv) * (cs - 1)) / (1 - x)


@_identity("stat132-system")
def _identity_stat132_system(order: int, corrupt: bool) -> list[tuple[MSeries, MSeries]]:
    """The joint bond/LR-min system over 132-avoiders is solved exactly."""
    h, g = stat132_system(order)
    h_rhs, g_rhs = _stat132_step(h, g, corrupt=corrupt)
    return [(h, h_rhs), (g, g_rhs)]


@_identity("stat132-ending-max-enum", enum_backed=True)
def _identity_stat132_enum(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Ending-max table from the system matches enumeration."""
    return stat132_ending_max_enum(order), stat132_ending_max(order, corrupt=corrupt)


@_identity("simples-gf-two-ways")
def _identity_simples_two_ways(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Monomial summation and radical closed form of the simples series agree."""
    return simples_gf_from_stats(order), simples_gf_closed(order, corrupt=corrupt)


@_identity("simples-gf-vs-enumeration", enum_backed=True)
def _identity_simples_vs_enum(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Simples series matches brute-force statistics over enumerated simples."""
    lhs = simples_gf_enum(order)
    rhs = simples_gf_from_stats(order)
    if corrupt:
        rhs = rhs * MSeries.var("u", order, TOTAL_GRADED)
    return lhs, rhs


@_identity("sum-decomposable-split", enum_backed=True)
def _identity_sum_split(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Sum-decomposable members are counted by 2xf - x^2(f+1)."""
    f = class_gf_enum("263514", order)
    return class_gf_enum("263514", order, "sum"), _sum_part(f, corrupt=corrupt)


@_identity("skew-decomposable-split", enum_backed=True)
def _identity_skew_split(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Skew-decomposable members are counted by f^2/(1+f)."""
    f = class_gf_enum("263514", order)
    return class_gf_enum("263514", order, "skew"), _skew_part(f, corrupt=corrupt)


@_identity("gf-263514-schroder")
def _identity_gf263514_schroder(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    """1 + the 263514 fixed point equals the large Schroder series."""
    f = gf_263514_fixed(order)
    extra = _x(order) if corrupt else 0
    return 1 + f + extra, large_schroder_series(order)




def identity_ids() -> list[str]:
    return sorted(IDENTITIES)


def check_identity(identity_id: str, order: int, *,
                   corrupt: bool = False) -> tuple[Key, Fraction, Fraction] | None:
    """The first (key, lhs, rhs) at which the sides of an identity differ, or None.

    Each pair of sides is compared to the given order, in turn; the key
    is the first term of their difference.
    """
    if identity_id not in IDENTITIES:
        raise SeriesError(
            f"unknown identity {identity_id!r}; known: {', '.join(identity_ids())}"
        )
    spec = IDENTITIES[identity_id]
    if spec.enum_backed and order > ENUM_DEPTH_LIMIT:
        raise SeriesError(
            f"identity {identity_id!r} is enumeration-backed; order {order} "
            f"exceeds depth limit {ENUM_DEPTH_LIMIT}"
        )
    built = spec.build(order, corrupt)
    sides = built if isinstance(built, list) else [built]
    for lhs, rhs in sides:
        residual = lhs - rhs
        if residual.is_zero():
            continue
        key = residual.terms()[0][0]
        ex, et, eu = key
        return key, lhs.coefficient(x=ex, t=et, u=eu), rhs.coefficient(x=ex, t=et, u=eu)
    return None
