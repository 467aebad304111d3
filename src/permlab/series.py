"""Exact truncated power series over the rationals, in x, t, u.

``MSeries`` stores a finite map from exponent triples (x, t, u) to
nonzero rational coefficients, truncated either by x-degree (the usual
grading for class generating functions, whose t/u slices are honest
polynomials) or by total degree (used for the simple-permutation series,
whose natural grade is u-degree + x-degree).

No floating point anywhere: coefficients are ints or
:class:`fractions.Fraction`.  ``reciprocal`` and ``sqrt1`` solve for one
grade at a time, so each costs about one multiplication's worth of
work rather than ``order`` of them.

On top of the arithmetic sit a registry of named series, a fixed-point
solver for the functional equations those series satisfy, and a
registry of checkable identities, each with a deliberately corrupted
variant for mutation testing.  The solver is Picard iteration with
ramped precision: each pass works only to the grade the iterate can
have gained (Brent & Kung, "Fast algorithms for manipulating formal
power series", JACM 1978), and the parts of an equation that do not
depend on the iterate are built once per solve, not once per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Mapping

from permlab.enumeration import PatternBasis, class_levels, refined_count
from permlab.perms import (
    Perm,
    is_simple,
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
    """A fixed-point pass failed to raise the agreement degree.

    ``agreement`` is the agreement degree the solve had reached (see
    :func:`fixed_point_solve`) and ``passes`` the number of passes run,
    the stalled one included.
    """

    def __init__(self, equation_id: str, agreement: int, passes: int):
        super().__init__(
            f"fixed-point iteration for {equation_id!r} stopped gaining "
            "agreement degree; the registered map is not a contraction "
            f"(stalled at agreement degree {agreement} after {passes} passes)"
        )
        self.equation_id = equation_id
        self.agreement = agreement
        self.passes = passes


def _norm_coeff(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    return c


def _grade(key: Key, grading: str) -> int:
    return key[0] if grading == X_GRADED else key[0] + key[1] + key[2]


# Per-grade solves (reciprocal, sqrt1) keep a series as {grade: {key: coeff}}.


def _add_products(acc: dict[Key, object], left, right) -> None:
    """acc += left * right for two grade slices; a missing slice is zero."""
    if not left or not right:
        return
    for (x1, t1, u1), c1 in left.items():
        for (x2, t2, u2), c2 in right.items():
            key = (x1 + x2, t1 + t2, u1 + u2)
            acc[key] = acc.get(key, 0) + c1 * c2


def _store_slice(slices: dict[int, dict[Key, object]], d: int,
                 acc: dict[Key, object], scale) -> None:
    """slices[d] = scale * acc, without zero coefficients."""
    out = {}
    for key, c in acc.items():
        c = _norm_coeff(c * scale)
        if c:
            out[key] = c
    if out:
        slices[d] = out


def _from_slices(slices: dict[int, dict[Key, object]], order: int,
                 grading: str) -> "MSeries":
    out: dict[Key, object] = {}
    for sl in slices.values():
        out.update(sl)
    return MSeries(out, order, grading)


class MSeries:
    """Truncated multivariate series with exact rational coefficients."""

    __slots__ = ("coeffs", "order", "grading")

    def __init__(self, coeffs: Mapping[Key, object], order: int,
                 grading: str = X_GRADED):
        if grading not in (X_GRADED, TOTAL_GRADED):
            raise SeriesError(f"unknown grading {grading!r}")
        if order < 0:
            raise SeriesError("truncation order must be >= 0")
        clean: dict[Key, object] = {}
        for key, c in coeffs.items():
            if _grade(key, grading) > order:
                continue
            c = _norm_coeff(c)
            if c:
                clean[key] = c
        self.coeffs = clean
        self.order = order
        self.grading = grading

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c, order: int, grading: str = X_GRADED) -> "MSeries":
        return cls({(0, 0, 0): Fraction(c)}, order, grading)

    @classmethod
    def monomial(cls, c, order: int, grading: str = X_GRADED, *,
                 x: int = 0, t: int = 0, u: int = 0) -> "MSeries":
        return cls({(x, t, u): Fraction(c)}, order, grading)

    @classmethod
    def var(cls, name: str, order: int, grading: str = X_GRADED) -> "MSeries":
        key = [0, 0, 0]
        key[_VAR_INDEX[name]] = 1
        return cls({tuple(key): 1}, order, grading)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, *, x: int = 0, t: int = 0, u: int = 0) -> Fraction:
        return Fraction(self.coeffs.get((x, t, u), 0))

    def valuation(self) -> int:
        """Smallest grade with a nonzero coefficient (order+1 if zero)."""
        if not self.coeffs:
            return self.order + 1
        return min(_grade(k, self.grading) for k in self.coeffs)

    def variables(self) -> tuple[str, ...]:
        used = [False, False, False]
        for key in self.coeffs:
            for i in range(3):
                if key[i]:
                    used[i] = True
        return tuple(v for v, ok in zip(("x", "t", "u"), used) if ok)

    def x_coefficients(self, upto: int | None = None) -> list[Fraction]:
        """Coefficient list of a univariate series in x."""
        hi = self.order if upto is None else upto
        if hi > self.order:
            raise SeriesError("coefficients beyond the truncation order are unknown")
        if any(k[1] or k[2] for k in self.coeffs):
            raise SeriesError("series is not univariate in x")
        return [Fraction(self.coeffs.get((n, 0, 0), 0)) for n in range(hi + 1)]

    def terms(self):
        return sorted(
            self.coeffs.items(), key=lambda kv: (_grade(kv[0], self.grading), kv[0])
        )

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        lines = []
        for key, c in self.terms():
            parts = [f"{v}^{e}" for v, e in zip(("x", "t", "u"), key) if e]
            mono = " ".join(parts) if parts else "1"
            lines.append(f"{c} * {mono}")
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MSeries):
            return NotImplemented
        return (
            self.grading == other.grading
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("MSeries is not hashable")

    def __repr__(self):
        head = ", ".join(
            f"{k}: {c}" for k, c in list(self.terms())[:4]
        )
        more = "..." if len(self.coeffs) > 4 else ""
        return f"MSeries({{{head}{more}}}, order={self.order}, grading={self.grading!r})"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MSeries":
        if isinstance(other, MSeries):
            if other.grading != self.grading:
                raise SeriesError("grading mismatch")
            return other
        return MSeries.const(other, self.order, self.grading)

    def __add__(self, other) -> "MSeries":
        other = self._coerce(other)
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return MSeries(out, order, self.grading)

    __radd__ = __add__

    def __neg__(self) -> "MSeries":
        return MSeries({k: -c for k, c in self.coeffs.items()}, self.order, self.grading)

    def __sub__(self, other) -> "MSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MSeries":
        if not isinstance(other, MSeries):
            c = _norm_coeff(Fraction(other))
            if not c:
                return MSeries({}, self.order, self.grading)
            return MSeries(
                {k: v * c for k, v in self.coeffs.items()}, self.order, self.grading
            )
        other = self._coerce(other)
        order = min(self.order, other.order)
        grading = self.grading
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out: dict[Key, object] = {}
        if grading == X_GRADED:
            bitems = sorted(b.items())
            for (x1, t1, u1), c1 in a.items():
                rem = order - x1
                for (x2, t2, u2), c2 in bitems:
                    if x2 > rem:
                        break
                    key = (x1 + x2, t1 + t2, u1 + u2)
                    out[key] = out.get(key, 0) + c1 * c2
        else:
            bitems = sorted(b.items(), key=lambda kv: sum(kv[0]))
            for (x1, t1, u1), c1 in a.items():
                rem = order - (x1 + t1 + u1)
                for (x2, t2, u2), c2 in bitems:
                    if x2 + t2 + u2 > rem:
                        break
                    key = (x1 + x2, t1 + t2, u1 + u2)
                    out[key] = out.get(key, 0) + c1 * c2
        return MSeries(out, order, grading)

    __rmul__ = __mul__

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

    # -- division-like operations ------------------------------------------

    def _constant_term(self):
        for key, c in self.coeffs.items():
            if key != (0, 0, 0) and _grade(key, self.grading) == 0:
                raise SeriesError(
                    "grade-0 part is not a plain rational constant"
                )
        return self.coeffs.get((0, 0, 0), 0)

    def _by_grade(self) -> dict[int, dict[Key, object]]:
        by_grade: dict[int, dict[Key, object]] = {}
        for key, c in self.coeffs.items():
            by_grade.setdefault(_grade(key, self.grading), {})[key] = c
        return by_grade

    def reciprocal(self) -> "MSeries":
        """Multiplicative inverse; requires a nonzero rational constant term.

        Solves a * inv = 1 one grade at a time:
        inv_d = -inv_0 * sum(a_i * inv_(d-i) for i in 1..d).

        >>> x = MSeries.var("x", 5)
        >>> (1 - x - x * x).reciprocal().x_coefficients() == [1, 1, 2, 3, 5, 8]
        True
        >>> (2 - x).reciprocal().coefficient(x=3)
        Fraction(1, 16)
        """
        c0 = self._constant_term()
        if not c0:
            raise SeriesError("not invertible: zero constant term")
        inv0 = _norm_coeff(1 / Fraction(c0))
        by_grade = self._by_grade()
        inv: dict[int, dict[Key, object]] = {0: {(0, 0, 0): inv0}}
        for d in range(1, self.order + 1):
            acc: dict[Key, object] = {}
            for i in range(1, d + 1):
                _add_products(acc, by_grade.get(i), inv.get(d - i))
            _store_slice(inv, d, acc, -inv0)
        return _from_slices(inv, self.order, self.grading)

    def sqrt1(self) -> "MSeries":
        """Square root with constant term 1, by per-grade convolution."""
        if self._constant_term() != 1:
            raise SeriesError("sqrt1 requires constant term exactly 1")
        by_grade = self._by_grade()
        root: dict[int, dict[Key, object]] = {0: {(0, 0, 0): 1}}
        for d in range(1, self.order + 1):
            acc: dict[Key, object] = {}
            for i in range(1, d):
                _add_products(acc, root.get(i), root.get(d - i))
            rhs = dict(by_grade.get(d, {}))
            for key, c in acc.items():
                rhs[key] = rhs.get(key, 0) - c
            _store_slice(root, d, rhs, Fraction(1, 2))
        return _from_slices(root, self.order, self.grading)

    def divide_one_minus(self, var: str) -> "MSeries":
        """Exact division by (1 - var); raises if the division is inexact."""
        idx = _VAR_INDEX[var]
        groups: dict[tuple[int, int], dict[int, object]] = {}
        for key, c in self.coeffs.items():
            rest = tuple(key[i] for i in range(3) if i != idx)
            groups.setdefault(rest, {})[key[idx]] = c
        out: dict[Key, object] = {}
        for rest, poly in groups.items():
            deg = max(poly)
            acc = 0
            for e in range(deg + 1):
                acc = acc + poly.get(e, 0)
                if e == deg:
                    if acc != 0:
                        raise SeriesError(
                            f"series is not divisible by (1 - {var})"
                        )
                    break
                key = [0, 0, 0]
                pos = 0
                for i in range(3):
                    if i == idx:
                        key[i] = e
                    else:
                        key[i] = rest[pos]
                        pos += 1
                if acc:
                    out[tuple(key)] = acc
        return MSeries(out, self.order, self.grading)

    def shift_down(self, var: str = "x", k: int = 1) -> "MSeries":
        """Exact division by var**k; raises if any term has a smaller exponent."""
        idx = _VAR_INDEX[var]
        out = {}
        for key, c in self.coeffs.items():
            if key[idx] < k:
                raise SeriesError(f"series is not divisible by {var}^{k}")
            new = list(key)
            new[idx] -= k
            out[tuple(new)] = c
        # dividing by var^k sharpens what we know by k grades in x/total
        return MSeries(out, self.order - k, self.grading)

    def truncate(self, order: int) -> "MSeries":
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        return MSeries(self.coeffs, order, self.grading)

    # -- substitution --------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "MSeries | Fraction | int"],
                   ) -> "MSeries":
        """Compose: replace each bound variable by a series or rational.

        A bound variable that carries positive grade weight in this
        series' grading must be replaced by a series of positive
        valuation, so every truncated-away monomial stays beyond the
        result's order.
        """
        unknown = set(bindings) - set(_VAR_INDEX)
        if unknown:
            raise SeriesError(f"unknown variables in bindings: {sorted(unknown)}")
        series_bindings = {
            v: b for v, b in bindings.items() if isinstance(b, MSeries)
        }
        if series_bindings:
            gradings = {b.grading for b in series_bindings.values()}
            if len(gradings) > 1:
                raise SeriesError("bound series have mismatched gradings")
            res_grading = gradings.pop()
            res_order = min(
                [self.order] + [b.order for b in series_bindings.values()]
            )
        else:
            res_grading = self.grading
            res_order = self.order
        for v, b in bindings.items():
            weight = 1 if (self.grading == TOTAL_GRADED or v == "x") else 0
            if weight:
                if isinstance(b, MSeries):
                    if b.valuation() < 1:
                        raise SeriesError(
                            f"binding for {v!r} must have zero constant term"
                        )
                elif Fraction(b) != 0:
                    raise SeriesError(
                        f"binding for {v!r} must have zero constant term"
                    )

        def as_series(b) -> MSeries:
            if isinstance(b, MSeries):
                if b.grading != res_grading:
                    raise SeriesError("grading mismatch in bindings")
                return b.truncate(res_order)
            return MSeries.const(b, res_order, res_grading)

        factors = {}
        for v in ("x", "t", "u"):
            if v in bindings:
                factors[v] = as_series(bindings[v])
            else:
                factors[v] = MSeries.var(v, res_order, res_grading)
        pow_cache: dict[str, list[MSeries]] = {
            v: [MSeries.const(1, res_order, res_grading)] for v in factors
        }

        def power(v: str, e: int) -> MSeries:
            cache = pow_cache[v]
            while len(cache) <= e:
                cache.append(cache[-1] * factors[v])
            return cache[e]

        total = MSeries({}, res_order, res_grading)
        for (ex, et, eu), c in self.terms():
            term = MSeries.const(c, res_order, res_grading)
            if ex:
                term = term * power("x", ex)
            if et:
                term = term * power("t", et)
            if eu:
                term = term * power("u", eu)
            total = total + term
        return total


# ---------------------------------------------------------------------------
# shared closed-form building blocks


def _x(order: int, grading: str = X_GRADED) -> MSeries:
    return MSeries.var("x", order, grading)


def _t(order: int, grading: str = X_GRADED) -> MSeries:
    return MSeries.var("t", order, grading)


def _u(order: int, grading: str = X_GRADED) -> MSeries:
    return MSeries.var("u", order, grading)


def _one(order: int, grading: str = X_GRADED) -> MSeries:
    return MSeries.const(1, order, grading)


def catalan_series(order: int) -> MSeries:
    """Catalan generating function via its quadratic fixed point."""
    return fixed_point_solve("catalan-fixed", order)


def large_schroder_series(order: int) -> MSeries:
    """(3 - x - sqrt(1 - 6x + x^2)) / 2; starts 1, 1, 2, 6, 22, ..."""
    x = _x(order)
    rad = (1 - 6 * x + x * x).sqrt1()
    return (3 - x - rad) * Fraction(1, 2)


def little_schroder_series(order: int) -> MSeries:
    """(1 + x - sqrt(1 - 6x + x^2)) / (4x); starts 1, 1, 3, 11, 45, ..."""
    x = _x(order + 1)
    rad = (1 - 6 * x + x * x).sqrt1()
    return (1 + x - rad).shift_down("x", 1) * Fraction(1, 4)


def catalan_layered(order: int) -> MSeries:
    """C(x / (1 - tx)): Catalan with extra LR-maxima slots marked by t."""
    x, t = _x(order), _t(order)
    z = x * (1 - t * x).reciprocal()
    return catalan_series(order).substitute({"x": z})


def lead_4132_closed(order: int) -> MSeries:
    """Closed form of the leading-maxima series over the 4132 class."""
    x, t = _x(order), _t(order)
    cs = catalan_layered(order)
    numer = 1 - t * x + (t * x - x) * cs
    return numer * ((1 - x * cs).reciprocal()) * ((1 - t * x).reciprocal())


def lead_4132_first_not_one_closed(order: int) -> MSeries:
    """Closed form of the same series restricted to first entry != 1."""
    x, t = _x(order), _t(order)
    cs = catalan_layered(order)
    return t * x * (cs - 1) * (1 - x * cs).reciprocal()


def a033321_series(order: int) -> MSeries:
    """2 / (1 + x + sqrt((1 - x)(1 - 5x)))."""
    x = _x(order)
    rad = ((1 - x) * (1 - 5 * x)).sqrt1()
    return 2 * (1 + x + rad).reciprocal()


def simples_gf_closed(order: int) -> MSeries:
    """Radical closed form of the constrained/free simples series (total grade).

    The square-root branch is the one with s(0, x) = 0, which the
    definition forces (every simple of length >= 4 has at least one
    constrained position); the enumeration-backed checks referee this.
    """
    g = TOTAL_GRADED
    x, u = _x(order, g), _u(order, g)
    p = x * x + x + 1
    q = x * x + 3 * x + 1
    rad = (1 + u * u * p * p - 2 * u * q).sqrt1()
    numer = -x * (u - 1 + 3 * u * x + u * x * x + rad)
    return numer * ((2 * (u + 1) * (x + 1)).reciprocal())


def stat132_system(order: int) -> tuple[MSeries, MSeries]:
    return fixed_point_solve("stat132-system", order)


def stat132_ending_max(order: int) -> MSeries:
    """Bond/LR-min series over 132-avoiders ending in their maximum (n >= 2)."""
    h, _ = stat132_system(order)
    x, t, u = _x(order), _t(order), _u(order)
    inv = (1 - x * t).reciprocal()
    return x * (h - 1) * inv + u * t * x * x * inv


def simples_gf_from_stats(order: int) -> MSeries:
    """Monomial-summation route to the simples series.

    Each coefficient c of t^b u^m x^n in the ending-max table contributes
    c * x^(m+1) u^(n+b-m) (1+u)^(n-b-1); the exponents are provably
    nonnegative (m <= n and b <= n-1 for n >= 2), which is asserted here.
    """
    # contributions of total degree <= order need table entries with
    # n + b + 1 <= order only
    table = stat132_ending_max(max(order - 1, 0))
    out: dict[Key, object] = {}
    for (n, b, m), c in table.coeffs.items():
        assert n + b - m >= 0 and n - b - 1 >= 0, (n, b, m)
        base_u = n + b - m
        for j in range(n - b):  # expand (1+u)^(n-b-1)
            x_e = m + 1
            u_e = base_u + j
            if x_e + u_e > order:
                continue
            key = (x_e, 0, u_e)
            out[key] = out.get(key, 0) + c * comb(n - b - 1, j)
    return MSeries(out, order, TOTAL_GRADED)


def gf_263514_fixed(order: int) -> MSeries:
    return fixed_point_solve("gf-263514-fixed", order)


# ---------------------------------------------------------------------------
# enumeration-backed series

_BASES = {
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
    table = refined_count(_BASES[basis_name], order, ["leading-maxima"], filter_id)
    coeffs: dict[Key, object] = {}
    for n, (ell,), count in table.rows():
        coeffs[(n, ell, 0)] = count
    return MSeries(coeffs, order, X_GRADED)


def stat132_ending_max_enum(order: int) -> MSeries:
    """Enumerated bond/LR-min table over Av(132) with last entry = length, n >= 2."""
    _check_enum_order("stat132-enum-ending-max", order)
    table = refined_count(
        _BASES["132"], order, ["bond", "lr-min"], "last-entry-equals-length"
    )
    coeffs: dict[Key, object] = {}
    for n, (b, m), count in table.rows():
        if n >= 2:
            coeffs[(n, b, m)] = count
    return MSeries(coeffs, order, X_GRADED)


def class_gf_enum(basis_name: str, order: int, *, from_length: int = 0) -> MSeries:
    """Plain counting series of an enumerated class."""
    _check_enum_order(f"gf-enum-{basis_name}", order)
    levels = class_levels(_BASES[basis_name], order)
    return MSeries(
        {(n, 0, 0): len(lv) for n, lv in enumerate(levels) if n >= from_length},
        order,
        X_GRADED,
    )


def _simples_of_263514(order: int) -> list[Perm]:
    out = []
    for n, level in enumerate(class_levels(_BASES["263514"], order)):
        if n >= 4:
            out.extend(p for p in level if is_simple(p))
    return out


def simples_gf_enum(order: int) -> MSeries:
    """Brute-force simples series: u^(n-lrmin-1) x^(lrmin+1) over stripped simples."""
    _check_enum_order("simples-gf-enum", order)
    coeffs: dict[Key, object] = {}
    for sigma in _simples_of_263514(order):
        n = len(sigma)
        m = len(lr_minima(strip_leading_maxima(sigma)))
        key = (m + 1, 0, n - m - 1)
        coeffs[key] = coeffs.get(key, 0) + 1
    return MSeries(coeffs, order, TOTAL_GRADED)


def decomposable_gf_enum(basis_name: str, order: int, kind: str) -> MSeries:
    """Counting series of the sum- or skew-decomposable class members."""
    _check_enum_order(f"gf-enum-{basis_name}-{kind}", order)
    pred = is_sum_decomposable if kind == "sum" else is_skew_decomposable
    levels = class_levels(_BASES[basis_name], order)
    return MSeries(
        {
            (n, 0, 0): sum(1 for p in lv if pred(p))
            for n, lv in enumerate(levels)
        },
        order,
        X_GRADED,
    )


# ---------------------------------------------------------------------------
# fixed-point equation registry


def _no_invariants(order: int) -> tuple[MSeries, ...]:
    return ()


@dataclass(frozen=True)
class _Equation:
    """A contraction y = step(y) on a tuple of series.

    ``invariants(order)`` builds the parts of the map that do not depend
    on the iterate; the solver builds them once and passes them, cut to
    each pass's precision, to ``step`` after the iterate's components.
    """

    names: tuple[str, ...]
    initial: Callable[[int], tuple[MSeries, ...]]
    step: Callable[..., tuple[MSeries, ...]]
    invariants: Callable[[int], tuple[MSeries, ...]] = _no_invariants


def _catalan_step(y: MSeries) -> tuple[MSeries, ...]:
    x = _x(y.order)
    return (1 + x * y * y,)


def _stat132_initial(order: int) -> tuple[MSeries, ...]:
    return (_one(order), _one(order))


def _stat132_invariants(order: int) -> tuple[MSeries, ...]:
    x, t, u = _x(order), _t(order), _u(order)
    return (1 - t * x).reciprocal(), (1 - t * u * x).reciprocal()


def _stat132_step(h: MSeries, g: MSeries, tx_inv: MSeries,
                  tux_inv: MSeries) -> tuple[MSeries, ...]:
    order = h.order
    x, t, u = _x(order), _t(order), _u(order)
    p = (h - 1) * (t * x * tx_inv) + h + t * u * x * tx_inv - 1
    q = (u * x * tux_inv) * g + g - 1
    r = (t * u * x * tux_inv) * g + g - 1
    pq = p * q
    h_new = 1 + x * pq + u * x * r
    g_new = 1 + x * (pq + p)  # p*(q+1) reuses the big product
    return h_new, g_new


def _gf263514_invariants(order: int) -> tuple[MSeries, ...]:
    x = _x(order)
    return simples_gf_closed(order), x * (1 - x).reciprocal()


def _gf263514_step(f: MSeries, s: MSeries, u_bind: MSeries) -> tuple[MSeries, ...]:
    order = f.order
    x = _x(order)
    f_skew = f * f * (1 + f).reciprocal()
    f_sum = 2 * x * f - x * x * (f + 1)
    s_at = s.substitute({"u": u_bind, "x": f})
    return (x + f_skew + f_sum + s_at,)


def _kernel_root_step(t_cur: MSeries, catalan: MSeries) -> tuple[MSeries, ...]:
    order = t_cur.order
    x = _x(order)
    z = x * (1 - t_cur * x).reciprocal()
    c_star = catalan.substitute({"x": z})
    return (1 + t_cur * t_cur * x * (1 - x * c_star).reciprocal(),)


EQUATIONS: dict[str, _Equation] = {
    "catalan-fixed": _Equation(
        ("catalan",), lambda order: (_one(order),), _catalan_step
    ),
    "stat132-system": _Equation(
        ("stat132-last-not-max", "stat132-first-not-max"),
        _stat132_initial,
        _stat132_step,
        _stat132_invariants,
    ),
    "gf-263514-fixed": _Equation(
        ("gf-263514",),
        lambda order: (MSeries({}, order),),
        _gf263514_step,
        _gf263514_invariants,
    ),
    "kernel-root": _Equation(
        ("kernel-root",),
        lambda order: (_one(order),),
        _kernel_root_step,
        lambda order: (catalan_series(order),),
    ),
}


def fixed_point_solve(equation_id: str, order: int):
    """Iterate a registered contraction to its unique truncated solution.

    Picard iteration with ramped precision.  A pass maps the iterate y
    to y' = step(y) and measures the agreement degree, the valuation of
    y - y' (capped at the pass's precision).  If y and y' first differ
    at grade a, both are exact below a and y' is exact through a, so the
    next pass only needs precision a + 1; it runs at
    ``min(order, a + 2)``, which also lets it gain two grades at once.
    The iterate is lifted to that precision by relabelling its order:
    the grades it lacks are unknown anyway and the pass recomputes them.
    The equation's invariants are built once at full order and cut down
    to each pass's precision.

    The solve returns only from a pass at full order whose two iterates
    agree beyond ``order``, the same stopping rule as full-order Picard
    iteration, so it returns the same series.  A contraction raises the
    agreement degree on every pass; :class:`NonContractionError` is
    raised as soon as a pass does not.
    """
    if equation_id not in EQUATIONS:
        raise SeriesError(f"unknown equation {equation_id!r}")
    eq = EQUATIONS[equation_id]
    invariants = eq.invariants(order)
    cur = eq.initial(order)
    agreement = -1
    passes = 0
    # agreement rises every pass and stays <= order, so the loop ends
    while True:
        prec = min(order, agreement + 2)
        cur = tuple(MSeries(c.coeffs, prec, c.grading) for c in cur)
        nxt = eq.step(*cur, *(s.truncate(prec) for s in invariants))
        passes += 1
        diff = min((a - b).valuation() for a, b in zip(cur, nxt))
        if prec == order and diff > order:
            return nxt if len(nxt) > 1 else nxt[0]
        if diff <= agreement:
            raise NonContractionError(equation_id, agreement, passes)
        # agreeing through prec says nothing about grade prec + 1
        agreement = min(diff, prec)
        cur = nxt


# ---------------------------------------------------------------------------
# named series registry

_NAMED: dict[str, Callable[[int], MSeries]] = {
    "catalan": catalan_series,
    "catalan-closed": lambda order: (
        (1 - (1 - 4 * _x(order + 1)).sqrt1()).shift_down("x", 1) * Fraction(1, 2)
    ),
    "large-schroder": large_schroder_series,
    "little-schroder": little_schroder_series,
    "schroder-cubic-root": lambda order: (
        (3 - _x(order) - ((3 - _x(order)) * (3 - _x(order)) - 8).sqrt1())
        * Fraction(1, 2)
    ),
    "kernel-root": lambda order: fixed_point_solve("kernel-root", order),
    "catalan-layered": catalan_layered,
    "a033321": a033321_series,
    "lead-4132": lead_4132_closed,
    "lead-4132-first-not-one": lead_4132_first_not_one_closed,
    "extract-524361": lambda order: _extraction_series("524361", order),
    "extract-546132": lambda order: _extraction_series("546132", order),
    "stat132-last-not-max": lambda order: stat132_system(order)[0],
    "stat132-first-not-max": lambda order: stat132_system(order)[1],
    "stat132-ending-max": stat132_ending_max,
    "simples-gf-from-stats": simples_gf_from_stats,
    "simples-gf-closed": simples_gf_closed,
    "gf-263514": gf_263514_fixed,
    "gf-263514-sum-part": lambda order: _f_sum_part(order),
    "gf-263514-skew-part": lambda order: _f_skew_part(order),
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


def _extraction_series(basis_name: str, order: int) -> MSeries:
    a_enum = lead_enum(basis_name, order)
    return _extraction_from(a_enum)


def _extraction_from(a: MSeries) -> MSeries:
    """(A(1,x) - t*A(t,x)) / (1-t) - catalan-layered / (1-tx)."""
    order = a.order
    x, t = _x(order), _t(order)
    b = a.substitute({"t": 1})
    first = (b - t * a).divide_one_minus("t")
    return first - catalan_layered(order) * (1 - t * x).reciprocal()


def _f_sum_part(order: int) -> MSeries:
    f = gf_263514_fixed(order)
    x = _x(order)
    return 2 * x * f - x * x * (f + 1)


def _f_skew_part(order: int) -> MSeries:
    f = gf_263514_fixed(order)
    return f * f * (1 + f).reciprocal()


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
class IdentityCheck:
    id: str
    order: int
    status: str  # "pass" | "fail"
    first_mismatch: tuple[Key, Fraction, Fraction] | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        mismatch = None
        if self.first_mismatch is not None:
            key, lhs, rhs = self.first_mismatch
            mismatch = {
                "exponents": {"x": key[0], "t": key[1], "u": key[2]},
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
        return {
            "id": self.id,
            "order": self.order,
            "status": self.status,
            "firstMismatch": mismatch,
        }


@dataclass(frozen=True)
class _Identity:
    build: Callable[[int, bool], tuple[MSeries, MSeries]]
    default_order: int
    enum_backed: bool = False
    description: str = ""


def _lead_functional_sides(a: MSeries, corrupt: bool) -> tuple[MSeries, MSeries]:
    """Shared shape of the three six-pattern functional equations."""
    order = a.order
    x, t = _x(order), _t(order)
    y = lead_4132_closed(order)
    z = lead_4132_first_not_one_closed(order)
    d = _extraction_from(a)
    x_inv = (1 - x).reciprocal()
    third = (t if corrupt else 1) * x * x_inv * d * z
    rhs = y + t * x * x_inv * d + third
    return a, rhs


def _identity_lead_254613(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    a = lead_enum("254613", order)
    x, t = _x(order), _t(order)
    b = a.substitute({"t": 1})
    e = (b - t * a).divide_one_minus("t") - (1 - t * x).reciprocal()
    if corrupt:
        e = e + (1 - t * x).reciprocal() - 1
    x_inv = (1 - x).reciprocal()
    tx_inv = (1 - t * x).reciprocal()
    gap_factor = x * (b - 1) * x_inv * tx_inv
    block_factor = (1 - t * x * (b - 1) * tx_inv).reciprocal()
    rhs = tx_inv + t * x * e * x_inv + (a - tx_inv) * gap_factor * block_factor
    return a, rhs


def _identity_schroder_cubic(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    b = large_schroder_series(order)
    x = _x(order)
    c = 1 if corrupt else 2
    return b * b + (x - 3) * b + c, MSeries({}, order)


def _identity_kernel_product(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    b = large_schroder_series(order)
    t = little_schroder_series(order)
    x = _x(order)
    rhs = (b + 1) if corrupt else (b - 1)
    return x * t * b, rhs


def _identity_kernel_254613(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
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


def _identity_lead_524361(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    return _lead_functional_sides(lead_enum("524361", order), corrupt)


def _identity_lead_546132(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    return _lead_functional_sides(lead_enum("546132", order), corrupt)


def _identity_lead_4132_closed(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    x, t = _x(order), _t(order)
    cs = catalan_layered(order)
    sign = 1 if corrupt else -1
    numer = 1 - t * x + (t * x + sign * x) * cs
    closed = numer * (1 - x * cs).reciprocal() * (1 - t * x).reciprocal()
    return lead_enum("4132", order), closed


def _identity_first_not_one_closed(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    x, t = _x(order), _t(order)
    cs = catalan_layered(order)
    numer = t * x * (cs if corrupt else (cs - 1))
    closed = numer * (1 - x * cs).reciprocal()
    return lead_enum("4132", order, "first-entry-not-one"), closed


def _identity_first_not_one_from_full(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    x, t = _x(order), _t(order)
    y = lead_4132_closed(order)
    z = lead_4132_first_not_one_closed(order)
    factor = (1 + t * x) if corrupt else (1 - t * x)
    return z, factor * y - 1


def _identity_kernel_524361(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    troot = little_schroder_series(order)
    x = _x(order)
    z = x * (1 - troot * x).reciprocal()
    c_star = catalan_series(order).substitute({"x": z})
    e = 3 if corrupt else 2
    lhs = troot**e * x + (troot - 1) * x * c_star - (troot - 1)
    return lhs, MSeries({}, order)


def _identity_schroder_from_kernel(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    b = large_schroder_series(order)
    troot = little_schroder_series(order)
    x = _x(order)
    factor = (1 - troot * x * x) if corrupt else (1 - troot * x)
    return b * factor, _one(order)


def _identity_kernel_root_closed(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    closed = little_schroder_series(order)
    if corrupt:
        closed = closed * (1 + _x(order))
    return named_series("kernel-root", order), closed


def _identity_lead_4132_functional(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    x, t = _x(order), _t(order)
    y = lead_4132_closed(order)
    cs = catalan_layered(order)
    tx_inv = (1 - t * x).reciprocal()
    x_inv = (1 - x).reciprocal()
    mid_num = cs if corrupt else (cs - 1)
    rhs = (
        tx_inv
        + t * x * mid_num * tx_inv * x_inv
        + x * x_inv * (y - tx_inv) * (cs - 1)
    )
    return y, rhs


def _identity_stat132_system(order: int, corrupt: bool) -> list[tuple[MSeries, MSeries]]:
    h, g = stat132_system(order)
    x, t, u = _x(order), _t(order), _u(order)
    tx_inv, tux_inv = _stat132_invariants(order)
    p =(h - 1) * (t * x * tx_inv) + h + t * u * x * tx_inv - 1
    q = (u * x * tux_inv) * g + g - 1
    r = (t * u * x * tux_inv) * g + g - 1
    last = (u * u if corrupt else u) * x * r
    h_rhs = 1 + x * p * q + last
    g_rhs = 1 + x * p * (q + 1)
    return [(h, h_rhs), (g, g_rhs)]


def _identity_stat132_enum(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    x, t, u = _x(order), _t(order), _u(order)
    h, _ = stat132_system(order)
    inv = (1 - x * t).reciprocal()
    t_factor = 1 if corrupt else t
    closed = x * (h - 1) * inv + u * t_factor * x * x * inv
    return stat132_ending_max_enum(order), closed


def _identity_simples_two_ways(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    lhs = simples_gf_from_stats(order)
    g = TOTAL_GRADED
    x, u = _x(order, g), _u(order, g)
    p = x * x + x + 1
    q = x * x + 3 * x + 1
    rad = (1 + u * u * p * p - 2 * u * q).sqrt1()
    middle = (2 if corrupt else 3) * u * x
    numer = -x * (u - 1 + middle + u * x * x + rad)
    rhs = numer * ((2 * (u + 1) * (x + 1)).reciprocal())
    return lhs, rhs


def _identity_simples_vs_enum(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    lhs = simples_gf_enum(order)
    rhs = simples_gf_from_stats(order)
    if corrupt:
        rhs = rhs * MSeries.var("u", order, TOTAL_GRADED)
    return lhs, rhs


def _identity_sum_split(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    f = class_gf_enum("263514", order, from_length=1)
    x = _x(order)
    rhs = 2 * x * f - x * x * ((f if corrupt else f + 1))
    return decomposable_gf_enum("263514", order, "sum"), rhs


def _identity_skew_split(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    f = class_gf_enum("263514", order, from_length=1)
    denom = (1 - f) if corrupt else (1 + f)
    return decomposable_gf_enum("263514", order, "skew"), f * f * denom.reciprocal()


def _identity_gf263514_schroder(order: int, corrupt: bool) -> tuple[MSeries, MSeries]:
    f = gf_263514_fixed(order)
    extra = _x(order) if corrupt else 0
    return 1 + f + extra, large_schroder_series(order)


IDENTITIES: dict[str, _Identity] = {
    "lead-254613-functional": _Identity(
        _identity_lead_254613, 10, True,
        "enumerated leading-maxima series over the 254613 class satisfies "
        "its extraction/gap/block functional equation",
    ),
    "schroder-cubic": _Identity(
        _identity_schroder_cubic, 20, False,
        "the large Schroder series is a root of B^2 + (x-3)B + 2",
    ),
    "kernel-root-product": _Identity(
        _identity_kernel_product, 20, False,
        "x * little-schroder * large-schroder = large-schroder - 1",
    ),
    "kernel-254613-vanishes": _Identity(
        _identity_kernel_254613, 20, False,
        "the cubic kernel of the 254613 equation vanishes at the kernel root",
    ),
    "lead-524361-functional": _Identity(
        _identity_lead_524361, 10, True,
        "enumerated series over the 524361 class satisfies its functional equation",
    ),
    "lead-546132-functional": _Identity(
        _identity_lead_546132, 10, True,
        "enumerated series over the 546132 class satisfies the same functional "
        "equation (no extra t on the inflation term)",
    ),
    "lead-4132-closed": _Identity(
        _identity_lead_4132_closed, 10, True,
        "enumerated leading-maxima series over the 4132 class matches its closed form",
    ),
    "lead-4132-first-not-one-closed": _Identity(
        _identity_first_not_one_closed, 10, True,
        "same for the subclass with first entry != 1",
    ),
    "first-not-one-from-full": _Identity(
        _identity_first_not_one_from_full, 20, False,
        "restricted series = (1 - tx) * full series - 1",
    ),
    "kernel-524361-vanishes": _Identity(
        _identity_kernel_524361, 20, False,
        "t^2 x + (t-1) x C* - (t-1) vanishes at the kernel root",
    ),
    "schroder-from-kernel-root": _Identity(
        _identity_schroder_from_kernel, 20, False,
        "large-schroder * (1 - x * kernel-root) = 1",
    ),
    "kernel-root-closed": _Identity(
        _identity_kernel_root_closed, 20, False,
        "the kernel fixed point equals (1 + x - sqrt(1-6x+x^2)) / (4x)",
    ),
    "lead-4132-functional": _Identity(
        _identity_lead_4132_functional, 20, False,
        "the closed 4132 series satisfies its own functional equation",
    ),
    "stat132-system": _Identity(
        _identity_stat132_system, 12, False,
        "the joint bond/LR-min system over 132-avoiders is solved exactly",
    ),
    "stat132-ending-max-enum": _Identity(
        _identity_stat132_enum, 10, True,
        "ending-max table from the system matches enumeration",
    ),
    "simples-gf-two-ways": _Identity(
        _identity_simples_two_ways, 14, False,
        "monomial summation and radical closed form of the simples series agree",
    ),
    "simples-gf-vs-enumeration": _Identity(
        _identity_simples_vs_enum, 10, True,
        "simples series matches brute-force statistics over enumerated simples",
    ),
    "sum-decomposable-split": _Identity(
        _identity_sum_split, 10, True,
        "sum-decomposable members are counted by 2xf - x^2(f+1)",
    ),
    "skew-decomposable-split": _Identity(
        _identity_skew_split, 10, True,
        "skew-decomposable members are counted by f^2/(1+f)",
    ),
    "gf-263514-schroder": _Identity(
        _identity_gf263514_schroder, 20, False,
        "1 + the 263514 fixed point equals the large Schroder series",
    ),
}


def identity_ids() -> list[str]:
    return sorted(IDENTITIES)


def check_identity(identity_id: str, order: int | None = None, *,
                   corrupt: bool = False) -> IdentityCheck:
    """Evaluate LHS - RHS of a registered identity to the given order."""
    if identity_id not in IDENTITIES:
        raise SeriesError(
            f"unknown identity {identity_id!r}; known: {', '.join(identity_ids())}"
        )
    spec = IDENTITIES[identity_id]
    if order is None:
        order = spec.default_order
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
        key = min(residual.coeffs, key=lambda k: (_grade(k, residual.grading), k))
        ex, et, eu = key
        return IdentityCheck(
            identity_id,
            order,
            "fail",
            (key, lhs.coefficient(x=ex, t=et, u=eu), rhs.coefficient(x=ex, t=et, u=eu)),
        )
    return IdentityCheck(identity_id, order, "pass")
