"""Tests for exact truncated series arithmetic and the identity registry.

Expected coefficient values come from independent small computations
(convolutions by hand, recurrences, brute-force class counts) and are
frozen; involution-style checks (square the square root, multiply by
the reciprocal) guard the nontrivial operations.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    calls_to,
    forced,
    geometric_reciprocal,
    lazy,
    naive_substitute,
    term_product,
    term_scale,
    term_sum,
)
import permlab.series as series_mod
from permlab.series import (
    ENUM_DEPTH_LIMIT,
    EQUATIONS,
    IDENTITIES,
    MSeries,
    NonContractionError,
    SeriesError,
    TOTAL_GRADED,
    X_GRADED,
    _PACK_MIN,
    _Equation,
    _built_once,
    _node,
    check_identity,
    fixed_point_solve,
    identity_ids,
    named_series,
    series_names,
)

SCHRODER = [1, 1, 2, 6, 22, 90, 394, 1806, 8558, 41586, 206098]
LITTLE = [1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
A033321 = [1, 1, 2, 6, 21, 79, 311, 1265, 5275, 22431, 96900]

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the builders whose only input is the order, each built once per process
BUILT_ONCE = [
    "catalan_series", "large_schroder_series", "little_schroder_series",
    "catalan_layered", "lead_4132_closed", "lead_4132_first_not_one_closed",
    "a033321_series", "simples_gf_closed", "stat132_system", "stat132_ending_max",
    "simples_gf_from_stats", "gf_263514_fixed", "kernel_root_series",
]
CORRUPTIBLE = ["lead_4132_closed", "lead_4132_first_not_one_closed",
               "simples_gf_closed", "stat132_ending_max"]
# up, down, up past every order before, down again
ORDER_SEQUENCE = [*range(13), *range(12, -1, -1), 20, 5]


def x(order, grading=X_GRADED):
    return MSeries.var("x", order, grading)


def t(order, grading=X_GRADED):
    return MSeries.var("t", order, grading)


def geometric(order):
    return MSeries({(n, 0, 0): 1 for n in range(order + 1)}, order)


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


def random_series(data, grading, *, min_grade=0) -> MSeries:
    """A small random series; every term has grade >= min_grade."""
    order = data.draw(st.integers(0, 5))
    keys = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).filter(
        lambda k: (k[0] if grading == X_GRADED else sum(k)) >= min_grade
    )
    return MSeries(data.draw(st.dictionaries(keys, COEFFS, max_size=5)), order, grading)


INTS = st.integers(-10**6, 10**6).filter(bool)


def dense_terms(data, grading, coeffs=INTS) -> dict:
    """Random terms of grade 3 at no fewer than ``_PACK_MIN`` (t, u) pairs."""
    pairs = [(t, u) for t in range(4) for u in range(4) if grading == X_GRADED or t + u <= 3]
    grade3 = data.draw(st.dictionaries(st.sampled_from(pairs), coeffs, min_size=_PACK_MIN))
    return {(3 if grading == X_GRADED else 3 - t - u, t, u): c for (t, u), c in grade3.items()}


def dense_series(data, grading) -> MSeries:
    """A random int series whose grade-3 slice has at least ``_PACK_MIN`` terms."""
    terms = dense_terms(data, grading)
    keys = st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 3))
    terms.update(data.draw(st.dictionaries(keys, INTS, max_size=30)))
    return MSeries(terms, data.draw(st.integers(6, 8)), grading)


def block(order, x_exp, values):
    """The series sum(values[t][u] x^x_exp t^t u^u) in x grading."""
    return MSeries({(x_exp, t, u): c for t, row in enumerate(values) for u, c in enumerate(row)},
                   order)


def lowest_grade(s: MSeries) -> int:
    """The smallest grade with a nonzero coefficient (order + 1 if s is zero)."""
    grade = sum if s.grading == TOTAL_GRADED else (lambda k: k[0])
    return min((grade(k) for k in s.coeffs), default=s.order + 1)


def full_order_picard(equation_id: str, order: int):
    """Oracle: plain Picard iteration from the initial guess, every pass at full order.

    With k unknowns one may lag another by a pass (a = 1 + x a b, b = a
    agree to degrees 1, 1, 2, 2, 3, 3, ...), so the agreement degree may
    stall for k - 1 passes in a row, and the iteration gets k (order + 2)
    passes.  A longer stall raises ``NonContractionError``.
    """
    eq = EQUATIONS[equation_id]
    cur = eq.initial(order)
    unknowns = len(cur)
    agreement, stalled = -1, 0
    for _ in range(unknowns * (order + 2)):
        nxt = eq.step(*cur)
        diff = min(lowest_grade(a - b) for a, b in zip(cur, nxt))
        if diff > order:
            return nxt if len(nxt) > 1 else nxt[0]
        if diff > agreement:
            agreement, stalled = diff, 0
        else:
            stalled += 1
            if stalled == unknowns:
                break
        cur = nxt
    raise NonContractionError(equation_id, agreement, agreement + 1)


def _oscillating_step(y):
    """y -> 1 + x*y - 2*(y - 1 - x - x^2).

    Grade d of the result reads grade d of y at every d, since no series
    operation can single out one grade.  The initial guess 1 + x + x^2 is
    the solution's grades 0-2, where the correction term vanishes, so
    grades 0-2 settle; at grade 3, [x^3] y -> 1 - 2 [x^3] y has no
    stable iterate.
    """
    x = MSeries.var("x", y.order)
    return (y * x + 1 - (y - _oscillating_guess(y.order)) * 2,)


def _oscillating_guess(order):
    return MSeries({(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1}, order)


def _stat132_x_first_step(h, g):
    """The stat132 map with p multiplied by x before it meets q.

    Grade 0 of px * q asks for grade 0 of q, hence of g, before it finds
    grade 0 of px empty, and g's own definition reads that same node: the
    two unknowns read each other at the grade being solved.
    """
    x, t, u = (MSeries.var(v, h.order) for v in "xtu")
    tx = t * x * (1 - t * x).reciprocal()
    ux = u * x * (1 - t * u * x).reciprocal()
    px = (h * (tx + 1) + ((u - 1) * tx - 1)) * x
    pxq = px * (g * (ux + 1) - 1)
    r = g * (t * ux + 1) - 1
    return pxq + r * (u * x) + 1, pxq + px + 1


class TestArithmetic:
    def test_geometric_identity(self):
        s = (1 - x(20)) * geometric(20)
        assert s == MSeries.const(1, 20)

    def test_additive_identity(self):
        s = named_series("catalan", 8)
        assert s + MSeries({}, 8) == s

    def test_catalan_square_coefficient(self):
        c = named_series("catalan", 4)
        sq = c * c
        # [x^2] C^2 = 1*2 + 1*1 + 2*1
        assert sq.coefficient(x=2) == 5

    def test_order_is_min_of_operands(self):
        a = MSeries.const(1, 10)
        b = MSeries.const(1, 4)
        assert (a + b).order == 4
        assert (a * b).order == 4

    def test_grading_mismatch_rejected(self):
        with pytest.raises(SeriesError, match="grading"):
            x(5) + x(5, TOTAL_GRADED)

    def test_truncation_respects_grading(self):
        s = MSeries({(2, 0, 3): 1}, 4, TOTAL_GRADED)
        assert s.is_zero()  # total degree 5 > 4
        s2 = MSeries({(2, 0, 3): 1}, 4, X_GRADED)
        assert not s2.is_zero()

    def test_zero_coefficients_dropped(self):
        s = x(5) - x(5)
        assert s.coeffs == {}

    def test_negative_order_rejected(self):
        with pytest.raises(SeriesError, match="order must be"):
            MSeries({}, -1)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_product_matches_term_by_term(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        a, b = random_series(data, grading), random_series(data, grading)
        assert a * b == term_product(a, b)

    def test_exponents_exact_up_to_the_u_limit(self):
        big = MSeries({(1, 2**40, 2**30): 3}, 4)
        with pytest.raises(SeriesError, match="u exponent"):
            big * big  # u = 2**31
        with pytest.raises(SeriesError, match="u exponent"):
            MSeries({(2, 2**41, 2**31): 9}, 4)
        square = MSeries({(1, 2**40, 2**30 - 1): 3}, 4) ** 2
        assert square.coeffs == {(2, 2**41, 2**31 - 2): 9}
        with pytest.raises(SeriesError, match="u exponent"):
            square * big
        with pytest.raises(SeriesError, match="u exponent"):
            forced(lazy(big) * big)
        # x t u^2 at x -> x u^m, t -> u^m: the bound product has u = 2m, and
        # the free u^2 would carry it into t
        m = 2**31 - 1
        s = MSeries({(1, 1, 2): 1}, 3)
        bindings = {"x": MSeries({(1, 0, m): 1}, 3), "t": MSeries({(0, 0, m): 1}, 3)}
        with pytest.raises(SeriesError, match="u exponent"):
            s.substitute(bindings)

    @pytest.mark.parametrize("grading", [X_GRADED, TOTAL_GRADED])
    @pytest.mark.parametrize("key", [(-1, 0, 0), (2, -1, 0)])
    def test_negative_x_or_t_rejected(self, key, grading):
        # no product reads a negative grade or a negative t key: such a
        # term would be dropped from every product, so (1 + x^-1) * x gave x
        with pytest.raises(SeriesError, match="negative x or t"):
            MSeries({key: 1, (0, 0, 0): 1}, 3, grading)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
           st.lists(st.integers(-5, 5), min_size=1, max_size=5),
           st.lists(st.integers(-5, 5), min_size=1, max_size=5))
    def test_ring_axioms_on_truncations(self, a, b, c):
        def mk(coeffs):
            return MSeries({(i, 0, 0): v for i, v in enumerate(coeffs)}, 6)

        sa, sb, sc = mk(a), mk(b), mk(c)
        assert sa + sb == sb + sa
        assert sa * sb == sb * sa
        assert (sa * sb) * sc == sa * (sb * sc)
        assert sa * (sb + sc) == sa * sb + sa * sc


class TestInverseRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=0, max_size=5))
    def test_reciprocal_then_multiply(self, tail):
        s = MSeries({(i + 1, 0, 0): v for i, v in enumerate(tail)}, 8) + 1
        assert s * s.reciprocal() == MSeries.const(1, 8)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(COEFFS, min_size=0, max_size=5))
    def test_sqrt_of_square(self, tail):
        s = MSeries({(i + 1, 0, 0): v for i, v in enumerate(tail)}, 8) + 1
        assert (s * s).sqrt1() == s


class TestReciprocal:
    def test_reciprocal_of_one_minus_tx(self):
        inv = (1 - t(6) * x(6)).reciprocal()
        assert inv.coeffs == {(n, n, 0): 1 for n in range(7)}

    def test_reciprocal_of_scalar(self):
        assert MSeries.const(2, 5).reciprocal() == MSeries.const(Fraction(1, 2), 5)

    def test_fibonacci(self):
        inv = (1 - x(9) - x(9) * x(9)).reciprocal()
        assert [int(c) for c in inv.x_coefficients()] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_reciprocal_verifies_by_multiplication(self):
        s = 1 - 3 * x(12) + x(12) ** 3
        assert (s * s.reciprocal()) == MSeries.const(1, 12)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(SeriesError, match="not invertible"):
            x(5).reciprocal()

    def test_polynomial_grade_zero_rejected(self):
        with pytest.raises(SeriesError, match="constant"):
            (1 - t(5)).reciprocal()
        with pytest.raises(SeriesError, match="constant"):
            (3 + MSeries.var("u", 5) * x(5) + MSeries.var("u", 5)).reciprocal()

    def test_zero_constant_term_rejected_total_graded(self):
        with pytest.raises(SeriesError, match="not invertible"):
            (t(5, TOTAL_GRADED) + x(5, TOTAL_GRADED)).reciprocal()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_geometric_series_oracle(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        order = data.draw(st.integers(0, 6))
        # in x grading a t/u-only term would have grade 0; keep x >= 1
        min_x = 1 if grading == X_GRADED else 0
        keys = st.tuples(st.integers(min_x, 4), st.integers(0, 3), st.integers(0, 3))
        tail = data.draw(st.dictionaries(keys, COEFFS, max_size=6))
        c0 = data.draw(COEFFS.filter(bool))
        tail.pop((0, 0, 0), None)
        s = MSeries({**tail, (0, 0, 0): c0}, order, grading)
        assert s.reciprocal() == geometric_reciprocal(s)


def divisor(data, grading, kind, coeffs, c0=None) -> MSeries:
    """A random series with constant term c0 (drawn if None) and no other grade-0 term.

    ``kind`` "sparse" gives one or two monomials of positive grade besides,
    "dense" up to 8 terms, and "packed" a grade-3 slice of at least
    ``_PACK_MIN`` terms and up to 8 more terms.
    """
    order = data.draw(st.integers(3, 6) if kind != "packed" else st.integers(6, 7))
    keys = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3))
    size = {"sparse": (1, 2), "dense": (3, 8), "packed": (0, 8)}[kind]
    terms = data.draw(st.dictionaries(keys, coeffs.filter(bool), min_size=size[0],
                                      max_size=size[1]))
    if kind == "packed":
        terms.update(dense_terms(data, grading, coeffs))
    grade = sum if grading == TOTAL_GRADED else (lambda k: k[0])
    terms = {k: c for k, c in terms.items() if grade(k) > 0}
    c0 = data.draw(coeffs.filter(bool)) if c0 is None else c0
    return MSeries({**terms, (0, 0, 0): c0}, order, grading)


class TestQuotient:
    """``a / b`` against ``a * geometric_reciprocal(b)``, term by term.

    A complete divisor pairs its nonzero grades with the quotient's stored
    ones; a lazy one, as inside a solve, is convolved grade by grade.
    """

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_product_with_geometric_reciprocal(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        coeffs = data.draw(st.sampled_from([st.integers(-3, 3), COEFFS]))
        b = divisor(data, grading, data.draw(st.sampled_from(["sparse", "dense"])), coeffs)
        a = random_series(data, grading)
        want = term_product(a, geometric_reciprocal(b))
        assert a / b == want
        assert forced(lazy(a) / b) == forced(a / lazy(b)) == forced(lazy(a) / lazy(b)) == want

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_dense_int_divisor_is_packed(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        # b_0 = 1 keeps the quotient integral, and q_3 = a_3 meets b_3 at grade 6
        b = divisor(data, grading, "packed", INTS, c0=1)
        a = MSeries(dense_terms(data, grading), b.order, grading)
        with calls_to(series_mod, "_add_packed") as packed:
            got = a / b
        assert packed
        assert got == term_product(a, geometric_reciprocal(b))

    def test_rational_operands(self):
        assert x(5) / 2 == x(5) * Fraction(1, 2)
        assert 3 / (1 - x(5)) == 3 * geometric(5)
        assert (1 - x(5)) / (1 - x(5)) == 1 / MSeries.const(1, 5) == MSeries.const(1, 5)
        assert (x(4) / (2 - x(4))).x_coefficients() == [0, Fraction(1, 2), Fraction(1, 4),
                                                        Fraction(1, 8), Fraction(1, 16)]

    def test_non_invertible_divisors_raise_at_the_call(self):
        with pytest.raises(SeriesError, match="^not invertible: zero constant term$"):
            x(5) / x(5)
        with pytest.raises(SeriesError, match="^grade-0 part is not a plain rational constant$"):
            1 / (1 - t(5))
        with pytest.raises(SeriesError, match="^not invertible: zero constant term$"):
            1 / (t(5, TOTAL_GRADED) + x(5, TOTAL_GRADED))
        with pytest.raises(SeriesError, match="^not invertible: zero constant term$"):
            x(5) / 0

    def test_lazy_divisor_in_a_solve(self):
        # y = 1 + xy / (1 - xy), so y (1 - xy) = 1: the Catalan series.  The
        # divisor is built on the unknown, so the quotient convolves.
        def oracle(y):
            xy = term_product(x(y.order), y)
            one = MSeries.const(1, y.order)
            return (term_sum(term_product(xy, geometric_reciprocal(term_sum(one, xy, -1))), one),)

        initial = lambda order: (MSeries.const(1, order),)  # noqa: E731
        EQUATIONS["quotient"] = _Equation(
            ("y",), initial, lambda y: (x(y.order) * y / (1 - x(y.order) * y) + 1,))
        EQUATIONS["quotient-oracle"] = _Equation(("y",), initial, oracle)
        try:
            for order in range(10):
                with calls_to(series_mod, "_convolve") as convolved:
                    got = fixed_point_solve("quotient", order)
                assert convolved or order == 0
                assert got == full_order_picard("quotient-oracle", order)
                assert got == named_series("catalan", order)
        finally:
            del EQUATIONS["quotient"], EQUATIONS["quotient-oracle"]


class TestLazySeries:
    """Each operation, lazy and complete, against term-by-term oracles.

    On a lazy operand an operation computes its grades one at a time when
    asked; on complete operands it computes them all at once.
    """

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_arithmetic_matches_mseries(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        a, b = random_series(data, grading), random_series(data, grading)
        c = data.draw(COEFFS)
        const = MSeries.const(c, a.order, grading)
        la, lb = lazy(a), lazy(b)
        assert forced(la + lb) == term_sum(a, b) == a + b
        assert forced(a - lb) == forced(la - b) == term_sum(a, b, -1) == a - b
        assert forced(c - la) == term_sum(const, a, -1) == c - a
        assert forced(-la) == term_scale(a, -1) == -a
        assert forced(la * lb) == term_product(a, b) == a * b
        assert forced(a * lb) == forced(la * b) == term_product(a, b)
        assert forced(c * la) == term_scale(a, c) == a * c

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reciprocal_matches_mseries(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        tail = random_series(data, grading, min_grade=1)
        s = term_sum(tail, MSeries.const(data.draw(COEFFS.filter(bool)), tail.order, grading))
        got = forced(lazy(s).reciprocal())
        assert got == s.reciprocal() == geometric_reciprocal(s)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sqrt1_squares_back(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        tail = random_series(data, grading, min_grade=1)
        radicand = term_sum(tail, MSeries.const(1, tail.order, grading))
        root = forced(lazy(radicand).sqrt1())
        assert root.coefficient() == 1
        assert term_product(root, root) == radicand
        assert radicand.sqrt1() == root

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_coeffs_view_round_trips(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        s = random_series(data, grading)
        assert MSeries(s.coeffs, s.order, s.grading) == s
        grade = sum if grading == TOTAL_GRADED else (lambda k: k[0])
        keys = [k for k, _ in s.terms()]
        assert keys == sorted(s.coeffs, key=lambda k: (grade(k), k))
        assert dict(s.terms()) == s.coeffs

    def test_no_grade_beyond_the_order(self):
        # series share slices, so none may add a grade past its order; the
        # binding here could supply one
        s = named_series("catalan", 3) - 1
        composed = s.substitute({"x": lazy(x(10))})
        assert composed.order == 3
        with pytest.raises(SeriesError, match="beyond the truncation order"):
            composed.slice(5)
        assert composed == s
        with pytest.raises(SeriesError, match="beyond the truncation order"):
            s.slice(4)

    def test_complete_operands_give_a_complete_series(self):
        # computed at once, the product lets go of its fill and operands
        product = x(4) * (1 + x(4))
        assert product._fill is None and product._done == 5
        assert product == MSeries({(1, 0, 0): 1, (2, 0, 0): 1}, 4)

    def test_inspecting_a_lazy_series_computes_nothing(self):
        computed = []

        def fill(slices, d):
            computed.append(d)

        s = _node(fill, 4, X_GRADED, lazy(x(4)))
        assert s.coeffs == {} and s.terms() == [] and s.is_zero()
        assert s.coefficient(x=1) == 0 and s.x_coefficients() == [0] * 5
        assert s == MSeries({}, 4)
        assert repr(s) == "MSeries({}, order=4, grading='x')"
        assert computed == []
        s.slice(2)
        assert computed == [0, 1, 2]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_substitute_matches_mseries(self, data):
        s_grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        b_grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        s = random_series(data, s_grading)
        bindings = {}
        for v in ("x", "t", "u"):
            weighted = s_grading == TOTAL_GRADED or v == "x"
            kind = data.draw(st.sampled_from(["free", "rational", "series"]))
            if kind == "rational":
                bindings[v] = 0 if weighted else data.draw(COEFFS)
            elif kind == "series":
                bindings[v] = random_series(data, b_grading, min_grade=int(weighted))
        if not any(isinstance(b, MSeries) for b in bindings.values()):
            bindings["x"] = random_series(data, b_grading, min_grade=1)
        pending = {v: lazy(b) if isinstance(b, MSeries) else b for v, b in bindings.items()}
        try:
            want = naive_substitute(s, bindings)
        except SeriesError:  # a free t or u of a total-graded s, x-graded bindings
            for given in (pending, bindings):
                with pytest.raises(SeriesError, match="free t or u"):
                    s.substitute(given)
            return
        got = s.substitute(pending)
        assert got._done == 0
        assert forced(got) == want
        assert s.substitute(bindings) == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rational_substitute_matches_mseries(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        s = random_series(data, grading)
        bindings = {
            v: data.draw(COEFFS) if grading == X_GRADED and v != "x" else 0
            for v in data.draw(st.sets(st.sampled_from(["x", "t", "u"])))
        }
        assert s.substitute(bindings) == naive_substitute(s, bindings)

    def test_product_skips_pairs_with_an_empty_lower_grade(self):
        # f = x + x^2 has f_0 = 0, so grade d of f * f needs f only below d
        f = lazy(x(4) + x(4) * x(4))
        # grade 4 is x^4: its one term has t = u = 0, so key t << 32 | u = 0
        assert (f * f).slice(4) == {0: 1}
        assert f._done == 4  # grades 0-3 computed, grade 4 never asked for


class TestPackedProducts:
    """Slice pairs multiplied as packed ints, against the term-by-term oracles.

    Each test watches ``_pack`` (or ``_add_products``), so it shows which
    path its products took.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_products_match_term_by_term(self, data):
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        a, b = dense_series(data, grading), dense_series(data, grading)
        with calls_to(series_mod, "_pack") as packs:
            got, lazily = a * b, forced(lazy(a) * lazy(b))
        assert packs
        assert got == lazily == term_product(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_reciprocal_and_root_match_by_multiplication(self, data):
        # 1 + x p and 1 + 4 x p for a dense slice p: grade 8 of the reciprocal
        # and of the (integral) root pairs two dense grade-4 slices
        grading = data.draw(st.sampled_from([X_GRADED, TOTAL_GRADED]))
        p = MSeries(dense_terms(data, grading, st.integers(-50, 50).filter(bool)), 8, grading)
        one, xp = MSeries.const(1, 8, grading), term_product(MSeries.var("x", 8, grading), p)
        unit, radicand = term_sum(one, xp), term_sum(one, term_scale(xp, 4))
        with calls_to(series_mod, "_pack") as packs:
            inverse, root = unit.reciprocal(), radicand.sqrt1()
        assert len(packs) == 4
        assert term_product(unit, inverse) == one
        assert term_product(root, root) == radicand

    def test_digit_width_at_its_bound(self):
        # rows of n = 2**L - 1 terms at x^0 and x^1: the coefficient of
        # t^(n-1) sums n products (2n in grade 1), so for c = 2**k - 1 it is
        # within a factor (1 - 2**-L)(1 - 2**-k)**2 of the digit's bound, and
        # as k runs, that bound falls at every bit of a byte
        for n in (15, 31):
            for k in range(1, 70):
                for c in (2**k - 1, 2**k):
                    a = MSeries({(e, i, 0): c for e in (0, 1) for i in range(n)}, 2)
                    alternating = MSeries({(e, i, 0): (-1) ** i * c
                                           for e in (0, 1) for i in range(n)}, 2)
                    for b in (a, -a, alternating):
                        with calls_to(series_mod, "_pack") as packs, \
                                calls_to(series_mod, "_add_products") as fallbacks:
                            got = a * b
                        assert len(packs) == 8  # two slices for each of four pairs
                        assert not fallbacks
                        assert got == term_product(a, b), (n, k, c)

    def test_products_that_cancel_drop_their_grade(self):
        p = [[(-1) ** (t * u) * (t + 2 * u + 1) for u in range(3)] for t in range(3)]
        a = block(2, 0, p) + block(2, 1, p)
        b = block(2, 0, p) - block(2, 1, p)
        with calls_to(series_mod, "_add_packed") as packed:
            got = a * b
            lazily = forced(lazy(a) * b)
        assert [len(args[1]) for args in packed] == [1, 2, 1] * 2
        assert 1 not in got._slices and 1 not in lazily._slices  # p * -p + p * p
        assert got == lazily == term_product(a, b)

    def test_pairs_with_different_least_exponents(self):
        # grade 1 pairs a slice from u^0 with one from u^2, and one from t u^3
        # with one from u^0: the packed sum must place each product right
        p = [[t + 2 * u + 1 for u in range(3)] for t in range(3)]
        a = block(2, 0, p) + term_product(MSeries.monomial(1, 2, t=1, u=3), block(2, 1, p))
        b = block(2, 0, p) + term_product(MSeries.monomial(1, 2, u=2), block(2, 1, p))
        with calls_to(series_mod, "_pack") as packs, \
                calls_to(series_mod, "_add_products") as fallbacks:
            got = a * b
        assert len(packs) == 8 and not fallbacks  # two slices for each of four pairs
        assert got == term_product(a, b)

    def test_a_fraction_takes_the_dict_path(self):
        values = [[t - u + 3 for u in range(3)] for t in range(3)]
        a, b = block(2, 1, values), block(2, 1, values)
        with calls_to(series_mod, "_pack") as packs:
            assert a * b == term_product(a, b)
        assert packs
        a = a + MSeries({(1, 2, 2): Fraction(1, 3)}, 2)  # one Fraction in the slice
        with calls_to(series_mod, "_pack") as packs, \
                calls_to(series_mod, "_add_products") as products:
            got = a * b
        assert not packs and products
        assert got == term_product(a, b)

    def test_stat132_solve_matches_picard(self):
        with calls_to(series_mod, "_pack") as packs:
            got = fixed_point_solve("stat132-system", 12)
        assert packs
        assert got == full_order_picard("stat132-system", 12)

    def test_u_limit_through_the_packed_path(self):
        def near(u_low):
            return MSeries({(1, t, u_low + u): (-1) ** u * (1 + t + u)
                            for t in range(3) for u in range(3)}, 4)

        below = near(2**30 - 3)
        with calls_to(series_mod, "_pack") as packs:
            square = below * below  # u up to 2**31 - 2
        assert packs and square == term_product(below, below)
        with calls_to(series_mod, "_pack") as packs:
            with pytest.raises(SeriesError, match="u exponent"):
                below * near(2**30 - 1)  # u up to 2**31
        assert packs

    def test_sparse_slice_takes_the_dict_path(self):
        sparse = MSeries({(1, 0, 2**20): 8, **{(1, 0, u): u + 1 for u in range(7)}}, 3)
        dense = block(3, 1, [[1, -2, 3]] * 3)
        tracemalloc.start()
        try:
            with calls_to(series_mod, "_pack") as packs:
                got = sparse * sparse, sparse * dense
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not packs and peak < 2**20
        assert got == (term_product(sparse, sparse), term_product(sparse, dense))

    def test_univariate_products_call_no_kernel(self):
        a = geometric(12)
        b = MSeries({(n, 0, 0): n - 3 for n in range(13)}, 12)
        with calls_to(series_mod, "_add_products") as products, \
                calls_to(series_mod, "_pack") as packs:
            got, lazily = a * b, forced(lazy(a) * lazy(b))
        assert not products and not packs
        assert got == lazily == term_product(a, b)

    def test_one_term_operand_shifts_the_other(self):
        s = MSeries({(0, 0, 0): 2, (1, 1, 0): -1, (2, 0, 3): Fraction(1, 2)}, 5)
        shifted = x(5) * s
        assert all(shifted._slices[d + 1] is sl for d, sl in s._slices.items())
        assert shifted == term_product(x(5), s)
        term = MSeries({(1, 2, 1): Fraction(-3, 2)}, 5)
        assert term * s == forced(lazy(s) * term) == term_product(term, s)


class TestSqrt:
    def test_involution_kernel_radicand(self):
        r = 1 - 6 * x(20) + x(20) ** 2
        assert r.sqrt1() * r.sqrt1() == r

    def test_fractional_root(self):
        # sqrt(1 + x) = sum(binomial(1/2, n) x^n)
        want = [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16), Fraction(-5, 128)]
        assert (1 + x(4)).sqrt1().x_coefficients() == want

    def test_sqrt_of_one(self):
        assert MSeries.const(1, 8).sqrt1() == MSeries.const(1, 8)

    def test_bivariate_radicand_involution(self):
        g = TOTAL_GRADED
        xs, us = x(16, g), MSeries.var("u", 16, g)
        p = xs * xs + xs + 1
        q = xs * xs + 3 * xs + 1
        r = 1 + us * us * p * p - 2 * us * q
        assert r.sqrt1() * r.sqrt1() == r

    def test_constant_term_must_be_one(self):
        with pytest.raises(SeriesError, match="constant term"):
            (2 + x(5)).sqrt1()


class TestSubstitute:
    def test_catalan_layered_x2_coefficient(self):
        # C(x/(1-tx)) = 1 + x + (t+2)x^2 + ...
        cl = named_series("catalan-layered", 4)
        assert cl.coefficient(x=2, t=1) == 1
        assert cl.coefficient(x=2) == 2

    def test_identity_binding_is_noop(self):
        s = named_series("lead-4132", 6)
        assert s.substitute({"x": x(6), "t": t(6)}) == s

    def test_positive_valuation_enforced(self):
        with pytest.raises(SeriesError, match="zero constant term"):
            named_series("catalan", 5).substitute({"x": 1 + x(5)})

    @pytest.mark.parametrize("solved", [False, True])
    def test_powers_compute_only_the_grades_asked_for(self, monkeypatch, solved):
        # x^2 t^4 at x -> x/(1-x), complete or still being computed, and
        # t -> x^2 + x^3: t^4 has valuation 8, so the order-12 result reads the
        # square of x/(1-x) only to grade 4, and x/(1-x) itself only to grade 3
        s = MSeries({(2, 4, 0): 1}, 12)
        bindings = {"x": x(12) / (1 - x(12)), "t": x(12) ** 2 + x(12) ** 3}
        pending = {"x": lazy(bindings["x"]) if solved else bindings["x"], "t": bindings["t"]}
        made, real = [], series_mod._product

        def product(a, b, eager=True):
            made.append(real(a, b, eager))
            return made[-1]

        monkeypatch.setattr(series_mod, "_product", product)
        assert forced(s.substitute(pending)) == naive_substitute(s, bindings)
        # t^2, t^3 and t^4 to the grades that t^4 * x^2 reads, then the square of x/(1-x)
        assert [p._done for p in made] == [7, 9, 11, 5]
        assert pending["x"]._done == (4 if solved else 13)

    def test_powers_of_a_complete_binding_stop_at_the_result_order(self, monkeypatch):
        # the powers of a complete binding are computed to grade 10 here, not to
        # the binding's own order 200
        b = x(200) / (1 - t(200) * x(200))
        c, want = named_series("catalan", 10), named_series("catalan-layered", 10)
        made, real = [], series_mod._product
        monkeypatch.setattr(series_mod, "_product",
                            lambda a, b, eager=True: made.append(real(a, b, eager)) or made[-1])
        assert c.substitute({"x": b}) == want
        assert len(made) == 9 and max(p._done for p in made) == 11  # b^2 ... b^10

    def test_total_graded_free_u_takes_no_x_graded_series(self):
        # x u^4 has x-degree 1 but total degree 5, so the order-4 series lacks it
        s = MSeries({(1, 0, b): 1 for b in range(10)}, 4, TOTAL_GRADED)
        with pytest.raises(SeriesError, match="free t or u takes no x-graded one"):
            s.substitute({"x": x(4)})
        assert s.substitute({"x": x(4, TOTAL_GRADED)}) == s
        assert s.substitute({"x": x(4), "u": 0}) == x(4)

    def test_263514_substitution_convolves_once_per_exponent_and_grade(self):
        # S(f, x/(1-x)): a convolution per x-exponent of S and grade for the
        # powers of f, and room for the rest of the solve (f * f, 1/(1 + f))
        order = 40
        exponents = {k[0] for k in named_series("simples-gf-closed", order).coeffs}
        named_series("large-schroder", order)
        with calls_to(series_mod, "_convolve") as calls:
            fixed_point_solve("gf-263514-fixed", order)
        assert len(calls) <= (len(exponents) + 1) * (order + 1)

    def test_sparse_high_power_needs_no_deep_recursion(self):
        # x^60 at x -> x + x^2, still being computed: grade d reads b^60 at d,
        # and the powers below it are brought up first, lowest first
        s = MSeries({(60, 0, 0): 1, (1, 0, 0): 1}, 62)
        b = x(62) + x(62) * x(62)
        composed = s.substitute({"x": lazy(b)})
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)  # b^60 down to b^2 would take 180 frames
        try:
            forced(composed)
        finally:
            sys.setrecursionlimit(limit)
        assert composed == s.substitute({"x": b})

    def test_lazy_part_is_read_only_to_its_own_order(self):
        # x^2 t at x -> x and t -> x, both still being computed: the part of t
        # is cut at grade 0, since x^2 takes the order-2 result's other grades
        s = MSeries({(2, 1, 0): 1}, 2)
        assert forced(s.substitute({"x": lazy(x(2)), "t": lazy(x(2))})) == MSeries({}, 2)

    def test_high_orders_need_no_deep_recursion(self):
        # each power is brought up to the grades read, lowest first, so that
        # none asks the one below it for a grade not yet computed
        fixed_point_solve("kernel-root", 100)
        series_mod.catalan_layered.__wrapped__(100)
        fixed_point_solve("gf-263514-fixed", 80)

    def test_t_eval_at_one_allowed_in_x_grading(self):
        y = named_series("lead-4132", 10)
        at_one = y.substitute({"t": 1})
        assert [int(c) for c in at_one.x_coefficients()] == A033321[:11]

    def test_y_at_one_matches_radical_form(self):
        y = named_series("lead-4132", 12).substitute({"t": 1})
        assert y == named_series("a033321", 12)


class TestDivision:
    def test_divide_one_minus_t(self):
        # (1 - t^3) / (1 - t) = 1 + t + t^2
        s = 1 - t(5) ** 3
        q = s.divide_one_minus("t")
        assert q.coeffs == {(0, 0, 0): 1, (0, 1, 0): 1, (0, 2, 0): 1}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_divide_one_minus_inverts_the_product(self, data):
        s = random_series(data, X_GRADED)
        for var in ("t", "u"):
            assert (s * (1 - MSeries.var(var, s.order))).divide_one_minus(var) == s

    def test_inexact_division_rejected(self):
        with pytest.raises(SeriesError, match="not divisible"):
            (1 + t(5)).divide_one_minus("t")


class TestFixedPoints:
    def test_catalan(self):
        y = fixed_point_solve("catalan-fixed", 10)
        assert [int(c) for c in y.x_coefficients()] == CATALAN

    def test_catalan_closed_form_agrees(self):
        assert named_series("catalan-closed", 12) == named_series("catalan", 12)

    def test_joint_system_lowest_term(self):
        c3 = named_series("stat132-ending-max", 10)
        assert min(c3.terms())[0] == (2, 1, 1)  # u*t*x^2 from the single 12

    def test_gf_263514_is_schroder(self):
        f = fixed_point_solve("gf-263514-fixed", 10)
        assert [int(c) for c in (1 + f).x_coefficients()] == SCHRODER

    def test_unknown_equation(self):
        with pytest.raises(SeriesError, match="unknown equation"):
            fixed_point_solve("no-such", 5)

    def test_non_contraction_detected(self):
        EQUATIONS["bad-equation"] = _Equation(
            ("bad",),
            lambda order: (MSeries.const(0, order),),
            lambda y: (1 - y,),
        )
        try:
            with pytest.raises(NonContractionError) as info:
                fixed_point_solve("bad-equation", 6)
        finally:
            del EQUATIONS["bad-equation"]
        err = info.value
        assert err.equation_id == "bad-equation"
        # grade 0 of 1 - y reads grade 0 of y, and the guess 0 gives 1
        assert (err.agreement, err.passes) == (0, 1)
        assert str(err) == (
            "fixed-point equation 'bad-equation' is not a contraction: grade 0 "
            "of its solution depends on itself and does not reproduce the "
            "initial guess (stalled at agreement degree 0; grades attempted: 1)"
        )


class TestRampedSolver:
    """Online solves against full-order Picard iteration."""

    @pytest.mark.parametrize("equation_id", sorted(EQUATIONS))
    def test_matches_full_order_picard(self, equation_id):
        for order in [*range(13), 20]:
            got = fixed_point_solve(equation_id, order)
            want = full_order_picard(equation_id, order)
            got, want = (got, want) if isinstance(got, tuple) else ((got,), (want,))
            assert len(got) == len(want) == len(EQUATIONS[equation_id].names)
            for g, w in zip(got, want):
                assert g.order == w.order == order and g.grading == w.grading
                assert g == w, (equation_id, order)

    def test_unknown_reading_an_earlier_one_at_the_solved_grade(self):
        # a = 1 + x a b, b = a: grade d of b reads grade d of a, stored just
        # before.  Under plain Picard iteration b lags a by one pass.
        def step(a, b):
            return a * b * x(a.order) + 1, a

        EQUATIONS["a-then-b"] = _Equation(
            ("a", "b"),
            lambda order: (MSeries.const(1, order), MSeries.const(1, order)),
            step,
        )
        EQUATIONS["b-then-a"] = _Equation(
            ("b", "a"),
            lambda order: (MSeries.const(1, order), MSeries.const(1, order)),
            lambda b, a: (a, a * b * x(a.order) + 1),
        )
        try:
            for order in range(9):
                got = fixed_point_solve("a-then-b", order)
                assert got == full_order_picard("a-then-b", order), order
                assert got == (named_series("catalan", order),) * 2
            # listed the other way round, b reads a's guess, which a then
            # does not reproduce: rejected, never silently wrong
            with pytest.raises(NonContractionError) as info:
                fixed_point_solve("b-then-a", 4)
            assert info.value.agreement == 1
        finally:
            del EQUATIONS["a-then-b"], EQUATIONS["b-then-a"]

    def test_x_first_stat132_step_matches_picard(self):
        EQUATIONS["stat132-x-first"] = _Equation(
            ("h", "g"), EQUATIONS["stat132-system"].initial, _stat132_x_first_step
        )
        try:
            for order in range(9):
                got = fixed_point_solve("stat132-x-first", order)
                assert got == full_order_picard("stat132-x-first", order), order
        finally:
            del EQUATIONS["stat132-x-first"]

    def test_read_above_the_solved_grade_rejected(self):
        def ahead(y):
            return _node(lambda slices, d: y.slice(d + 1), y.order, y.grading, y)

        def ones(order):
            return MSeries.const(1, order), MSeries.const(1, order)

        EQUATIONS["read-ahead"] = _Equation(("y",), lambda order: ones(order)[:1],
                                            lambda y: (ahead(y),))
        # b reads grade d + 1 of a, whose grade d is already stored
        EQUATIONS["read-ahead-stored"] = _Equation(("a", "b"), ones,
                                                   lambda a, b: (a * x(a.order) + 1, ahead(a)))
        try:
            for equation_id in ("read-ahead", "read-ahead-stored"):
                with pytest.raises(SeriesError, match="grade 1 of an unknown was read "
                                   "while grade 0 is solved"):
                    fixed_point_solve(equation_id, 3)
        finally:
            del EQUATIONS["read-ahead"], EQUATIONS["read-ahead-stored"]

    def test_oscillation_above_a_contracting_part(self):
        EQUATIONS["oscillating"] = _Equation(
            ("oscillating",), lambda order: (_oscillating_guess(order),), _oscillating_step
        )
        try:
            for solve in (fixed_point_solve, full_order_picard):
                with pytest.raises(NonContractionError) as info:
                    solve("oscillating", 6)
                # grades 0-2 settle; grade 3 has no stable iterate
                assert info.value.agreement == 3
        finally:
            del EQUATIONS["oscillating"]
        assert "stalled at agreement degree 3" in str(info.value)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_two_bindings_one_of_them_solved_match_picard(self, data):
        # y = 1 + x s(x, t, u), the unknown bound to one variable (x as x y) and
        # a complete series to another: the substitution sums powers of y
        order = data.draw(st.integers(0, 5))
        s = MSeries(random_series(data, X_GRADED).coeffs, order)
        solved, other = data.draw(st.permutations(["x", "t", "u"]))[:2]
        fixed = MSeries(random_series(data, X_GRADED, min_grade=int(other == "x")).coeffs,
                        order)

        def bindings(y, product):
            return {solved: product(x(order), y) if solved == "x" else y, other: fixed}

        EQUATIONS["two-bindings"] = _Equation(
            ("y",), lambda n: (MSeries.const(1, n),),
            lambda y: (x(order) * s.substitute(bindings(y, MSeries.__mul__)) + 1,),
        )
        want = one = MSeries.const(1, order)
        for _ in range(order + 1):
            want = term_sum(one, term_product(
                x(order), naive_substitute(s, bindings(want, term_product))))
        try:
            assert fixed_point_solve("two-bindings", order) == want
        finally:
            del EQUATIONS["two-bindings"]

    def test_two_bindings_to_the_unknown_read_no_grade_unused(self):
        # y = 1 + x t u at t -> y, u -> y is Catalan's equation; grade d of the
        # substitution never reads grade d of y, whose guess 0 is wrong there
        s = MSeries({(1, 1, 1): 1}, 8)
        EQUATIONS["catalan-substituted"] = _Equation(
            ("y",), lambda order: (MSeries({}, order),),
            lambda y: (s.substitute({"t": y, "u": y}) + 1,),
        )
        try:
            assert fixed_point_solve("catalan-substituted", 8) == named_series("catalan", 8)
        finally:
            del EQUATIONS["catalan-substituted"]

    def test_substituted_unknown_read_at_its_own_grade(self):
        # 3 + 2u + 2u^2 + ut - 2t at t -> y, u -> x is the oscillating step, so
        # grade d of the substitution reads grade d of y through -2t
        s = MSeries({(0, 0, 0): 3, (0, 0, 1): 2, (0, 0, 2): 2, (0, 1, 1): 1,
                     (0, 1, 0): -2}, 6)
        EQUATIONS["oscillating-substituted"] = _Equation(
            ("y",), lambda order: (_oscillating_guess(order),),
            lambda y: (s.substitute({"t": y, "u": x(y.order)}),),
        )
        try:
            for solve in (fixed_point_solve, full_order_picard):
                with pytest.raises(NonContractionError) as info:
                    solve("oscillating-substituted", 6)
                assert info.value.agreement == 3
        finally:
            del EQUATIONS["oscillating-substituted"]

    def test_relaxed_binding_must_have_zero_constant_term(self):
        # y is 1 at grade 0, so it cannot be substituted for x
        EQUATIONS["bad-binding"] = _Equation(
            ("bad-binding",),
            lambda order: (MSeries.const(1, order),),
            lambda y: (named_series("catalan", y.order).substitute({"x": y}),),
        )
        try:
            with pytest.raises(SeriesError, match="binding for 'x' must have zero constant term"):
                fixed_point_solve("bad-binding", 4)
        finally:
            del EQUATIONS["bad-binding"]
        # a lazy binding is checked when grade 0 is computed
        composed = named_series("catalan", 4).substitute({"x": lazy(1 + x(4))})
        with pytest.raises(SeriesError, match="zero constant term"):
            composed.slice(0)

    def test_complete_binding_checked_at_substitute(self):
        with pytest.raises(SeriesError, match="binding for 'x' must have zero constant term"):
            named_series("catalan", 4).substitute({"x": 1 + x(4)})

    def test_complete_series_on_the_left_of_an_unknown(self):
        # no operand order to keep: x * (y * y) + 1 is Catalan's equation
        EQUATIONS["catalan-x-first"] = _Equation(
            ("catalan",), EQUATIONS["catalan-fixed"].initial,
            lambda y: (x(y.order) * (y * y) + 1,),
        )
        try:
            for order in range(13):
                got = fixed_point_solve("catalan-x-first", order)
                assert got == full_order_picard("catalan-x-first", order), order
                assert got == named_series("catalan", order)
                assert got._fill is None and got._done == order + 1
        finally:
            del EQUATIONS["catalan-x-first"]

    @pytest.mark.parametrize("operation, call", [
        ("substitute", lambda y: y.substitute({"t": 1})),
        ("divide_one_minus", lambda y: y.divide_one_minus("t")),
    ])
    def test_operations_on_every_term_refuse_a_series_being_solved(self, operation, call):
        EQUATIONS["needs-every-term"] = _Equation(
            ("y",), EQUATIONS["catalan-fixed"].initial, lambda y: (call(y) * x(y.order) + 1,)
        )
        try:
            with pytest.raises(SeriesError, match=f"{operation} needs every term"):
                fixed_point_solve("needs-every-term", 4)
        finally:
            del EQUATIONS["needs-every-term"]
        # the same on any series still computing its grades
        with pytest.raises(SeriesError, match=f"{operation} needs every term"):
            call(lazy(MSeries.const(1, 4)))


class TestNamedSeries:
    def test_large_schroder(self):
        s = named_series("large-schroder", 10)
        assert [int(c) for c in s.x_coefficients()] == SCHRODER

    def test_little_schroder(self):
        s = named_series("little-schroder", 10)
        assert [int(c) for c in s.x_coefficients()] == LITTLE

    def test_cubic_root_construction_agrees(self):
        # the name serves the large Schroder series: its radicand (3 - x)^2 - 8
        # is 1 - 6x + x^2
        rad = ((3 - x(14)) * (3 - x(14)) - 8).sqrt1()
        cubic_root = (3 - x(14) - rad) * Fraction(1, 2)
        assert named_series("schroder-cubic-root", 14) == cubic_root == named_series(
            "large-schroder", 14
        )

    def test_kernel_root_is_little_schroder(self):
        assert named_series("kernel-root", 10) == named_series("little-schroder", 10)

    def test_simples_series_lowest_term(self):
        s = named_series("simples-gf-closed", 8)
        assert min(s.terms(), key=lambda kv: (kv[0][0] + kv[0][2], kv[0]))[0] == (2, 0, 2)

    def test_enum_backed_depth_guard(self):
        with pytest.raises(SeriesError, match="depth limit"):
            named_series("lead-enum-254613", ENUM_DEPTH_LIMIT + 1)

    def test_unknown_name(self):
        with pytest.raises(SeriesError, match="unknown series"):
            named_series("no-such", 5)

    def test_registry_names_all_buildable_at_small_orders(self):
        for order in (0, 5):
            for name in series_names():
                assert named_series(name, order).order == order

    def test_pretty_output_is_sorted_by_grade(self, capsys):
        from permlab.cli import main

        assert main(["series", "--name", "stat132-ending-max", "--order", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1 * x^2 t^1 u^1"


class TestBuiltOnce:
    """The order-only builders build once per process and serve lower orders.

    Each result is compared with the undecorated builder (``__wrapped__``)
    run fresh at that order, both through the module's builder, whose
    memo the rest of the suite shares, and through a new memo on the
    same builder, which starts empty.
    """

    @staticmethod
    def assert_complete(result):
        for s in result if isinstance(result, tuple) else (result,):
            assert s._fill is None and s._done == s.order + 1
            s.slice(s.order)  # every grade is there: computes nothing

    @pytest.mark.parametrize("builder", BUILT_ONCE)
    def test_served_orders_equal_a_fresh_build(self, builder):
        served = getattr(series_mod, builder)
        undecorated = served.__wrapped__
        fresh = {n: undecorated(n) for n in set(ORDER_SEQUENCE)}
        built = []

        def counted(order):
            built.append(order)
            return undecorated(order)

        own = _built_once(counted)
        for n in ORDER_SEQUENCE:
            for got in (served(n), own(n)):
                assert got == fresh[n], (builder, n)
                self.assert_complete(got)
        # a lower order is cut from the highest one built so far
        assert built == [*range(13), 20]
        assert served(5) is not served(5)

    @pytest.mark.parametrize("builder", CORRUPTIBLE)
    def test_corrupt_calls_are_never_kept(self, builder):
        served = getattr(series_mod, builder)
        undecorated = served.__wrapped__
        built = []

        def counted(order, **kwargs):
            built.append((order, kwargs.get("corrupt", False)))
            return undecorated(order, **kwargs)

        own = _built_once(counted)
        plain = {n: undecorated(n) for n in (5, 8)}
        corrupt = {n: undecorated(n, corrupt=True) for n in (5, 8)}
        assert plain[8] != corrupt[8]
        for build in (own, served):
            assert build(8, corrupt=True) == corrupt[8]
            assert build(8) == plain[8]
            assert build(8, corrupt=True) == corrupt[8]
            assert build(5, corrupt=True) == corrupt[5]
            assert build(5) == plain[5]
        assert built == [(8, True), (8, False), (8, True), (5, True)]

    def test_each_equation_is_solved_once_per_process(self):
        # a fresh interpreter: this one has built the series at other orders
        script = """
import dataclasses, json
from collections import Counter
from permlab.series import EQUATIONS, check_identity, identity_ids, IDENTITIES
steps = Counter()
def counted(eq_id, step):
    def run(*args, **kwargs):
        steps[eq_id] += 1
        return step(*args, **kwargs)
    return run
for eq_id, eq in list(EQUATIONS.items()):
    EQUATIONS[eq_id] = dataclasses.replace(eq, step=counted(eq_id, eq.step))
passed = [check_identity(i, 10) is None for i in identity_ids() if not IDENTITIES[i].enum_backed]
print(json.dumps({"passed": passed, "steps": steps}))
"""
        done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120, check=True)
        got = json.loads(done.stdout)
        assert got["passed"] == [True] * 11
        assert got["steps"] == {eq_id: 1 for eq_id in EQUATIONS}

    def test_simples_from_stats_reads_the_table_at_its_own_order(self, monkeypatch):
        asked = []
        table = series_mod.stat132_ending_max

        def recorded(order, **kwargs):
            asked.append(order)
            return table(order, **kwargs)

        monkeypatch.setattr(series_mod, "stat132_ending_max", recorded)
        for order in (0, 1, 9):
            series_mod.simples_gf_from_stats.__wrapped__(order)
        assert asked == [0, 1, 9]

    def test_negative_exponent_in_the_table_is_an_error(self, monkeypatch):
        # raised, not asserted, so python -O keeps the check
        monkeypatch.setattr(
            series_mod, "stat132_ending_max",
            lambda order, **kwargs: MSeries.monomial(1, order, x=2, t=2),
        )
        with pytest.raises(SeriesError, match=r"\(2, 2, 0\)"):
            series_mod.simples_gf_from_stats.__wrapped__(6)


class TestIdentities:
    def test_all_identities_pass_at_low_order(self):
        # full default-order runs live in the acceptance suite
        for iid in identity_ids():
            order = 6 if IDENTITIES[iid].enum_backed else 8
            mismatch = check_identity(iid, order)
            assert mismatch is None, (iid, mismatch)

    def test_unknown_identity(self):
        with pytest.raises(SeriesError, match="unknown identity"):
            check_identity("no-such", 8)

    def test_failure_reports_first_mismatch(self):
        mismatch = check_identity("schroder-cubic", 8, corrupt=True)
        assert mismatch is not None
        key, lhs, rhs = mismatch
        assert key == (0, 0, 0)
        assert lhs - rhs == -1  # constant 2 corrupted to 1

    @pytest.mark.parametrize("identity_id, builder", [
        ("lead-4132-closed", "lead_4132_closed"),
        ("lead-4132-first-not-one-closed", "lead_4132_first_not_one_closed"),
        ("stat132-ending-max-enum", "stat132_ending_max"),
        ("simples-gf-two-ways", "simples_gf_closed"),
        ("sum-decomposable-split", "_sum_part"),
        ("skew-decomposable-split", "_skew_part"),
    ])
    def test_identity_checks_the_served_builder(self, monkeypatch, identity_id, builder):
        # the identity verifies the formula that is served, not a copy of it
        import permlab.series as series_mod

        original = getattr(series_mod, builder)

        def one_term_off(*args, **kwargs):
            s = original(*args, **kwargs)
            return s + MSeries.var("x", s.order, s.grading)

        assert check_identity(identity_id, 6) is None
        monkeypatch.setattr(series_mod, builder, one_term_off)
        assert check_identity(identity_id, 6) is not None
