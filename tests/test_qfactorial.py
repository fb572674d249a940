"""Finite and infinite q-shifted factorials.

Oracles here are deliberately naive: signed subset-sum DP for products of
(1 - q^k), and a plain partition-counting DP for their reciprocals.
"""

import ast
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_assembly import ARGS, BASES, binomials

from qident import qfactorial, summation
from qident.catalog import get_identity
from qident.ctengine import expand_zfactors
from qident.qfactorial import (
    INF,
    FactorSpec,
    NotTruncatable,
    ProductSpec,
    ZeroDivisor,
    checked_lead,
    expand_product_spec,
    poch_finite,
    poch_infinite,
    poch_recip_finite,
    reflect,
)
from qident.qring import EXACT, Monomial, NotInvertible, QSeriesError, Series
from qident.summation import _dip

A = Monomial(1, 0, (("a", 1),))
X = Monomial(1, 0, (("x", 1),))
XQ = Monomial(1, 1, (("x", 1),))
Q = Monomial(1, 1, ())


def oracle_euler_product(parts, upto):
    """Coefficients of prod_{p in parts} (1 - q^p) up to q^upto."""
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for p in parts:
        if p > upto:
            continue
        for v in range(upto, p - 1, -1):
            coeffs[v] -= coeffs[v - p]
    return coeffs


def oracle_partitions(parts, upto):
    """Partition counts with parts drawn (with repetition) from `parts`."""
    counts = [0] * (upto + 1)
    counts[0] = 1
    for p in sorted(parts):
        for v in range(p, upto + 1):
            counts[v] += counts[v - p]
    return counts


# ---------------------------------------------------------------- finite


def test_finite_small_example():
    s = poch_finite(Q, 1, 3)
    assert s == Series.from_qcoeffs([1, -1, -1, 0, 1, 1, -1])
    assert s.exact


def test_finite_empty_product_is_one():
    assert poch_finite(A, 1, 0) == Series.one()


def test_finite_vanishing_argument():
    # (1;q)_n picks up the factor 1 - 1 immediately
    one = Monomial(1, 0, ())
    assert poch_finite(one, 1, 4).is_zero()


def test_finite_negative_subscript_zero_divisor():
    with pytest.raises(ZeroDivisor):
        poch_finite(Q, 1, -1, order=10)


def test_finite_negative_subscript_is_laurent():
    # (a;q)_{-1} = 1/(1 - a/q) = -(q/a) - (q/a)^2 - ..., expanded upward
    s = poch_finite(A, 1, -1, order=6)
    assert s.coeff(0, ()) == 0
    assert s.coeff(1, (("a", -1),)) == -1
    assert s.coeff(2, (("a", -2),)) == -1
    assert s.coeff(2, (("a", -1),)) == 0


def test_finite_negative_subscript_unrepresentable():
    # (xq;q)_{-1} = 1/(1-x) has no Laurent-polynomial q-levels
    with pytest.raises(NotInvertible):
        poch_finite(XQ, 1, -1, order=6)


def test_recip_positive_subscript():
    s = poch_recip_finite(Q, 1, 1, order=3)
    assert s == Series.from_qcoeffs([1, 1, 1, 1])


def test_recip_negative_subscript_collapses_to_zero():
    assert poch_recip_finite(Q, 1, -2, order=8).is_zero()
    assert poch_recip_finite(Q, 1, -1, order=8).is_zero()


def test_recip_negative_subscript_exact_polynomial():
    assert poch_recip_finite(XQ, 1, -1) == Series.poly(
        {(0, ()): 1, (0, (("x", 1),)): -1})


def test_recip_of_vanishing_factorial_is_infinite():
    one = Monomial(1, 0, ())
    with pytest.raises(ZeroDivisor):
        poch_recip_finite(one, 1, 2, order=4)


def test_recurrence_all_subscripts():
    # (a;q)_{n+1} = (a;q)_n * (1 - a q^n), across the bilateral range
    binom_at = lambda n: Series.poly(
        {(0, ()): 1, (n, (("a", 1),)): -1})
    for n in range(-10, 11):
        lhs = poch_finite(A, 1, n + 1, order=24)
        rhs = poch_finite(A, 1, n, order=24) * binom_at(n)
        assert lhs.truncate(8) == rhs.truncate(8), f"n={n}"


def test_recip_is_reciprocal():
    # whenever neither side flags, the two must multiply back to 1
    checked = 0
    for arg in (Q, XQ, A):
        for n in range(-6, 7):
            try:
                # order must clear the inverse's q-valuation (21 at n = -6)
                p = poch_finite(arg, 1, n, order=48)
                r = poch_recip_finite(arg, 1, n, order=48)
            except (NotInvertible, ZeroDivisor):
                continue
            assert (p * r).truncate(6) == Series.one(6), f"{arg.text()} n={n}"
            checked += 1
    assert checked >= 20


def test_negative_subscript_matches_shifted_inverse():
    # (a;q)_{-n} against an inversion assembled by hand from binomials
    for n in range(1, 7):
        expected = Series.one()
        for k in range(1, n + 1):
            expected = expected * Series.poly(
                {(0, ()): 1, (-k, (("a", 1),)): -1})
        expected = expected.invert(10)
        got = poch_finite(A, 1, -n, order=10)
        assert got.truncate(6) == expected.truncate(6), f"n={n}"


def test_reflected_lead_of_a_negative_subscript_is_the_dip():
    """1/(x q^a; q^b)_(-m) reflects its binomials of negative q-weight
    into a monomial at q^_dip(a, b, m), the valuation the support
    certificate bounds, and leaves at most two runs of weight >= 0."""
    for a in range(-4, 7):
        for b in (1, 2, 3):
            for m in range(8):
                arg = Monomial(1, a, (("x", 1),))
                lead, runs = reflect(arg, b, -m, -1)
                assert lead.qexp == _dip(a, b, m), (a, b, m)
                assert len(runs) <= 2
                assert all(first.qexp >= 0 for first, *_ in runs)


def test_reflection_needs_a_unit_coefficient():
    # 1 - 2q^-1 = -2q^-1 (1 - q/2): the reflected binomial is not integral
    with pytest.raises(NotInvertible):
        reflect(Monomial(2, -1, ()), 1, 1)
    assert reflect(Monomial(2, 1, ()), 1, 3) == (
        Monomial.unit(), ((Monomial(2, 1, ()), 1, 3, 1),))


def test_finite_factors_skip_binomials_above_the_order():
    # (q;q)_n for any n >= 5 agrees with (q;q)_inf to order 5
    for n in (5, 300, 100000):
        assert poch_finite(Q, 1, n, order=5).qcoeffs(5) == [1, -1, -1, 0, 0, 1]
        assert poch_recip_finite(Q, 1, n, order=5).qcoeffs(5) == [
            1, 1, 2, 3, 5, 7]


def test_top_variable_coefficient():
    # the a^n slice of (a;q)_n is (-1)^n q^{n(n-1)/2}
    for n in range(13):
        s = poch_finite(A, 1, n)
        assert s.coeff(n * (n - 1) // 2, (("a", n),)) == (-1) ** n
        for qe, vars in s.terms:
            if vars == (("a", n),):
                assert qe == n * (n - 1) // 2


# -------------------------------------------------------------- infinite


def test_infinite_euler_product():
    s = poch_infinite(Q, 1, 5)
    assert s.qcoeffs(5) == [1, -1, -1, 0, 0, 1]
    assert s.qcoeffs(5) == oracle_euler_product(range(1, 6), 5)


def test_infinite_odd_parts():
    s = poch_infinite(Monomial(-1, 1, ()), 2, 4)
    assert s.qcoeffs(4) == [1, 1, 0, 1, 1]


def test_infinite_matches_oracle_deeper():
    s = poch_infinite(Q, 1, 40)
    assert s.qcoeffs(40) == oracle_euler_product(range(1, 41), 40)


def test_infinite_needs_positive_weight():
    with pytest.raises(NotTruncatable):
        poch_infinite(X, 1, order=10)


@pytest.mark.parametrize("expo", [1, -1, 2])
def test_a_product_side_refuses_an_infinite_factor_of_weight_zero(expo):
    """(x; q)_inf has Euler's series, but a product side refuses it as
    it refused the run of binomials, word for word."""
    with pytest.raises(NotTruncatable, match=r"^\(1\*q\^0\*x\^1; q\^2\)_inf: "
                       "argument carries no positive q-weight, the product "
                       "never stabilizes below the order$"):
        expand_product_spec(ProductSpec((FactorSpec(X, 2, INF, expo),)), 10)


def test_infinite_reciprocal_counts_partitions():
    s = poch_infinite(Q, 1, 30).invert(30)
    assert s.qcoeffs(30) == oracle_partitions(range(1, 31), 30)


# ---------------------------------------------------------- product specs


def test_empty_spec_is_one():
    assert expand_product_spec(ProductSpec(), 6) == Series.one(6)


def test_spec_mod_five_partitions():
    # 1/((q;q^5)_inf (q^4;q^5)_inf): partitions into parts = 1,4 mod 5
    spec = ProductSpec((
        FactorSpec(Monomial(1, 1, ()), 5, INF, -1),
        FactorSpec(Monomial(1, 4, ()), 5, INF, -1),
    ))
    parts = [p for p in range(1, 31) if p % 5 in (1, 4)]
    got = expand_product_spec(spec, 30)
    assert got.qcoeffs(30) == oracle_partitions(parts, 30)
    assert got.qcoeffs(6) == [1, 1, 1, 1, 2, 2, 3]


def test_spec_double_sum_product_side():
    # (-q;q^2)_inf^2 (q^2;q^2)_inf / (q;q)_inf, frozen low-order window
    spec = ProductSpec((
        FactorSpec(Monomial(-1, 1, ()), 2, INF, 2),
        FactorSpec(Monomial(1, 2, ()), 2, INF, 1),
        FactorSpec(Monomial(1, 1, ()), 1, INF, -1),
    ))
    got = expand_product_spec(spec, 8)
    assert got.qcoeffs(8) == [1, 3, 4, 7, 13, 19, 29, 43, 62]


def test_spec_squared_exponent():
    # explicit expo instead of listing a factor twice
    twice = ProductSpec((FactorSpec(Q, 1, 2, 2),))
    listed = ProductSpec((FactorSpec(Q, 1, 2, 1), FactorSpec(Q, 1, 2, 1)))
    assert expand_product_spec(twice, 10) == expand_product_spec(listed, 10)


def test_spec_prefactor():
    spec = ProductSpec((FactorSpec(Q, 1, INF, -1),),
                       prefactor=Monomial(1, 2, (("x", 1),)))
    got = expand_product_spec(spec, 8)
    assert got.coeff(2, (("x", 1),)) == 1
    assert got.coeff(3, (("x", 1),)) == 1
    assert got.coeff(3, ()) == 0


def test_spec_rejects_negative_valuation():
    from qident.qring import QSeriesError

    spec = ProductSpec((), prefactor=Monomial(1, -1, ()))
    with pytest.raises(QSeriesError):
        expand_product_spec(spec, 5)


def test_a_side_below_q0_is_refused_without_a_product(monkeypatch):
    """q^-v (q; q^2)_inf / (q^2; q^3)_inf is refused before any series is
    multiplied, as the product factor by factor would fail: with
    TruncationUnsound when it keeps no order, order - v < 0."""
    calls = []
    real = Series.__mul__
    monkeypatch.setattr(Series, "__mul__",
                        lambda a, b: calls.append(1) or real(a, b))
    infinite = (FactorSpec(Q, 2, INF, 1),
                FactorSpec(Monomial.q(2), 3, INF, -1))
    for v, order, error in ((1, 6000, "negative q-valuation -1"),
                            (3, 2, r"no sound coefficients \(cap -1\)")):
        with pytest.raises(QSeriesError, match=error):
            expand_product_spec(ProductSpec(infinite, Monomial.q(-v)), order)
    assert calls == []
    with pytest.raises(QSeriesError, match="negative q-valuation -3"):
        expand_product_spec(ProductSpec((), Monomial.q(-3)), 2)


# ------------------------------------------------------------------ runs
#
# A finite factor is stepped one binomial at a time, on a term dict, a
# coefficient row or a dict keyed by one int (`qfactorial._Stepper`).
# Every product, however it was stepped, must be its binomials
# multiplied out one at a time.


def naive_product(f, g, top):
    """f * g cut at q^top, coefficient lists from q^0."""
    out = [0] * (top + 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g[:top + 1 - i]):
            out[i + j] += a * b
    return out


def binomial_prefixes(coeff, weight, basepow, expo, top):
    """Coefficient lists, to q^top, of prod_{k<count} (1 - coeff
    q^(weight + basepow k))^expo for count = 0, 1, ...; a reciprocal of
    weight 0, 1/(1 - coeff), has no integral inverse and ends the list."""
    row = [1] + [0] * top
    yield row
    for k in range(top + 2):
        s = weight + basepow * k
        factor = [0] * (top + 1)
        if expo > 0:
            factor[0] = 1
            if s <= top:
                factor[s] -= coeff
        elif s == 0:
            return
        else:
            for j in range(0, top + 1, s):
                factor[j] = coeff ** (j // s)
        row = naive_product(row, factor, top)
        yield row


@pytest.mark.parametrize("expo", [1, -1])
@pytest.mark.parametrize("basepow", [1, 2, 3])
@pytest.mark.parametrize("weight", [0, 1, 2, 3])
@pytest.mark.parametrize("coeff", [1, -1])
def test_every_prefix_of_a_run_is_its_binomial_product(coeff, weight,
                                                       basepow, expo):
    """Orders 0 to 40, every count from 0 to 42.  A reciprocal of weight
    0 ends the list: 1/(1; q^b)_n divides by 1 - 1, and 1/(-1; q^b)_n by
    1 - (-1) = 2, which has no integral inverse."""
    arg = Monomial(coeff, weight, ())
    poch = poch_finite if expo > 0 else poch_recip_finite
    want = list(binomial_prefixes(coeff, weight, basepow, expo, 40))
    for order in range(41):
        for count in range(43):
            if count >= len(want):
                with pytest.raises(ZeroDivisor if coeff == 1
                                   else NotInvertible):
                    poch(arg, basepow, count, order)
                continue
            got = poch(arg, basepow, count, order)
            assert (got.order, got.floor) == (order, 0)
            assert all(got.terms.values())
            assert got.qcoeffs(order) == want[count][:order + 1]


def test_a_reciprocal_run_makes_no_inverse(monkeypatch):
    """1/(q;q)_n at order 120 is stepped on its row: no Series.invert and
    no product of Series, for any n."""
    calls = []
    for name in ("invert", "__mul__"):
        real = getattr(Series, name)
        monkeypatch.setattr(Series, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    for n in range(122):
        poch_recip_finite(Q, 1, n, 120)
    assert calls == []
    assert poch_recip_finite(Q, 1, 121, 120).qcoeffs(120) == (
        oracle_partitions(range(1, 121), 120))


def test_a_numerator_row_reaches_only_the_degree(monkeypatch):
    """(q;q)_5 at order 10^9 is a polynomial of degree 15: it is stepped
    on its 16 terms, never on a row to the order."""
    rows = []
    real = qfactorial._Stepper.row
    monkeypatch.setattr(qfactorial._Stepper, "row",
                        lambda self, acc: rows.append(1) or real(self, acc))
    got = poch_finite(Q, 1, 5, 10 ** 9)
    assert got.qcoeffs(15) == oracle_euler_product(range(1, 6), 15)
    assert max(e for e, _ in got.terms) == 15
    assert rows == []


EXACT_ARGS = [make(w) for w in range(-3, 4) for make in (
    lambda w: Monomial(1, w), lambda w: Monomial(-1, w),
    lambda w: Monomial(2, w), lambda w: Monomial(-2, w),
    lambda w: Monomial.var("x", 1, w), lambda w: Monomial.var("y", -1, w))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(EXACT_ARGS), st.integers(1, 3), st.integers(-6, 6))
@example(Monomial(2, -1), 1, 1)  # 1 - 2q^-1, whose reflection needs 1/2
@example(Monomial(2, 1), 1, -2)  # (2q^-1; q)_2 = (1 - 2q^-1)(1 - 2)
def test_an_exact_polynomial_is_its_binomials_multiplied_out(arg, basepow,
                                                             n):
    """(arg; q^b)_n for n >= 0 and 1/(arg; q^b)_n for n < 0, with no
    order, marked exact, against the binomials multiplied out as exact
    Series.  No binomial is reflected, so a binomial 1 - A of negative
    q-weight whose coefficient is +-2 needs no 1/A."""
    poch = poch_finite if n >= 0 else poch_recip_finite
    got = poch(arg, basepow, n)
    assert got.order == EXACT
    assert got == binomials(arg, basepow, n)


def test_summation_steps_with_the_stepper_and_no_row_internals():
    """`summation` steps with `qfactorial._Stepper` and reaches for none
    of its row internals."""
    tree = ast.parse(Path(summation.__file__).read_text())
    named = [alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert "_Stepper" in named
    assert not {"_sweep", "_recur", "_ROW_PER_TERM"} & set(named)


# ------------------------------------------- binomials with no inverse
#
# One predicate, `no_inverse`, says whether a binomial 1 - A of q-weight
# 0 has an inverse, for `checked_lead` and for `_Stepper.stuck`, and
# neither inverts a series to learn it.

WEIGHT_ZERO = [Monomial(c, 0) for c in (1, -1, 2, 3)] + [
    Monomial(c, 0, ((name, 1),)) for name in "xy" for c in (1, -1)]


def refuse_inverses(monkeypatch):
    def refuse(*args):
        raise AssertionError("Series.invert was called")
    monkeypatch.setattr(Series, "invert", refuse)


@pytest.mark.parametrize("a", WEIGHT_ZERO, ids=[a.text() for a in WEIGHT_ZERO])
def test_checked_lead_refuses_as_the_inverse_does(monkeypatch, a):
    """checked_lead on the reflected 1/(1 - A) raises the type and text
    of Series.invert(1 - A), or returns the lead where 1 - A has an
    inverse, with no Series.invert."""
    want = None
    try:
        (Series.one() - Series.from_monomial(a)).invert(8)
    except NotInvertible as exc:
        want = str(exc)
    refuse_inverses(monkeypatch)
    reflected = [(Monomial.unit(), ((a, 1, 1, -1),))]
    if want is None:
        assert checked_lead(Q, reflected) == Q
        return
    with pytest.raises(NotInvertible) as refused:
        checked_lead(Q, reflected)
    assert str(refused.value) == want


@pytest.mark.parametrize("poch,arg,n,text", [
    (poch_recip_finite, Monomial(-1, 0), 2,
     "leading coefficient 2 is not a unit"),
    (poch_finite, Monomial(3, 1), -1, "leading coefficient -2 is not a unit"),
    (poch_recip_finite, X, 3, "lowest q-level (q^0) holds 2 monomials; "
     "need a single unit monomial"),
    (poch_recip_finite, Monomial(-1, -2, (("y", -1),)), 4,
     "lowest q-level (q^0) holds 2 monomials; need a single unit monomial"),
])
def test_a_factor_with_no_inverse_is_refused_without_inverting(
        monkeypatch, poch, arg, n, text):
    """1/(arg; q)_n for n >= 0, or (arg; q)_n for n < 0, divides by a
    binomial of q-weight 0 with no inverse: at its first binomial, at
    its last or between."""
    refuse_inverses(monkeypatch)
    with pytest.raises(NotInvertible) as refused:
        poch(arg, 1, n, 8)
    assert str(refused.value) == text


def test_stuck_and_checked_lead_read_one_predicate(monkeypatch):
    seen = []
    real = qfactorial.no_inverse
    monkeypatch.setattr(qfactorial, "no_inverse",
                        lambda a: seen.append(a) or real(a))
    a = Monomial(-1, 0)
    assert qfactorial._Stepper([(a, 1, -1)], [Q], 8).stuck == [0]
    assert seen == [a]
    with pytest.raises(NotInvertible):
        checked_lead(Q, [reflect(a, 1, 1, -1)])
    assert seen == [a, a]


# ------------------------------------------------------- infinite factors
#
# An infinite factor is expanded with no inverted series.  The reference
# is the route that once did invert: the binomials multiplied out one at
# a time as Series, the product raised to |expo|, and inverted by
# `Series.invert` for expo < 0.


def binomials_multiplied(arg, basepow, expo, order):
    """(arg; q^basepow)_inf ^ expo to `order`, by Series products and,
    for expo < 0, `Series.invert`."""
    once = Series.one(order)
    k = 0
    while arg.qexp + basepow * k <= order:
        a = arg * Monomial.q(basepow * k)
        once = once * Series({(0, ()): 1, a.key(): -a.coeff}, order)
        k += 1
    acc = Series.one(order)
    for _ in range(abs(expo)):
        acc = acc * once
    return acc if expo > 0 else acc.invert(order)


INFINITE_ARGS = [make(a) for a in (1, 2, 3) for make in (
    lambda a: Monomial(1, a), lambda a: Monomial(-1, a),
    lambda a: Monomial(2, a), lambda a: Monomial(-2, a),
    lambda a: Monomial.var("x", 1, a), lambda a: Monomial.var("y", -1, a),
    lambda a: Monomial.var("z", 2, a))]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INFINITE_ARGS), st.integers(1, 3),
       st.sampled_from([1, -1, 2, -2]), st.integers(0, 40))
def test_an_infinite_factor_is_its_binomials_multiplied_out(arg, basepow,
                                                            expo, order):
    """Pure-q factors as rows and factors with formal variables as
    Euler's series, against the product and inverse of Series."""
    got = expand_product_spec(
        ProductSpec((FactorSpec(arg, basepow, INF, expo),)), order)
    assert (got.order, got.floor) == (order, 0)
    assert got == binomials_multiplied(arg, basepow, expo, order)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([Monomial.unit(), Monomial(-1), Monomial(2),
                        Monomial.var("x"), Monomial.var("y", -1)]),
       st.sampled_from([-2, -1, 1, 2]), st.integers(1, 3),
       st.sampled_from([1, -1]), st.integers(0, 3), st.integers(0, 30))
def test_a_closed_zfactor_is_its_binomials_multiplied_out(mon, zexp, basepow,
                                                          expo, qexp, order):
    """(mon z^e q^a; q^b)_inf^(+-1) through `expand_zfactors`; a
    reciprocal needs a >= 1 to be closed."""
    qexp = max(qexp, 1) if expo < 0 else qexp
    arg = mon * Monomial.q(qexp) * Monomial.var("z", zexp)
    got = expand_zfactors(ProductSpec((FactorSpec(arg, basepow, INF, expo),)),
                          order)
    assert got == binomials_multiplied(arg, basepow, expo, order)


def partition_numbers(top):
    """p(0) .. p(top) by Euler's pentagonal recurrence, p(n) = sum over
    k >= 1 of (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2))."""
    p = [1] + [0] * top
    for n in range(1, top + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    p[n] += sign * p[n - g]
            k += 1
    return p


def test_long_order_infinite_factors_make_no_product_or_inverse(monkeypatch):
    """1/(q;q)_inf and (q;q)_inf at order 3000, the pentagonal series
    divided out of 1 and the series itself: no Series.invert and no
    product of Series."""
    calls = []
    for name in ("invert", "__mul__"):
        real = getattr(Series, name)
        monkeypatch.setattr(Series, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    recip, euler = (expand_product_spec(
        ProductSpec((FactorSpec(Q, 1, INF, expo),)), 3000) for expo in (-1, 1))
    assert calls == []
    assert recip.qcoeffs(3000) == partition_numbers(3000)
    pentagonal = {}
    for k in range(-45, 46):
        if k * (3 * k - 1) // 2 <= 3000:
            pentagonal[(k * (3 * k - 1) // 2, ())] = -1 if k % 2 else 1
    assert euler.terms == pentagonal


# ------------------------------------------------- the rewrite of a side
#
# `expand_closed` nets, telescopes and pairs the infinite factors of a
# side into theta series before it expands them.  The reference is every
# factor expanded alone as a product side and multiplied out.


def one_by_one(factors, order):
    """prod (arg; q^b)_inf^expo over `factors`, each factor (arg; q^b)_inf
    to the power +-1 alone, as a product side of the z layer when it
    carries z (which admits z at q-weight 0 in a numerator)."""
    acc = Series.one(order)
    for f in factors:
        expand = expand_zfactors if "z" in dict(f.arg.vars) \
            else expand_product_spec
        one = ProductSpec((FactorSpec(f.arg, f.basepow, INF,
                                      1 if f.expo > 0 else -1),))
        for _ in range(abs(f.expo)):
            acc = acc * expand(one, order)
    return acc


@st.composite
def rewritable_sides(draw, var="x"):
    """Theta triples, telescoping and cancelling pairs, pure-q reciprocal
    pairs and lone factors, shuffled: signs +-1, bases 1-6, `var` and
    y^-1 in arguments, exponents +-1 and +-2.  With z for `var`, a theta
    numerator may start at q-weight 0, as in the z layer."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["theta", "telescope", "cancel", "pair", "euler", "lone"]))
        b = draw(st.integers(1, 6))
        e = draw(st.sampled_from([1, -1, 2, -2]))
        vk = draw(st.sampled_from([(), ((var, 1),), (("y", -1),)]))
        a = Monomial(draw(st.sampled_from([1, -1])), draw(st.integers(1, 6)),
                     vk)
        low = 0 if var == "z" and kind == "theta" and e > 0 \
            and vk == ((var, 1),) else 1
        if kind in ("theta", "pair") and b > 1:
            a = Monomial(a.coeff, draw(st.integers(low, b - 1)),
                         () if kind == "pair" else vk)
            mate = Monomial.q(b) * a.inverse()
            trio = [a, mate] + [Monomial.q(b)] * (kind == "theta")
            factors += [FactorSpec(m, b, INF, e if kind == "theta" else -1)
                        for m in trio]
        elif kind == "telescope":
            shifted = a * Monomial.q(b * draw(st.integers(1, 4)))
            factors += [FactorSpec(a, b, INF, e),
                        FactorSpec(shifted, b, INF, -e)]
        elif kind == "cancel":
            factors += [FactorSpec(a, b, INF, e), FactorSpec(a, b, INF, -e)]
        elif kind == "euler":
            factors.append(FactorSpec(Monomial.q(b), b, INF, e))
        else:
            factors.append(FactorSpec(a, b, INF, e))
    return tuple(draw(st.permutations(factors)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from("xz").flatmap(
    lambda var: st.tuples(st.just(var), rewritable_sides(var))),
    st.integers(0, 24))
def test_a_rewritten_side_is_its_factors_multiplied_out(side, order):
    """Through `expand_product_spec`, or with z through `expand_zfactors`,
    which expands on the same path."""
    var, factors = side
    expand = expand_zfactors if var == "z" else expand_product_spec
    got = expand(ProductSpec(factors), order)
    want = one_by_one(factors, order)
    assert (got.order, got.floor) == (want.order, want.floor) == (order, 0)
    assert got.terms == want.terms


def test_theta_pieces_and_quotients_replace_the_dense_rows():
    """theta(-xyq; q^2) and the pentagonal series of `main`, and the
    (q^5; q^5)_inf / theta(q; q^5) of `rr1`, against the factors alone."""
    for key, params in (("main", {}), ("rr1", {}), ("cor-double", {}),
                        ("cao-wang", {"a": 2})):
        spec = get_identity(key, **params).lowered.rhs
        assert expand_product_spec(spec, 30) == one_by_one(spec.factors, 30)
    _, thetas, rest = qfactorial._rewrite(
        [(f.arg, f.basepow, f.expo)
         for f in get_identity("rr1").lowered.rhs.factors])
    assert thetas == {(Q, 5): -1} and rest == {(Monomial.q(5), 5): 1}


# Each side below would rewrite through a factor that a product side
# refuses; the refusal and its text stay those of the factor-by-factor
# expansion.
Z = Monomial.var("z")
REFUSED = [
    ("weight-0 pure q", (FactorSpec(Monomial.q(0), 1, INF, 1),
                         FactorSpec(Q, 1, INF, -1)),
     NotTruncatable, "(1*q^0; q^1)_inf: argument carries no positive "
     "q-weight, the product never stabilizes below the order"),
    ("negative weight", (FactorSpec(Monomial.q(-1), 1, INF, 1),
                         FactorSpec(Monomial.q(2), 1, INF, -1)),
     NotTruncatable, "(1*q^-1; q^1)_inf: argument carries no positive "
     "q-weight, the product never stabilizes below the order"),
    ("corpus (q^-3; q^3)", (FactorSpec(Monomial.q(-3), 3, INF, -1),
                            FactorSpec(Monomial.q(3), 3, INF, 1)),
     NotTruncatable, "(1*q^-3; q^3)_inf: argument carries no positive "
     "q-weight, the product never stabilizes below the order"),
    ("two open factors", (FactorSpec(Z, 1, INF, 1),
                          FactorSpec(Z.inverse() * Q, 1, INF, 1),
                          FactorSpec(Q, 1, INF, 1), FactorSpec(Z, 1, INF, -1),
                          FactorSpec(A * Z, 1, INF, -1)),
     NotTruncatable, "2 open factors leave every z-power at q-weight zero; "
     "no window is sound"),
]


@pytest.mark.parametrize("name,factors,error,text", REFUSED,
                         ids=[r[0] for r in REFUSED])
def test_a_refused_factor_is_refused_before_any_rewrite(name, factors, error,
                                                         text):
    with pytest.raises(error) as refused:
        if any("z" in dict(f.arg.vars) for f in factors):
            expand_zfactors(ProductSpec(factors), 8, zwindow=4)
        else:
            expand_product_spec(ProductSpec(factors), 8)
    assert str(refused.value) == text


def test_rr1_product_side_steps_no_dense_reciprocal_row(monkeypatch):
    """rr1's side at order 20,000 is the pentagonal series of q^5 divided
    by theta(q; q^5): no `_recur` step of a reciprocal row, and the sum
    side agrees with it."""
    calls = []
    real = qfactorial._recur
    monkeypatch.setattr(qfactorial, "_recur",
                        lambda *a: calls.append(1) or real(*a))
    rr1 = get_identity("rr1").lowered
    got = expand_product_spec(rr1.rhs, 20000)
    assert calls == []
    assert got == summation.eval_sum(rr1.lhs, 20000)


# ------------------------------------------------ the walk in q^g
#
# A pure-q factor left by the rewrite joins the finite factors' walk as
# its truncation, and the walk runs in q^g for the gcd g of the
# exponents in play.  Substituting q -> q^g in a side must then stretch
# its expansion, whichever route each factor takes.


def scaled(spec, g):
    """`spec` with q -> q^g: every q-exponent and base times g."""
    def stretch(m):
        return Monomial(m.coeff, g * m.qexp, m.vars)
    return ProductSpec(tuple(FactorSpec(stretch(f.arg), g * f.basepow,
                                        f.count, f.expo)
                             for f in spec.factors), stretch(spec.prefactor))


def expanded(build, *args):
    """build(*args), or the type of what it raises."""
    try:
        return build(*args)
    except QSeriesError as exc:
        return type(exc)


def check_stretched(got, want, g, order):
    """`got` to `order` is `want` stretched by q -> q^g, or raises as
    `want` does."""
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type)
    assert (got.order, got.floor) == (order, g * want.floor)
    assert got.terms == want.rescale_base(g).terms


@settings(max_examples=150, deadline=None)
@given(rewritable_sides(), st.lists(st.tuples(ARGS, BASES, st.integers(-5, 6),
                                             st.sampled_from((1, -1, 2, -2))),
                                    max_size=3),
       st.integers(0, 6), st.integers(2, 4), st.integers(0, 60))
def test_a_side_in_q_to_the_g_is_the_side_stretched(infinite, finite, shift,
                                                     g, order):
    """Finite factors, lone pure-q factors, theta and pentagonal
    numerators and denominators and x arguments, with q -> q^g, against
    the side itself to order // g stretched by g."""
    spec = ProductSpec(infinite + tuple(FactorSpec(*f) for f in finite),
                       Monomial.q(shift))
    check_stretched(expanded(expand_product_spec, scaled(spec, g), order),
                    expanded(expand_product_spec, spec, order // g), g, order)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(EXACT_ARGS), st.integers(1, 3), st.integers(-6, 6),
       st.integers(2, 4), st.integers(0, 40))
def test_a_finite_factor_in_q_to_the_g_is_the_factor_stretched(arg, basepow,
                                                               n, g, order):
    """(arg; q^b)_n to an order, whose floor may lie below q^0."""
    stretched = Monomial(arg.coeff, g * arg.qexp, arg.vars)
    check_stretched(expanded(poch_finite, stretched, g * basepow, n, order),
                    expanded(poch_finite, arg, basepow, n, order // g),
                    g, order)


def test_a_pure_q_side_multiplies_no_two_dense_series(monkeypatch):
    """Each product that these sides make at order 3000 has an operand of
    O(sqrt(order)) terms, a theta or pentagonal series: 1/((q;q)(q^2;q^2)),
    (q^2;q^5)/(q^3;q^7), 1/((q;q^8)(q^4;q^8)(q^7;q^8)) and Andrews-Gordon
    at k = 2, i = 1."""
    order = 3000
    smaller = []
    real = Series.__mul__
    monkeypatch.setattr(Series, "__mul__", lambda a, b: smaller.append(
        min(len(a.terms), len(b.terms))) or real(a, b))

    def side(*factors):
        return ProductSpec(tuple(FactorSpec(Monomial.q(a), b, INF, e)
                                 for a, b, e in factors))
    for spec in (side((1, 1, -1), (2, 2, -1)), side((2, 5, 1), (3, 7, -1)),
                 side((1, 8, -1), (4, 8, -1), (7, 8, -1)),
                 get_identity("andrews-gordon", k=2, i=1).lowered.rhs):
        expand_product_spec(spec, order)
    assert max(smaller, default=0) <= 3 * isqrt(order) + 3
