"""Reflected assembly of terms and product sides against a naive build.

The reference multiplies out every binomial 1 - a q^(bk) of every
Pochhammer factor as an exact Laurent polynomial, numerators and
denominators apart, and inverts the denominator with `Series.invert` at
an order widened by the numerator's valuation.  `term_series` and
`expand_product_spec` reflect the binomials of negative q-weight instead
and build each piece only to its depth, so the two paths share nothing
above the ring operations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.qfactorial import (
    FactorSpec,
    ProductSpec,
    ZeroDivisor,
    expand_product_spec,
)
from qident.qring import Monomial, NotInvertible, QSeriesError, Series
from qident.summation import (
    AffineForm,
    DenomFactor,
    QuadForm,
    make_sum_spec,
    term_series,
)


def binomials(arg: Monomial, basepow: int, n: int) -> Series:
    """The binomials of (arg; q^basepow)_n multiplied out, for |n|: the
    numerator when n >= 0, the denominator when n < 0."""
    first = arg * Monomial.q(n * basepow) if n < 0 else arg
    poly = Series.one()
    for k in range(abs(n)):
        a = first * Monomial.q(basepow * k)
        terms = {(0, ()): 1}
        terms[a.key()] = terms.get(a.key(), 0) - a.coeff
        poly = poly * Series.poly(terms)
    return poly


def reference(lead: Monomial, factors, order: int):
    """lead * prod (arg; q^b)_n^expo to `order`, or the exception type
    the product must raise."""
    num, den = Series.from_monomial(lead), Series.one()
    for arg, basepow, n, expo in factors:
        poly = binomials(arg, basepow, n)
        if (n >= 0) == (expo > 0):
            num = num * poly
        else:
            den = den * poly
    if den.is_zero():
        return ZeroDivisor
    if num.is_zero():
        return {}
    try:
        inverse = den.invert(order - num.valuation)
    except NotInvertible:
        return NotInvertible
    return {k: c for k, c in (num * inverse).terms.items() if k[0] <= order}


def check(build, want, order: int):
    if isinstance(want, type):
        with pytest.raises(want):
            build()
        return
    got = build()
    assert got.order == order
    assert got.terms == want


ARGS = st.builds(
    lambda coeff, qexp, xexp: Monomial(coeff, qexp, (("x", xexp),)),
    st.sampled_from((1, -1)), st.integers(-4, 3), st.sampled_from((0, 0, 1, -1)))
BASES = st.integers(1, 3)
ORDERS = st.integers(0, 12)


@st.composite
def sum_terms(draw):
    """A random 1-2 index summand with numerators and denominators, and
    a point of its domain where the subscripts may go negative."""
    dim = draw(st.integers(1, 2))
    domains = draw(st.lists(st.sampled_from("NZ"), min_size=dim,
                            max_size=dim))
    point = tuple(draw(st.integers(0 if d == "N" else -4, 4))
                  for d in domains)
    idx = [AffineForm.index(i, dim) for i in range(dim)]
    quad = QuadForm.zero(dim)
    for i in range(dim):
        for j in range(i, dim):
            quad = quad + QuadForm.product(idx[i], idx[j]).scale(
                draw(st.integers(-1, 2)))
        quad = quad + QuadForm.linear(idx[i]).scale(draw(st.integers(-2, 2)))

    def form():
        return AffineForm.make(
            [draw(st.integers(-2, 2)) for _ in range(dim)],
            draw(st.integers(-3, 3)))

    def factors():
        return [DenomFactor(draw(ARGS), draw(BASES), form())
                for _ in range(draw(st.integers(0, 2)))]

    weights = {name: tuple(draw(st.integers(-1, 1)) for _ in range(dim))
               for name in draw(st.sets(st.sampled_from("xy")))}
    signform = form() if draw(st.booleans()) else None
    spec = make_sum_spec(dim, domains, quad, signform, weights, factors(),
                         factors())
    return spec, point


@settings(max_examples=300, deadline=None)
@given(sum_terms(), ORDERS)
def test_terms_match_the_binomial_by_binomial_build(drawn, order):
    spec, point = drawn
    value = lambda form: int(form.evaluate(point))
    sign = -1 if spec.signform and value(spec.signform) % 2 else 1
    exps = tuple((name, sum(w * p for w, p in zip(vec, point)))
                 for name, vec in spec.varweights)
    lead = Monomial(sign, int(spec.quad.evaluate(point)), exps)
    factors = ([(f.arg, f.basepow, value(f.count), -1) for f in spec.denoms]
               + [(f.arg, f.basepow, value(f.count), 1) for f in spec.numers])
    check(lambda: term_series(spec, point, order),
          reference(lead, factors, order), order)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(ARGS, BASES, st.integers(-5, 6),
                          st.sampled_from((1, -1, 2, -2))), max_size=3),
       st.integers(0, 6), ORDERS)
def test_product_sides_match_the_binomial_by_binomial_build(factors, shift,
                                                            order):
    prefactor = Monomial.q(shift)
    spec = ProductSpec(tuple(FactorSpec(*f) for f in factors), prefactor)
    flat = [(arg, b, n, 1 if e > 0 else -1)
            for arg, b, n, e in factors for _ in range(abs(e))]
    want = reference(prefactor, flat, order)
    if isinstance(want, dict) and any(k[0] < 0 for k in want):
        want = QSeriesError  # a product side is a power series
    check(lambda: expand_product_spec(spec, order), want, order)
