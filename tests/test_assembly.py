"""Reflected assembly of terms, sums and product sides against naive builds.

The reference multiplies out every binomial 1 - a q^(bk) of every
Pochhammer factor, numerators and denominators apart, each at valuation
0 and to the depth that can still reach the order, and inverts the
denominator with `Series.invert`.  `term_series` and
`expand_product_spec` reflect the binomials of negative q-weight instead
and build each piece only to its depth, so the two paths share nothing
above the ring operations.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.catalog import get_identity
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
    DomainError,
    NegativeValuationResidual,
    QuadForm,
    UnboundedSupport,
    enumerate_support,
    eval_sum_over,
    make_sum_spec,
    term_series,
)


def binomial_list(arg: Monomial, basepow: int, n: int) -> list[Monomial]:
    """The A of the binomials 1 - A of (arg; q^basepow)_n, for |n|: the
    numerator when n >= 0, the denominator when n < 0."""
    first = arg * Monomial.q(n * basepow) if n < 0 else arg
    return [first * Monomial.q(basepow * k) for k in range(abs(n))]


@functools.cache
def binomials(arg: Monomial, basepow: int, n: int) -> Series:
    """The binomials of (arg; q^basepow)_n multiplied out, exactly."""
    poly = Series.one()
    for a in binomial_list(arg, basepow, n):
        terms = {(0, ()): 1}
        terms[a.key()] = terms.get(a.key(), 0) - a.coeff
        poly = poly * Series.poly(terms)
    return poly


@functools.cache
def lowered(arg: Monomial, basepow: int, n: int, depth: int) -> Series:
    """The binomials of (arg; q^basepow)_n, each 1 - A divided by
    q^min(0, weight(A)), multiplied out to `depth`: the product at
    valuation 0, or zero when a binomial is 1 - 1.  It is the product
    for the subscript one step nearer 0 times the binomial at position
    p, n - 1 for n > 0 and n for n < 0."""
    if n == 0:
        return Series.one(depth)
    p = n - 1 if n > 0 else n
    a = arg * Monomial.q(basepow * p)
    w = min(0, a.qexp)
    terms = {(-w, ()): 1}
    key = (a.qexp - w, a.vars)
    terms[key] = terms.get(key, 0) - a.coeff
    return lowered(arg, basepow, p if n > 0 else n + 1, depth) * Series(
        terms, depth)


@functools.cache
def valuation(arg: Monomial, basepow: int, n: int) -> int:
    """The valuation of the binomials of (arg; q^basepow)_n multiplied
    out, none of them 1 - 1: the sum of their negative weights."""
    return sum(min(0, a.qexp) for a in binomial_list(arg, basepow, n))


def reference(lead: Monomial, factors, order: int):
    """lead * prod (arg; q^b)_n^expo to `order`, or the exception type
    the product must raise.  The quotient has valuation `low`, so its
    numerator and denominator are taken at valuation 0 and multiplied
    out only to the depth order - low that can still reach the order."""
    nums, dens, low = [], [], lead.qexp
    for arg, basepow, n, expo in factors:
        v = valuation(arg, basepow, n)
        if (n >= 0) == (expo > 0):
            nums.append((arg, basepow, n))
            low += v
        else:
            dens.append((arg, basepow, n))
            low -= v
    depth = max(0, order - low)

    def product(fs) -> Series:
        return functools.reduce(Series.__mul__, [
            lowered(*f, depth) for f in fs] or [Series.one(depth)])

    num, den = product(nums), product(dens)
    if den.is_zero():
        return ZeroDivisor
    if num.is_zero():
        return {}
    if dens:
        try:
            num = num * den.invert(depth)
        except NotInvertible:
            return NotInvertible
    return {(qe + low, vk): c for (qe, vk), c in
            num.mul_monomial(Monomial(lead.coeff, 0, lead.vars)).terms.items()
            if qe + low <= order}


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
def sum_terms(draw, numers=True):
    """A random 1-3 index summand with denominators, and numerators
    unless `numers` is false, and a point of its domain where the
    subscripts may go negative."""
    dim = draw(st.integers(1, 3))
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
        if not numers:  # so that most sums have a certified support
            quad = quad + QuadForm.square(idx[i]).scale(draw(st.integers(1, 3)))

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
                         factors() if numers else ())
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


def summed_terms(spec, points, order: int):
    """The sum of `term_series` over `points`, one point after another,
    cut at `order`, or the exception type the sum must raise."""
    acc = Series.zero(order)
    try:
        for point in points:
            acc = acc + term_series(spec, point, order)
    except QSeriesError as exc:
        return type(exc)
    if acc.valuation is not None and acc.valuation < 0:
        return NegativeValuationResidual
    return {k: c for k, c in acc.terms.items() if k[0] <= order}


@settings(max_examples=300, deadline=None)
@given(sum_terms(numers=False), st.integers(0, 8))
def test_nested_sums_match_the_sum_of_their_terms(drawn, order):
    """eval_sum_over groups the points by prefix and builds each factor
    once per prefix; over the certified support it must give the terms,
    the order and the exception of the point-by-point sum."""
    spec, _ = drawn
    try:
        points = enumerate_support(spec, order).points
    except UnboundedSupport:
        return
    check(lambda: eval_sum_over(spec, points, order),
          summed_terms(spec, points, order), order)


@st.composite
def pure_sums(draw):
    """A 1-3 index sum free of formal variables over N or Z: a positive
    diagonal, cross and linear terms that give some points negative
    exponents, maybe a sign form, and up to three denominators of base
    q^1 to q^3 whose arguments carry +-q^-3 to +-q^3."""
    dim = draw(st.integers(1, 3))
    domains = "".join(draw(st.sampled_from("NZ")) for _ in range(dim))
    idx = [AffineForm.index(i, dim) for i in range(dim)]
    quad = QuadForm.zero(dim)
    for i in range(dim):
        quad = quad + QuadForm.square(idx[i]).scale(draw(st.integers(1, 3)))
        quad = quad + QuadForm.linear(idx[i]).scale(draw(st.integers(-3, 2)))
        for j in range(i + 1, dim):
            quad = quad + QuadForm.product(idx[i], idx[j]).scale(
                draw(st.integers(-1, 1)))

    def form():
        return AffineForm.make(
            [draw(st.integers(-1, 1)) for _ in range(dim)],
            draw(st.integers(-2, 2)))

    denoms = [DenomFactor(Monomial(draw(st.sampled_from((1, -1))),
                                   draw(st.integers(-3, 3))),
                          draw(BASES), form())
              for _ in range(draw(st.integers(0, 3)))]
    signform = form() if draw(st.booleans()) else None
    return make_sum_spec(dim, domains, quad, signform, None, denoms)


def summed_references(spec, points, order: int):
    """The sum over `points` of `reference`, cut at `order`, or the
    exception type the sum must raise."""
    acc: dict = {}
    for point in points:
        value = lambda form: int(form.evaluate(point))
        sign = -1 if spec.signform and value(spec.signform) % 2 else 1
        lead = Monomial(sign, int(spec.quad.evaluate(point)))
        terms = reference(lead, [(f.arg, f.basepow, value(f.count), -1)
                                 for f in spec.denoms], order)
        if isinstance(terms, type):
            return terms
        for k, c in terms.items():
            acc[k] = acc.get(k, 0) + c
    acc = {k: c for k, c in acc.items() if c}
    if any(k[0] < 0 for k in acc):
        return NegativeValuationResidual
    return acc


@settings(max_examples=200, deadline=None)
@given(pure_sums(), st.integers(0, 24))
def test_pure_q_sums_match_the_reference(spec, order):
    """The chain walk of eval_sum_over, on term dicts and on rows,
    against the reference terms, which share no code with it."""
    try:
        points = enumerate_support(spec, order).points
    except UnboundedSupport:
        return
    check(lambda: eval_sum_over(spec, points, order),
          summed_references(spec, points, order), order)


@pytest.mark.parametrize("key,params", [
    ("main", {}), ("cor-triple", {}), ("cor-multi", {"ell": 4})])
def test_catalog_sums_match_the_sum_of_their_terms(key, params):
    """Two to four indices, with rows of many points sharing a prefix."""
    spec = get_identity(key, **params).lowered.lhs
    points = enumerate_support(spec, 10).points
    check(lambda: eval_sum_over(spec, points, 10),
          summed_terms(spec, points, 10), 10)


def test_a_zero_factor_does_not_hide_a_vanishing_denominator():
    """1/(q; q)_(-1) is zero but 1/(q^-1; q)_2 divides by 1 - 1: a term
    with both raises ZeroDivisor, whichever factor comes first and
    whichever index each reads, and so does every sum over it, also
    after a point whose term is only zero."""
    i, j = AffineForm.index(0, 2), AffineForm.index(1, 2)
    for zero_at, bad_at, points in ((i, j, [(-1, 1), (-1, 2)]),
                                    (j, i, [(1, -1), (2, -1)])):
        zero = DenomFactor(Monomial.q(), 1, zero_at)
        infinite = DenomFactor(Monomial.q(-1), 1, bad_at)
        for denoms in ([zero, infinite], [infinite, zero]):
            spec = make_sum_spec(2, "ZZ", QuadForm.zero(2), denoms=denoms)
            assert term_series(spec, points[0], 4).is_zero()
            with pytest.raises(ZeroDivisor):
                term_series(spec, points[1], 4)
            for given_points in (points[1:], points):
                with pytest.raises(ZeroDivisor):
                    eval_sum_over(spec, given_points, 4)
    with pytest.raises(DomainError):
        eval_sum_over(spec, [(0, 0), (1, 2, 3)], 4)


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
