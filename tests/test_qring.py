"""Core series arithmetic: frozen small cases plus randomized ring laws.

Expected values for the non-trivial cases come from independent oracles
written directly in this file (plain dict convolution and brute-force
partition counting), not from the code under test.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qident.qring import (
    EXACT,
    Monomial,
    NotInvertible,
    QueryBeyondOrder,
    Series,
    TruncationUnsound,
)


# --- oracles -----------------------------------------------------------------

def oracle_convolve(a, b, cap):
    """Plain list convolution of q-coefficient lists, truncated at cap."""
    out = [0] * (cap + 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j <= cap:
                out[i + j] += ca * cb
    return out


def oracle_partitions_max_part(n, m):
    """Number of partitions of n into parts of size at most m."""
    if n == 0:
        return 1
    if n < 0 or m == 0:
        return 0
    return oracle_partitions_max_part(n - m, m) + oracle_partitions_max_part(n, m - 1)


# --- frozen examples ---------------------------------------------------------

def test_add_cancellation():
    a = Series.from_qcoeffs([1, 1], order=3)
    b = Series.from_qcoeffs([1, -1], order=3)
    assert (a + b).qcoeffs(3) == [2, 0, 0, 0]


def test_add_identity_and_like_terms():
    s = Series.from_qcoeffs([3, 0, 5], order=4)
    assert s + Series.zero(4) == s
    xq = Series.from_monomial(Monomial.var("x", qexp=1))
    assert (xq + xq).to_text() == "2*q^1*x^1"


def test_mul_truncates_beyond_order():
    a = Series.from_qcoeffs([1, -1], order=3)
    b = Series.from_qcoeffs([1, 1, 1, 1], order=3)
    assert (a * b).qcoeffs(3) == [1, 0, 0, 0]


def test_mul_laurent_cancellation():
    a = Series.from_monomial(Monomial(1, 1, (("x", -1),)))
    b = Series.from_monomial(Monomial(1, -1, (("x", 1),)))
    assert (a * b).to_text() == "1*q^0"


def test_mul_against_convolution_oracle():
    coeffs = [1, 1, 0, 1, 1]
    s = Series.from_qcoeffs(coeffs, order=4)
    expected = oracle_convolve(coeffs, coeffs, 4)
    assert expected == [1, 2, 1, 2, 4]
    assert (s * s).qcoeffs(4) == expected


def test_invert_geometric():
    s = Series.from_qcoeffs([1, -1], order=4)
    assert s.invert(4).qcoeffs(4) == [1, 1, 1, 1, 1]


def test_invert_counts_partitions_with_bounded_parts():
    f = Series.poly({(0, ()): 1, (1, ()): -1}) * Series.poly({(0, ()): 1, (2, ()): -1})
    inv = f.invert(4)
    expected = [oracle_partitions_max_part(n, 2) for n in range(5)]
    assert expected == [1, 1, 2, 2, 3]
    assert inv.qcoeffs(4) == expected


def test_invert_non_unit_constant():
    with pytest.raises(NotInvertible):
        Series.from_qcoeffs([2, -1], order=4).invert()


def test_invert_unit_monomial_factoring():
    # 1/(q^2 (1-q)) = q^-2 + q^-1 + 1 + q + ...
    s = Series.poly({(2, ()): 1, (3, ()): -1})
    inv = s.invert(2)
    assert inv.floor == -2
    assert inv.coeff(-2) == 1 and inv.coeff(-1) == 1 and inv.coeff(0) == 1
    assert (s * inv).coeff(0) == 1


def test_invert_to_order_infinity_is_exact_only_for_a_monomial():
    """1/(1 - q) has no last term; a monomial's inverse has one, but only
    if the monomial is known in full."""
    with pytest.raises(TruncationUnsound):
        Series.poly({(0, ()): 1, (1, ()): -1}).invert(EXACT)
    with pytest.raises(TruncationUnsound):
        Series({(0, ()): 1}, 5).invert(EXACT)
    inv = Series.poly({(2, (("x", 1),)): -1}).invert(EXACT)
    assert inv == Series.poly({(-2, (("x", -1),)): -1})


def test_invert_leading_variable_monomial():
    # -x + q factors as (-x)(1 - q/x); the inverse lives in Z[x^-1][[q]]
    s = Series.poly({(0, (("x", 1),)): -1, (1, ()): 1})
    inv = s.invert(3)
    assert (s * inv).to_text() == "1*q^0"


def test_monomial_constructor_validates_its_variables():
    for vars in ((("q", 1),), (("x", 1), ("x", 2)), (("", 1),)):
        with pytest.raises(ValueError):
            Monomial(1, 0, vars)
    with pytest.raises(ValueError):
        Monomial.var("q")
    m = Monomial(2, 1, (("y", 1), ("x", 0), ("x", -1)))
    assert m.vars == (("x", -1), ("y", 1))
    # products, powers and inverses build on normalized vars
    assert (m * Monomial.var("y", -1)).vars == (("x", -1),)
    assert m ** 0 == Monomial.unit()
    assert Monomial.var("x") ** -2 == Monomial(1, 0, (("x", -2),))
    assert Monomial.var("x", 3, -1).inverse() == Monomial(1, 1, (("x", -3),))


def test_coeff_queries():
    s = Series.from_qcoeffs([1, 2], order=1)
    assert s.coeff(1) == 2
    assert s.coeff(1, {"y": 1}) == 0
    with pytest.raises(QueryBeyondOrder):
        s.coeff(2)


def test_rescale_base():
    assert Series.from_qcoeffs([1, -1]).rescale_base(2).to_text() == "1*q^0 + -1*q^2"
    s = Series.from_qcoeffs([1, 5, 7], order=6)
    assert s.rescale_base(1) == s
    m = Series.from_monomial(Monomial.var("x", qexp=3))
    assert m.rescale_base(3).to_text() == "1*q^9*x^1"


# --- randomized properties ---------------------------------------------------

def _random_series(rng, order, nvars=2, allow_vars=True):
    terms = {}
    for _ in range(rng.randrange(1, 8)):
        qe = rng.randrange(0, order + 1)
        vk = ()
        if allow_vars and rng.random() < 0.5:
            name = rng.choice(["x", "y"][:nvars])
            vk = ((name, rng.randrange(-2, 3)),)
            vk = tuple(p for p in vk if p[1] != 0)
        terms[(qe, vk)] = rng.randrange(-9, 10)
    return Series(terms, order)


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(100):
        order = rng.randrange(3, 9)
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        c = _random_series(rng, order)

        def at_order(s):
            # operations may legitimately know a little more than `order`
            # when valuations are positive; the laws are stated at it
            return s.truncate(min(s.order, order))

        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert at_order(a * b) == at_order(b * a)
        assert at_order((a * b) * c) == at_order(a * (b * c))
        assert at_order(a * (b + c)) == at_order(a * b + a * c)


def test_inversion_round_trip_random():
    rng = random.Random(99173)
    one = Series.one()
    for _ in range(100):
        order = rng.randrange(3, 10)
        s = _random_series(rng, order)
        # force a unit constant term
        terms = {k: c for k, c in s.terms.items() if k[0] > 0}
        terms[(0, ())] = rng.choice([1, -1])
        s = Series(terms, order)
        t = s.invert()
        prod = s * t
        assert prod.qcoeffs(order) == one.qcoeffs(0) + [0] * order


def test_truncation_coherence():
    rng = random.Random(774422)
    for _ in range(40):
        a = _random_series(rng, 10)
        b = _random_series(rng, 10)
        hi = (a * b).truncate(4)
        lo = a.truncate(4) * b.truncate(4)
        assert hi == lo.truncate(min(lo.order, 4))
        assert (a + b).truncate(4) == a.truncate(4) + b.truncate(4)
        if a.coeff(0) in (1, -1):
            assert a.invert(4) == a.invert(8).truncate(4)


# --- truncation-soundness contract -------------------------------------------

def test_mul_negative_valuation_requires_exact_partner():
    laurent = Series.poly({(-2, ()): 1, (0, ()): 1})  # exact, floor -2
    unit = Series.from_qcoeffs([1] * 6, order=5)
    # sound product: order shrinks by the negative valuation
    prod = laurent * unit
    assert prod.order == 3
    # widening the truncated operand restores the contract
    widened = Series.from_qcoeffs([1] * 8, order=7)
    assert (laurent * widened).order == 5


def test_mul_two_truncated_negative_valuations_rejected():
    a = Series(dict(Series.poly({(-3, ()): 1}).terms), order=0, floor=-3)
    b = Series(dict(Series.poly({(-3, ()): 1}).terms), order=0, floor=-3)
    with pytest.raises(TruncationUnsound):
        a * b


# --- ring laws against a naive reference, exact and truncated mixed ----------
#
# An operand comes with a completion: itself for an exact polynomial, and
# for a truncated series its known terms plus random terms above its
# order, standing in for the unknown tail.  Every coefficient a result
# claims (q-exponent <= its order) must match the reference computed from
# the completions, whatever the tails are.  The reference works on plain
# (q, x, y) exponent triples and cuts nothing the result could claim.

def _triples(series):
    out = {}
    for (qe, vk), c in series.terms.items():
        v = dict(vk)
        out[(qe, v.pop("x", 0), v.pop("y", 0))] = c
        assert not v and type(qe) is int and type(c) is int
    return out


def _ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _ref_mul(a, b, depth=None):
    out = {}
    for (qa, xa, ya), ca in a.items():
        for (qb, xb, yb), cb in b.items():
            k = (qa + qb, xa + xb, ya + yb)
            if depth is None or k[0] <= depth:
                out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _claimed(reference, order):
    return {k: c for k, c in reference.items() if k[0] <= order}


def _order_ok(order):
    return order == EXACT or type(order) is int


_MONO = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
_COEFF = st.integers(-3, 3).filter(bool)


def _vk(x, y):
    return tuple((n, e) for n, e in (("x", x), ("y", y)) if e)


@st.composite
def _terms(draw, lo, hi, max_size, mono=_MONO, coeff=_COEFF):
    if lo > hi:
        return {}
    keys = draw(st.lists(st.tuples(st.integers(lo, hi), mono),
                         max_size=max_size, unique=True))
    return {(q, x, y): draw(coeff) for q, (x, y) in keys}


def _build(known, order, floor):
    return Series({(q, _vk(x, y)): c for (q, x, y), c in known.items()},
                  order, floor)


@st.composite
def operands(draw):
    """(series, completion); exact ones may have negative valuation."""
    floor = draw(st.integers(-2, 0))
    if draw(st.booleans()):
        known = draw(_terms(floor, 5, 6))
        return _build(known, EXACT, floor), known
    order = draw(st.integers(0, 5))
    known = draw(_terms(floor, order, 6))
    tail = draw(_terms(order + 1, order + 3, 4))
    return _build(known, order, floor), {**known, **tail}


@st.composite
def units(draw):
    """(series, completion, lead) with a single unit monomial at q^v."""
    v = draw(st.integers(-2, 2))
    lead = (v, *draw(_MONO))
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        known = {**draw(_terms(v + 1, v + 5, 5)), lead: sign}
        return _build(known, EXACT, min(v, 0)), known, lead, sign
    order = draw(st.integers(max(v, 0), max(v, 0) + 4))
    known = {**draw(_terms(v + 1, order, 5)), lead: sign}
    tail = draw(_terms(order + 1, order + 3, 3))
    return _build(known, order, min(v, 0)), {**known, **tail}, lead, sign


def _cap(a, b):
    """The product's order by the cap rule; a zero brings no valuation."""
    va, vb = a.valuation, b.valuation
    if va is None or vb is None:
        low = min([0] + [v for v in (va, vb) if v is not None])
        return min(a.order, b.order) + low
    return min(a.order + vb, b.order + va)


@settings(max_examples=200, deadline=None)
@given(operands(), operands())
def test_add_matches_reference(pa, pb):
    (a, fa), (b, fb) = pa, pb
    s = a + b
    assert s.order == min(a.order, b.order) and _order_ok(s.order)
    assert s.exact == (a.exact and b.exact)
    assert _triples(s) == _claimed(_ref_add(fa, fb), s.order)


def _check_mul(pa, pb):
    (a, fa), (b, fb) = pa, pb
    cap = _cap(a, b)
    if cap < 0 and not (a.is_zero() or b.is_zero()):
        with pytest.raises(TruncationUnsound):
            a * b
        return
    p = a * b
    assert p.order == cap and _order_ok(p.order)
    assert p.exact == (a.exact and b.exact)
    assert _triples(p) == _claimed(_ref_mul(fa, fb), p.order)


@settings(max_examples=200, deadline=None)
@given(operands(), operands())
def test_mul_matches_reference(pa, pb):
    _check_mul(pa, pb)


# Long and wide operands: dense pure-q runs of 8 to 60 terms with
# coefficients up to 2^80, and x, y exponents up to 40, each field of a
# term's one-int key.

_BIG = st.integers(-2 ** 80, 2 ** 80)
_WIDE = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


@st.composite
def dense_operands(draw):
    """(series, completion): pure q, consecutive powers from `lo`, a few
    coefficients possibly zero; a truncated one has a dense tail."""
    floor = draw(st.integers(-4, 0))
    lo = draw(st.integers(floor, 3))
    n = draw(st.integers(8, 60))
    coeffs = draw(st.lists(_BIG, min_size=n, max_size=n))
    known = {(lo + i, 0, 0): c for i, c in enumerate(coeffs) if c}
    if draw(st.booleans()):
        return _build(known, EXACT, floor), known
    order = draw(st.integers(lo + len(coeffs) // 2, lo + len(coeffs) + 3))
    known = {k: c for k, c in known.items() if k[0] <= order}
    tail = draw(st.lists(_BIG, min_size=1, max_size=12))
    tail = {(order + 1 + i, 0, 0): c for i, c in enumerate(tail) if c}
    return _build(known, order, floor), {**known, **tail}


@st.composite
def wide_operands(draw):
    """(series, completion) with x, y exponents up to 40."""
    floor = draw(st.integers(-3, 0))
    if draw(st.booleans()):
        known = draw(_terms(floor, 10, 30, _WIDE, _BIG))
        return _build(known, EXACT, floor), known
    order = draw(st.integers(0, 10))
    known = draw(_terms(floor, order, 30, _WIDE, _BIG))
    tail = draw(_terms(order + 1, order + 4, 8, _WIDE, _BIG))
    return _build(known, order, floor), {**known, **tail}


@settings(max_examples=100, deadline=None)
@given(dense_operands(), dense_operands())
def test_mul_matches_reference_on_long_operands(pa, pb):
    _check_mul(pa, pb)


@settings(max_examples=100, deadline=None)
@given(wide_operands(), st.one_of(dense_operands(), wide_operands()))
def test_mul_matches_reference_on_wide_operands(pa, pb):
    _check_mul(pa, pb)


def _row(coeffs, lo=0):
    return {(lo + i, 0, 0): c for i, c in enumerate(coeffs) if c}


def _op(known, order=EXACT, floor=0):
    """(series, completion) of the terms `known`."""
    return _build(known, order, floor), known


_FA = {(-2, 40, -40): 2 ** 80, (0, 0, 0): 1, (1, -40, 39): -3,
       (3, 17, 0): 5, (5, 0, -1): -1}
_FB = {(0, 40, 40): -1, (1, -40, 1): 2 ** 64, (2, 0, 0): 7,
       (4, -1, -40): 1, (6, 3, 3): 9}
_SPARSE = {(i * 10 ** 8, 0, 0): i + 1 for i in range(16)}

_MUL_CASES = {
    # coefficients of 16 * 2^13 * 2^14 = 2^31 and 16 * 511 * 262657 =
    # 2^31 - 16
    "field-grows": (_op(_row([2 ** 13] * 16), floor=-5),
                    _op(_row([2 ** 14] * 16), floor=-5)),
    "field-grows-negative": (_op(_row([-2 ** 13] * 16), floor=-5),
                             _op(_row([2 ** 14] * 16), floor=-5)),
    "field-just-fits": (_op(_row([511] * 16), floor=-5),
                        _op(_row([262657] * 16), floor=-5)),
    "field-just-fits-negative": (_op(_row([511] * 16), floor=-5),
                                 _op(_row([-262657] * 16), floor=-5)),
    # the odd coefficients cancel to 0 exactly
    "cancellation": (_op(_row([1] * 20), floor=-5),
                     _op(_row([(-1) ** i for i in range(20)]), floor=-5)),
    "negative-floors": (
        _op(_row([3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8, 9], -5), floor=-5),
        _op(_row(list(range(1, 21)), -2), 30, -5)),
    # the cap, 20 + 0, cuts the exact operand's run of 40 to 21 terms
    "cap-below-span": (_op(_row([2 ** 70 + i for i in range(40)]), floor=-5),
                       _op(_row([-1] * 16), 20, -5)),
    # 1/(1 - q^5) and 1/(1 - q^20) below q^120 times a dense row
    "sparse-step-5": (_op(_row(([1] + [0] * 4) * 24 + [1]), floor=-5),
                      _op(_row(list(range(1, 122))), 120, -5)),
    "sparse-step-20": (_op(_row(([1] + [0] * 19) * 6 + [1])),
                       _op(_row(list(range(1, 122))), 120)),
    "wide-vars-truncated": (_op(_FA, floor=-2), _op(_FB, 8)),
    "wide-vars-exact": (_op(_FA, floor=-2), _op(_FB)),
    # x^40 * x^-40 leaves a pure-q term, and the two products that land
    # on q^1 cancel to 0
    "vars-cancel-to-pure-q": (_op({(0, 40, 0): 1, (1, 0, 0): 1}),
                              _op({(0, -40, 0): 1, (0, 0, 0): 1,
                                   (1, -40, 0): -1, (2, 0, 0): 5})),
    "short-pure-q": (_op(_row([1, 2, 3])), _op(_row(list(range(1, 30))), 20)),
    # terms 10^8 q-exponents apart
    "sparse-far-apart": (_op(_SPARSE), _op(_SPARSE)),
}


@pytest.mark.parametrize("case", sorted(_MUL_CASES))
def test_mul_matches_reference_on_fixed_cases(case):
    _check_mul(*_MUL_CASES[case])


@settings(max_examples=200, deadline=None)
@given(units(), st.one_of(st.none(), st.integers(-3, 8)))
def test_invert_matches_reference(case, requested):
    u, fu, (v, x, y), sign = case
    sound = u.order - 2 * v
    if requested is not None and requested > sound:
        with pytest.raises(TruncationUnsound):
            u.invert(requested)
        return
    w = u.invert(requested)
    # without an argument: the sound order, or an exact series' top degree
    order = requested
    if order is None:
        top = max([0] + [qe for qe, _, _ in _triples(u)])
        order = top if u.exact else sound
    assert w.order == order and type(w.order) is int
    # 1/u = sign q^-v x^-x y^-y * sum_k (-s)^k, s = sign q^-v x^-x y^-y u - 1,
    # where s starts at q^1, so k runs to the depth order + v.
    depth = order + v
    shift = {(-v, -x, -y): sign}
    minus_s = _ref_add({(0, 0, 0): 1}, {k: -c for k, c in
                                         _ref_mul(fu, shift).items()})
    total, power = {}, {(0, 0, 0): 1}
    for _ in range(max(0, depth + 1)):
        total = _ref_add(total, power)
        power = _ref_mul(power, minus_s, depth)
    want = _claimed(_ref_mul(total, shift), order) if depth >= 0 else {}
    assert _triples(w) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=40), st.sampled_from([1, -1, 2]),
       st.integers(-3, 3), st.integers(0, 30), st.integers(0, 40))
def test_a_pure_q_inverse_is_the_grade_loop(coeffs, lead, v, spread, order):
    """The row recurrence of a pure-q inverse, on dense and on sparse
    series, against the grade loop for formal variables: the same
    series with a variable t that tracks the q-exponent, so that
    q^e t^e is one monomial per grade, and t dropped afterwards."""
    terms = {(v, ()): lead}
    for i, c in enumerate(coeffs, 1):
        terms[(v + i * (1 + spread // 6), ())] = c
    s = Series(terms, v + 60, min(0, v))
    tagged = Series({(qe, (("t", qe),)): c for (qe, _), c in s.terms.items()},
                    s.order, s.floor)
    try:
        want = tagged.invert(order)
    except (NotInvertible, TruncationUnsound) as exc:
        with pytest.raises(type(exc)) as refused:
            s.invert(order)
        assert str(refused.value) == str(exc)
        return
    got = s.invert(order)
    assert (got.order, got.floor) == (want.order, want.floor)
    assert got.terms == {(qe, ()): c for (qe, _), c in want.terms.items()}


# Shifts and cuts build their results without re-filtering them, so each
# is checked against the reference: no zero coefficient, nothing above
# the order or below the floor.

@settings(max_examples=200, deadline=None)
@given(operands(), st.integers(-3, 3), _MONO, st.integers(-2, 3))
def test_mul_monomial_matches_reference(pa, coeff, mono, qexp):
    a, fa = pa
    p = a.mul_monomial(Monomial(coeff, qexp, _vk(*mono)))
    assert (p.order, p.floor) == (a.order + qexp, a.floor + qexp)
    assert _triples(p) == _claimed(_ref_mul(fa, {(qexp, *mono): coeff}),
                                   p.order)
    assert all(p.floor <= qe for qe, _ in p.terms)


def test_mul_monomial_by_zero_is_the_zero_series():
    a = Series.from_qcoeffs([1, 2, 3], order=4)
    p = a.mul_monomial(Monomial(0, 2, (("x", 1),)))
    assert p.is_zero() and (p.order, p.floor) == (6, 2)


@settings(max_examples=200, deadline=None)
@given(operands(), st.integers(-3, 6), st.one_of(st.none(), st.integers(-3, 3)))
def test_truncate_matches_reference(pa, order, floor):
    a, fa = pa
    if order > a.order:
        with pytest.raises(TruncationUnsound):
            a.truncate(order, floor)
        return
    t = a.truncate(order, floor)
    fl = a.floor if floor is None else floor
    assert (t.order, t.floor) == (order, fl)
    assert _triples(t) == {k: c for k, c in fa.items() if fl <= k[0] <= order}
