"""Core series arithmetic: frozen small cases plus randomized ring laws.

Expected values for the non-trivial cases come from independent oracles
written directly in this file (plain dict convolution and brute-force
partition counting), not from the code under test.
"""

import random

import pytest

from qident.qring import (
    Monomial,
    NotInvertible,
    QueryBeyondOrder,
    Series,
    TruncationUnsound,
    parse_series,
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


def test_invert_leading_variable_monomial():
    # -x + q factors as (-x)(1 - q/x); the inverse lives in Z[x^-1][[q]]
    s = Series.poly({(0, (("x", 1),)): -1, (1, ()): 1})
    inv = s.invert(3)
    assert (s * inv).to_text() == "1*q^0"


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


def test_serialization_round_trip_random():
    rng = random.Random(5511)
    for _ in range(60):
        s = _random_series(rng, rng.randrange(0, 12))
        text = s.to_text()
        assert parse_series(text).to_text() == text


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
