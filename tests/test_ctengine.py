"""Laurent-in-z machinery: triple products, z-products, constant terms.

z is a formal variable of `Series`; `zcoeffs` reads single z-powers off.
The classical single-variable expansions (Euler's two summations) serve
as oracles for the z-factor builders, and the per-z-power checks replay
textbook bilateral summations before `prove_main_theorem` chains them.
"""

import itertools
import random

import pytest

from qident import ctengine, qring
from qident.catalog import get_identity
from qident.ctengine import (
    MainProof,
    ProofReplayError,
    binom2,
    expand_zfactors,
    jtp_zseries,
    prove_main_theorem,
    verify_zcoeff_identity,
    zcoeffs,
    zmul,
)
from qident.qfactorial import (
    INF,
    FactorSpec,
    NotTruncatable,
    ProductSpec,
    poch_finite,
    poch_infinite,
    poch_recip_finite,
)
from qident.qring import Monomial, Series
from qident.report import find_first_mismatch

ONE = Monomial.unit()
Q1 = Monomial.q()
X = Monomial.var("x")
A = Monomial.var("a")


def sign(n):
    return -1 if n % 2 else 1


def by_z(s):
    return dict(zcoeffs(s))


def zfactor(mon, zexp=1, basepow=1, expo=1) -> FactorSpec:
    """(mon z^zexp; q^basepow)_inf^expo, as a statement in z lowers it."""
    return FactorSpec(mon * Monomial.var("z", zexp), basepow, INF, expo)


def is_open(f: FactorSpec) -> bool:
    """A reciprocal whose k=0 binomial sits at q-weight zero."""
    return f.expo < 0 and f.arg.qexp == 0


def expand(factors, order, zwindow=None):
    return expand_zfactors(ProductSpec(tuple(factors)), order, zwindow)


def zcarrying(spec: ProductSpec) -> list[FactorSpec]:
    return [f for f in spec.factors if "z" in dict(f.arg.vars)]


# ------------------------------------------------------- the triple product


def test_jtp_window_tracks_the_order():
    zs = by_z(jtp_zseries(ONE, 36))
    # binom(9,2) = binom(-8,2) = 36 sits exactly on the order.
    assert (min(zs), max(zs)) == (-8, 9)
    assert 10 not in zs and -9 not in zs


def test_jtp_order_zero_keeps_the_weightless_pair():
    zs = by_z(jtp_zseries(ONE, 0))
    assert set(zs) == {0, 1}


def test_jtp_coefficients_are_exact_signed_monomials():
    jtp = jtp_zseries(ONE, 40)
    assert jtp.order == 40
    zs = by_z(jtp)
    for n in range(-8, 9):
        assert zs[n].order == 40
        assert zs[n].terms == {(binom2(n), ()): sign(n)}
    assert jtp.terms[(1, (("z", -1),))] == -1


def test_jtp_with_companion_variable():
    zs = by_z(jtp_zseries(X, 20))
    assert zs[2].terms == {(1, (("x", 2),)): 1}
    assert zs[-1].terms == {(1, (("x", -1),)): -1}
    assert zs[3].terms == {(3, (("x", 3),)): -1}


def test_jtp_rejects_q_carrying_companions():
    with pytest.raises(NotTruncatable):
        jtp_zseries(Monomial.var("y", qexp=1), 10)


def test_jtp_reflection_swaps_companion_for_its_inverse():
    # Sending z -> q/z in the triple product with companion y lands on
    # the triple product with companion 1/y: coefficient of z^{-j} must
    # be (-1)^j y^j q^{binom(j+1,2)}.
    zs = by_z(jtp_zseries(Monomial.var("y", -1), 30))
    for j in range(-4, 5):
        expect = {(binom2(j + 1), (("y", j),) if j else ()): sign(j)}
        assert zs[-j].terms == expect


# ----------------------------------------------------------- zmul / zcoeffs


def test_zmul_of_pure_powers_is_delta_orthogonal():
    f = Series({(0, (("z", 2),)): 1}, 10)
    g = Series({(0, (("z", -2),)): 1}, 10)
    prod = zmul(f, g)
    assert set(by_z(prod)) == {0}
    assert by_z(prod)[0].coeff(0) == 1
    [(k, missing)] = zcoeffs(prod, [5])
    assert k == 5
    assert missing.is_zero() and not missing.exact and missing.order == 10


def test_zmul_unit_is_identity():
    zs = jtp_zseries(X, 12)
    prod = zmul(Series.one(12), zs)
    assert prod.order == 12
    assert prod.terms == zs.terms


def test_zmul_downgrades_order_for_negative_valuations():
    laurent = Series({(-3, ()): 1}, 10, -3)
    assert zmul(laurent, Series.one(10)).order == 7


def test_every_z_coefficient_reports_the_product_order():
    """A z^-1 term at q^-3 leaves the product sound to q^7 only, at every
    z-power: the q^8..q^10 terms of [z^0] are unknown, though the z^0
    coefficients of both factors were known to q^10."""
    f = Series({(0, ()): 1, (-3, (("z", -1),)): 1}, 10, -3)
    prod = zmul(f, Series.one(10))
    assert prod.order == 7
    coeffs = by_z(prod)
    assert set(coeffs) == {0, -1}
    assert all(c.order == 7 for c in coeffs.values())
    [(_, absent)] = zcoeffs(prod, [3])
    assert absent.is_zero() and absent.order == 7


def test_constant_term_of_paired_triple_products():
    pair = zmul(jtp_zseries(X, 24), jtp_zseries(Monomial.var("y", -1), 24))
    [(_, ct)] = zcoeffs(pair, [0])
    # sum over i of (xy)^i q^{i^2}, every term up to the order
    assert ct.order == 24
    assert ct.terms == {(i * i, (("x", i), ("y", i)) if i else ()): 1
                        for i in range(-4, 5)}


# --------------------------------------------------------- z-factor builders


def test_binomial_factor_matches_the_alternating_euler_sum():
    # (z;q)_inf = sum_j (-1)^j q^{binom(j,2)} z^j / (q;q)_j
    zs = by_z(expand([zfactor(ONE)], 12))
    for j in range(5):
        expect = poch_recip_finite(Q1, 1, j, 12).mul_monomial(
            Monomial(sign(j), binom2(j), ()))
        assert find_first_mismatch(zs[j], expect, 12) is None
    assert -1 not in zs


def test_geometric_factor_matches_the_plain_euler_sum():
    # 1/(qz;q)_inf = sum_j q^j z^j / (q;q)_j
    zs = by_z(expand([zfactor(Q1, expo=-1)], 12))
    for j in range(5):
        expect = poch_recip_finite(Q1, 1, j, 12).mul_monomial(Monomial(1, j, ()))
        assert find_first_mismatch(zs[j], expect, 12) is None


def _product_with_formal_z(f: FactorSpec, order: int, top: int) -> Series:
    """(mon z^e; q^b)_inf^expo to `order`, with z an ordinary variable.

    Every binomial 1 - mon q^(bk) z^e at q-weight <= order is multiplied
    out (a later one is 1 to this order) and the product inverted for a
    reciprocal.  An open reciprocal's q-free k = 0 binomial cannot be
    inverted in q, so its geometric series is taken up to z^(e*top).
    """
    prod = Series.one()
    k = 1 if is_open(f) else 0
    while f.arg.qexp + f.basepow * k <= order:
        arg = f.arg * Monomial.q(f.basepow * k)
        prod = prod * Series.poly({(0, ()): 1, arg.key(): -arg.coeff})
        k += 1
    if f.expo == 1:
        return prod.truncate(order)
    prod = prod.invert(order)
    if is_open(f):
        powers = [f.arg ** t for t in range(top + 1)]
        prod = prod * Series.poly({m.key(): m.coeff for m in powers})
    return prod


def _by_z_power(s: Series) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for (qe, vk), c in s.terms.items():
        rest = tuple((n, e) for n, e in vk if n != "z")
        out.setdefault(dict(vk).get("z", 0), {})[(qe, rest)] = c
    return out


def _z_span(s: Series) -> int:
    return max((abs(dict(vk).get("z", 0)) for _, vk in s.terms), default=0)


_SHAPES = [
    zfactor(Monomial(c, w, var), zexp, b, expo)
    for expo, zexp, b, c, var, w in itertools.product(
        (1, -1), (1, -1, 2, -2), (1, 2, 3), (1, -1), ((), (("x", 1),)),
        (0, 1, 2))]


def _products(seed: int) -> list[tuple[FactorSpec, ...]]:
    """Every shape alone, and a fixed sample of pairs and triples with at
    most one open factor among them."""
    rng = random.Random(seed)
    closed = [f for f in _SHAPES if not is_open(f)]
    opens = [f for f in _SHAPES if is_open(f)]
    out = [(f,) for f in _SHAPES]
    for size in (2, 3):
        for _ in range(12):
            out.append(tuple(rng.sample(closed, size)))
            out.append((*rng.sample(closed, size - 1), rng.choice(opens)))
    return out


@pytest.mark.parametrize("order", [0, 1, 12])
def test_euler_expansion_matches_the_formal_z_product(order):
    """Every factor shape, closed or open, and products of two and three
    of them, against the product expanded with z as a formal variable.

    The geometric cut `top` of an open factor reaches past the window by
    the z-span of all the other pieces, so every [z^k] in the window is
    complete; a shorter cut would leave some of them short."""
    lo, hi = window = (-5, 5)
    for factors in _products(seed=order):
        top = max(-lo, hi) + 1 + sum(
            _z_span(_product_with_formal_z(f, order, 0)) for f in factors)
        want = Series.one()
        for f in factors:
            want = want * _product_with_formal_z(f, order, top)
        has_open = any(is_open(f) for f in factors)
        got = expand(factors, order, window if has_open else None)
        if has_open:
            assert set(got) == set(range(lo, hi + 1)), factors
            want = _by_z_power(want)
            for k in range(lo, hi + 1):
                assert got[k].order == order, factors
                assert got[k].terms == want.get(k, {}), (factors, k)
        else:
            assert got.order == order, factors
            assert got.terms == want.truncate(order).terms, factors


def test_zfactor_expansion_convolution_count(monkeypatch):
    """The m = 1 product side of the 1psi1 sum at order 16, its z-carrying
    factors: (a^-1 z^-1 q; q)_inf nets away against its reciprocal, the
    open 1/(z; q)_inf leaves the closed 1/(zq; q)_inf, and the Euler series of (az; q)_inf times that of 1/(zq; q)_inf is the one
    convolution (5 when each Euler series was multiplied into the product
    of those before it and that product by the z-free part, 516 when
    every pair of z-coefficients was multiplied apart)."""
    calls = []
    real = qring._convolve
    monkeypatch.setattr(qring, "_convolve",
                        lambda *a: calls.append(1) or real(*a))
    ident = get_identity("ramanujan-1psi1", m=1)
    expand(zcarrying(ident.lowered.rhs), 16, ident.zwindow)
    assert len(calls) == 1


def test_bilateral_euler_at_m_1_is_one_euler_series(monkeypatch):
    """At m = 1 the bilateral Euler side (q, z, q/z; q)_inf / (q, q/z;
    q)_inf nets to (z; q)_inf: the Euler series of that one factor, with
    no convolution (5 before the factors netted)."""
    calls = []
    real = qring._convolve
    monkeypatch.setattr(qring, "_convolve",
                        lambda *a: calls.append(1) or real(*a))
    ident = get_identity("bilateral-euler", m=1)
    got = expand_zfactors(ident.lowered.rhs, 16, ident.zwindow)
    assert calls == []
    assert got == _product_with_formal_z(zfactor(ONE), 16, 0)


def test_open_factor_fold_adds_once_per_closed_z_power(monkeypatch):
    """The open factor of the q-binomial side, 1/(z; q)_inf, folded over
    [-2000, 2000]: F_k = C_k + F_(k-1) adds each z-power of the closed
    product C once, and makes no add per z-power of the window."""
    factors = zcarrying(get_identity("q-binomial").lowered.rhs)
    closed = [f if not is_open(f) else
              FactorSpec(f.arg * Monomial.q(f.basepow), f.basepow, INF, -1)
              for f in factors]
    span = len(by_z(expand(closed, 4)))
    adds = []
    real = Series.__add__
    monkeypatch.setattr(Series, "__add__",
                        lambda a, b: adds.append(1) or real(a, b))
    folded = expand(factors, 4, zwindow=2000)
    assert 0 < len(adds) <= span
    assert len(adds) <= 4001 + span
    assert set(folded) == set(range(-2000, 2001))
    assert {k for k, s in folded.items() if s.terms} == set(range(0, 2001))


def test_negative_q_weight_arguments_are_refused():
    with pytest.raises(NotTruncatable):
        expand([zfactor(Monomial.q(-1))], 8)
    with pytest.raises(NotTruncatable):
        expand([zfactor(Monomial.q(-2), expo=-1)], 8)


def test_open_factor_needs_an_explicit_window():
    factors = [zfactor(ONE, expo=-1)]
    with pytest.raises(NotTruncatable):
        expand(factors, 8)
    zs = expand(factors, 8, zwindow=(-2, 5))
    # Euler: [z^k] of 1/(z;q)_inf is 1/(q;q)_k
    for k in range(4):
        assert find_first_mismatch(zs[k], poch_recip_finite(Q1, 1, k, 8),
                                   8) is None
    # only the window is folded, and nothing sits below z^0
    assert set(zs) == set(range(-2, 6))
    assert zs[-2].is_zero() and zs[-1].is_zero()


def test_an_open_fold_is_not_a_series_a_product_could_shift():
    """1/(z; q)_inf folded over [0, 3] is its coefficients [z^0]..[z^3],
    not a series in z: as one, z^-1 times it held z^-1..z^2 only, with
    no error, though [z^3] of the product is [z^4] = 1/(q; q)_4."""
    factors = [zfactor(ONE, expo=-1)]
    folded = expand(factors, 4, zwindow=(0, 3))
    with pytest.raises(TypeError):
        zmul(folded, Series({(0, (("z", -1),)): 1}, 4))
    assert set(folded) == {0, 1, 2, 3}
    wider = expand(factors, 4, zwindow=(0, 4))
    assert find_first_mismatch(wider[4], poch_recip_finite(Q1, 1, 4, 4),
                               4) is None


def test_a_finite_factor_carrying_z_is_refused():
    with pytest.raises(ValueError, match="not an infinite product"):
        expand([FactorSpec(Monomial.var("z", qexp=1), 1, 3)], 8)


def test_two_open_factors_are_refused():
    with pytest.raises(NotTruncatable):
        expand([zfactor(ONE, expo=-1), zfactor(A, expo=-1)], 8, zwindow=3)


# ------------------------------------------------- classical per-z identities


def test_q_binomial_theorem_per_z_power():
    # (az;q)_inf / (z;q)_inf has [z^k] = (a;q)_k / (q;q)_k
    rhs = expand([zfactor(A), zfactor(ONE, expo=-1)], 16, zwindow=(0, 6))

    def lhs(k):
        return poch_finite(A, 1, k) * poch_recip_finite(Q1, 1, k, 16)

    report = verify_zcoeff_identity("q-binomial", lhs, rhs, (0, 6), 16)
    assert report.passed, report.first_mismatch


def test_bilateral_euler_expansion_per_z_power():
    # sum_k (-z)^k q^{binom(k,2)} / (q^2;q)_k
    #   = (q, z, q/z; q)_inf / ((q^2;q)_inf (q^2/z;q)_inf)
    order = 8
    b = Monomial.q(2)
    core = zmul(jtp_zseries(ONE, order),
                expand([zfactor(b, zexp=-1, expo=-1)], order))
    rhs = core * poch_infinite(b, 1, order).invert(order)

    def lhs(k):
        return poch_recip_finite(b, 1, k, order).mul_monomial(
            Monomial(sign(k), binom2(k), ()))

    report = verify_zcoeff_identity("bilateral-euler", lhs, rhs, 3, order)
    assert report.passed, report.first_mismatch
    # the constant term collapses to bare 1, and the sum is genuinely
    # bilateral: k = -1 survives while k <= -2 vanishes
    zs = by_z(rhs)
    assert find_first_mismatch(zs[0], Series.one(), order) is None
    assert zs[-1].coeff(1) == -1
    assert lhs(-2).is_zero()


def test_first_circle_sum_per_z_power():
    # sum_i (-xz)^i q^{binom(i,2)} / (xq;q)_i
    #   = (q, xz, q/(xz); q)_inf / ((xq;q)_inf (q/z;q)_inf)
    order = 12
    xq = Monomial.var("x", qexp=1)
    core = expand(
        [zfactor(X), zfactor(X.inverse() * Q1, zexp=-1),
         zfactor(Q1, zexp=-1, expo=-1)], order)
    scale = poch_infinite(Q1, 1, order) * poch_infinite(xq, 1, order).invert(order)
    rhs = core * scale

    def lhs(i):
        mono = Monomial(sign(i), binom2(i), (("x", i),) if i else ())
        return poch_recip_finite(xq, 1, i, order).mul_monomial(mono)

    report = verify_zcoeff_identity("circle-x", lhs, rhs, 4, order)
    assert report.passed, report.first_mismatch


def test_second_circle_sum_per_z_power():
    # sum_j (-yq/z)^j q^{binom(j,2)} / (yq;q)_j
    #   = (q, yq/z, z/y; q)_inf / ((yq;q)_inf (z;q)_inf)
    order = 12
    yq = Monomial.var("y", qexp=1)
    # The z-free part (q; q)_inf / (yq; q)_inf is part of the spec.
    rhs = expand(
        [zfactor(yq, zexp=-1), zfactor(Monomial.var("y", -1)),
         zfactor(ONE, expo=-1), FactorSpec(Q1), FactorSpec(yq, expo=-1)],
        order, zwindow=4)

    def lhs(k):
        j = -k
        mono = Monomial(sign(j), binom2(j + 1), (("y", j),) if j else ())
        return poch_recip_finite(yq, 1, j, order).mul_monomial(mono)

    report = verify_zcoeff_identity("circle-y", lhs, rhs, 4, order)
    assert report.passed, report.first_mismatch


def test_verify_reports_the_offending_z_power():
    rhs = Series({(0, ()): 1, (1, (("z", 1),)): 1}, 8)

    def lhs(k):
        return Series.one(8) if k == 0 else Series({(1, ()): 2}, 8)

    report = verify_zcoeff_identity("broken", lhs, rhs, (0, 1), 8)
    assert report.status == "mismatch"
    assert report.first_mismatch == {
        "exponents": {"q": 1, "z": 1}, "lhs": 2, "rhs": 1}


# --------------------------------------------------------------- main replay


def test_prove_main_theorem_small_order():
    proof = prove_main_theorem(order=16)
    assert isinstance(proof, MainProof)
    ct = proof.constant_term
    assert find_first_mismatch(ct, proof.paired_sum, 16) is None
    assert ct.coeff(0) == 1
    assert ct.coeff(1, {"x": 1, "y": 1}) == 1
    assert ct.coeff(1, {"x": -1, "y": -1}) == 1
    assert ct.coeff(1, {"x": -1}) == 0
    assert ct.coeff(1) == -1


def test_prove_main_refuses_a_stated_sum_unequal_to_the_paired_one(
        monkeypatch):
    """The paired form minus i still lowers, and agrees with the stated
    one at (0, 0); the exact spec comparison must refuse it."""
    tail = "binom(j - i, 2)"
    monkeypatch.setattr(ctengine, "PAIRED_SUM",
                        ctengine.PAIRED_SUM.replace(tail, tail + " - i"))
    with pytest.raises(ProofReplayError, match="^paired sum vs direct sum"):
        prove_main_theorem(order=4)
