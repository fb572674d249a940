"""Laurent-in-z machinery: triple products, z-products, constant terms.

The classical single-variable expansions (Euler's two summations) serve
as oracles for the z-factor builders, and the per-z-power checks replay
textbook bilateral summations before `prove_main_theorem` chains them.
"""

import itertools

import pytest

from qident import ctengine, qfactorial, qring
from qident.catalog import get_identity
from qident.ctengine import (
    MainProof,
    ProofReplayError,
    ZFactor,
    ZSeries,
    binom2,
    expand_zfactors,
    jtp_zseries,
    prove_main_theorem,
    verify_zcoeff_identity,
    zmul,
)
from qident.qfactorial import (
    NotTruncatable,
    poch_finite,
    poch_infinite,
    poch_recip_finite,
)
from qident.qring import Monomial, QueryBeyondOrder, Series
from qident.report import find_first_mismatch

ONE = Monomial.unit()
Q1 = Monomial.q()
X = Monomial.var("x")
A = Monomial.var("a")


def sign(n):
    return -1 if n % 2 else 1


# ------------------------------------------------------- the triple product


def test_jtp_window_tracks_the_order():
    zs = jtp_zseries(ONE, 36)
    # binom(9,2) = binom(-8,2) = 36 sits exactly on the order.
    assert zs.window == (-8, 9)
    assert 10 not in zs.coeffs and -9 not in zs.coeffs


def test_jtp_order_zero_keeps_the_weightless_pair():
    zs = jtp_zseries(ONE, 0)
    assert set(zs.coeffs) == {0, 1}


def test_jtp_coefficients_are_exact_signed_monomials():
    zs = jtp_zseries(ONE, 40)
    for n in range(-8, 9):
        c = zs.coeffs[n]
        assert c.exact
        assert c.terms == {(binom2(n), ()): sign(n)}
    assert zs.extract(-1).terms == {(1, ()): -1}


def test_jtp_with_companion_variable():
    zs = jtp_zseries(X, 20)
    assert zs.coeffs[2].terms == {(1, (("x", 2),)): 1}
    assert zs.coeffs[-1].terms == {(1, (("x", -1),)): -1}
    assert zs.coeffs[3].terms == {(3, (("x", 3),)): -1}


def test_jtp_rejects_q_carrying_companions():
    with pytest.raises(NotTruncatable):
        jtp_zseries(Monomial.var("y", qexp=1), 10)


def test_jtp_reflection_swaps_companion_for_its_inverse():
    # Sending z -> q/z in the triple product with companion y lands on
    # the triple product with companion 1/y: coefficient of z^{-j} must
    # be (-1)^j y^j q^{binom(j+1,2)}.
    zs = jtp_zseries(Monomial.var("y", -1), 30)
    for j in range(-4, 5):
        expect = {(binom2(j + 1), (("y", j),) if j else ()): sign(j)}
        assert zs.coeffs[-j].terms == expect


# ------------------------------------------------------------ zmul / extract


def test_zmul_of_pure_powers_is_delta_orthogonal():
    f = ZSeries({2: Series.one(10)}, 10)
    g = ZSeries({-2: Series.one(10)}, 10)
    prod = zmul(f, g)
    assert set(prod.coeffs) == {0}
    assert prod.extract(0).coeff(0) == 1
    missing = prod.extract(5)
    assert missing.is_zero() and not missing.exact and missing.order == 10


def test_zmul_unit_is_identity():
    zs = jtp_zseries(X, 12)
    prod = zmul(ZSeries.unit(12), zs)
    assert prod.coeffs.keys() == zs.coeffs.keys()
    for k in zs.coeffs:
        assert find_first_mismatch(prod.coeffs[k], zs.coeffs[k], 12) is None


def test_zmul_downgrades_order_for_negative_valuations():
    laurent = ZSeries({0: Series.poly({(-3, ()): 1})}, 10)
    assert zmul(laurent, ZSeries.unit(10)).order == 7


def test_constant_term_of_paired_triple_products():
    pair = zmul(jtp_zseries(X, 24), jtp_zseries(Monomial.var("y", -1), 24))
    ct = pair.extract(0)
    # sum over i of (xy)^i q^{i^2}, for every i the paired windows admit
    assert ct.exact
    assert ct.terms == {(i * i, (("x", i), ("y", i)) if i else ()): 1
                        for i in range(-6, 7)}


# --------------------------------------------------------- z-factor builders


def test_binomial_factor_matches_the_alternating_euler_sum():
    # (z;q)_inf = sum_j (-1)^j q^{binom(j,2)} z^j / (q;q)_j
    zs = expand_zfactors([ZFactor(ONE)], 12)
    for j in range(5):
        expect = poch_recip_finite(Q1, 1, j, 12).mul_monomial(
            Monomial(sign(j), binom2(j), ()))
        assert find_first_mismatch(zs.extract(j), expect, 12) is None
    assert zs.extract(-1).is_zero()


def test_geometric_factor_matches_the_plain_euler_sum():
    # 1/(qz;q)_inf = sum_j q^j z^j / (q;q)_j
    zs = expand_zfactors([ZFactor(Q1, expo=-1)], 12)
    for j in range(5):
        expect = poch_recip_finite(Q1, 1, j, 12).mul_monomial(Monomial(1, j, ()))
        assert find_first_mismatch(zs.extract(j), expect, 12) is None


def _product_with_formal_z(f: ZFactor, order: int, top: int) -> Series:
    """(mon z^e; q^b)_inf^expo to `order`, with z an ordinary variable.

    Every binomial 1 - mon q^(bk) z^e at q-weight <= order is multiplied
    out (a later one is 1 to this order) and the product inverted for a
    reciprocal.  An open reciprocal's q-free k = 0 binomial cannot be
    inverted in q, so its geometric series is taken up to z^(e*top).
    """
    z = Monomial.var("z", f.zexp)
    prod = Series.one()
    k = 1 if f.is_open else 0
    while f.mon.qexp + f.basepow * k <= order:
        arg = f.mon * Monomial.q(f.basepow * k) * z
        prod = prod * Series.poly({(0, ()): 1, arg.key(): -arg.coeff})
        k += 1
    if f.expo == 1:
        return prod.truncate(order)
    prod = prod.invert(order)
    if f.is_open:
        powers = [(f.mon * z) ** t for t in range(top + 1)]
        prod = prod * Series.poly({m.key(): m.coeff for m in powers})
    return prod


def _by_z_power(s: Series) -> dict[int, dict]:
    out: dict[int, dict] = {}
    for (qe, vk), c in s.terms.items():
        rest = tuple((n, e) for n, e in vk if n != "z")
        out.setdefault(dict(vk).get("z", 0), {})[(qe, rest)] = c
    return out


_SHAPES = [
    ZFactor(Monomial(c, w, var), zexp, b, expo)
    for expo, zexp, b, c, var, w in itertools.product(
        (1, -1), (1, -1, 2, -2), (1, 2, 3), (1, -1), ((), (("x", 1),)),
        (0, 1, 2))]


@pytest.mark.parametrize("order", [0, 1, 12])
def test_euler_expansion_matches_the_formal_z_product(order):
    """Every factor shape, closed or open, against the product expanded
    with z as a formal variable and regrouped by z-power."""
    window = (-5, 5)
    for f in _SHAPES:
        zs = expand_zfactors([f], order, window if f.is_open else None)
        want = _by_z_power(_product_with_formal_z(f, order, 5))
        assert zs.order == order
        if f.is_open:
            assert zs.bounds == window
            got = {k: zs.extract(k).terms for k in range(-5, 6)}
            want = {k: want.get(k, {}) for k in range(-5, 6)}
        else:
            got = {k: s.terms for k, s in zs.coeffs.items()}
            for s in zs.coeffs.values():
                assert s.order == order and not s.exact
        assert got == want, f


def test_zfactor_expansion_convolution_count(monkeypatch):
    """Euler's closed forms leave the coefficient products of zmul and
    the 1/(q^b; q^b)_n pieces as the only convolutions, each piece one
    binomial longer than the cached one before it: the m = 1 product side
    of the 1psi1 sum at order 16 needs 516 from cold caches."""
    qfactorial._RUNS.clear()
    calls = []
    real = qring._convolve
    monkeypatch.setattr(qring, "_convolve",
                        lambda *a: calls.append(1) or real(*a))
    ident = get_identity("ramanujan-1psi1", m=1)
    expand_zfactors(ident.lowered.rhs.zfactors, 16, ident.zwindow)
    assert len(calls) <= 600


def test_negative_q_weight_arguments_are_refused():
    with pytest.raises(NotTruncatable):
        expand_zfactors([ZFactor(Monomial.q(-1))], 8)
    with pytest.raises(NotTruncatable):
        expand_zfactors([ZFactor(Monomial.q(-2), expo=-1)], 8)


def test_open_factor_needs_an_explicit_window():
    factors = [ZFactor(ONE, expo=-1)]
    with pytest.raises(NotTruncatable):
        expand_zfactors(factors, 8)
    zs = expand_zfactors(factors, 8, zwindow=(-2, 5))
    # Euler: [z^k] of 1/(z;q)_inf is 1/(q;q)_k
    for k in range(4):
        assert find_first_mismatch(zs.extract(k),
                                   poch_recip_finite(Q1, 1, k, 8), 8) is None
    assert zs.extract(-2).is_zero()
    with pytest.raises(QueryBeyondOrder):
        zs.extract(7)


def test_two_open_factors_are_refused():
    with pytest.raises(NotTruncatable):
        expand_zfactors([ZFactor(ONE, expo=-1), ZFactor(A, expo=-1)], 8,
                        zwindow=3)


def test_clipped_series_refuse_multiplication():
    clipped = expand_zfactors([ZFactor(ONE, expo=-1)], 8, zwindow=3)
    with pytest.raises(NotTruncatable):
        zmul(clipped, ZSeries.unit(8))


def test_scale_series_tracks_negative_valuation():
    zs = ZSeries.unit(10).scale_series(Series.poly({(-2, ()): 1}))
    assert zs.order == 8


# ------------------------------------------------- classical per-z identities


def test_q_binomial_theorem_per_z_power():
    # (az;q)_inf / (z;q)_inf has [z^k] = (a;q)_k / (q;q)_k
    rhs = expand_zfactors([ZFactor(A), ZFactor(ONE, expo=-1)], 16,
                          zwindow=(0, 6))

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
                expand_zfactors([ZFactor(b, zexp=-1, expo=-1)], order))
    rhs = core.scale_series(poch_infinite(b, 1, order).invert(order))

    def lhs(k):
        return poch_recip_finite(b, 1, k, order).mul_monomial(
            Monomial(sign(k), binom2(k), ()))

    report = verify_zcoeff_identity("bilateral-euler", lhs, rhs, 3, order)
    assert report.passed, report.first_mismatch
    # the constant term collapses to bare 1, and the sum is genuinely
    # bilateral: k = -1 survives while k <= -2 vanishes
    assert find_first_mismatch(rhs.extract(0), Series.one(), order) is None
    assert rhs.extract(-1).coeff(1) == -1
    assert lhs(-2).is_zero()


def test_first_circle_sum_per_z_power():
    # sum_i (-xz)^i q^{binom(i,2)} / (xq;q)_i
    #   = (q, xz, q/(xz); q)_inf / ((xq;q)_inf (q/z;q)_inf)
    order = 12
    xq = Monomial.var("x", qexp=1)
    core = expand_zfactors(
        [ZFactor(X), ZFactor(X.inverse() * Q1, zexp=-1),
         ZFactor(Q1, zexp=-1, expo=-1)], order)
    scale = poch_infinite(Q1, 1, order) * poch_infinite(xq, 1, order).invert(order)
    rhs = core.scale_series(scale)

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
    core = expand_zfactors(
        [ZFactor(yq, zexp=-1), ZFactor(Monomial.var("y", -1)),
         ZFactor(ONE, expo=-1)], order, zwindow=4)
    scale = poch_infinite(Q1, 1, order) * poch_infinite(yq, 1, order).invert(order)
    rhs = core.scale_series(scale)

    def lhs(k):
        j = -k
        mono = Monomial(sign(j), binom2(j + 1), (("y", j),) if j else ())
        return poch_recip_finite(yq, 1, j, order).mul_monomial(mono)

    report = verify_zcoeff_identity("circle-y", lhs, rhs, 4, order)
    assert report.passed, report.first_mismatch


def test_verify_reports_the_offending_z_power():
    rhs = ZSeries({0: Series.one(8), 1: Series.from_monomial(Q1)}, 8)

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
