"""Lattice-sum evaluation: support discovery, terms, and full sums.

The double-sum oracle below convolves partition-counting DP tables and
never touches the series kernel, so agreement is meaningful.
"""

import warnings

import pytest

from qident.qring import Monomial, Series
from qident.summation import (
    AffineForm,
    DenomFactor,
    DomainError,
    EnumerationCapped,
    NegativeValuationResidual,
    QuadForm,
    SupportReport,
    enumerate_support,
    eval_sum,
    eval_sum_scaled,
    make_sum_spec,
    term_series,
    term_valuation,
)

Q1 = Monomial(1, 1, ())
XQ = Monomial(1, 1, (("x", 1),))
YQ = Monomial(1, 1, (("y", 1),))


def parts_at_most(m, upto):
    """Partition counts using parts <= m (DP, independent of the kernel)."""
    c = [0] * (upto + 1)
    c[0] = 1
    for p in range(1, m + 1):
        for v in range(p, upto + 1):
            c[v] += c[v - p]
    return c


def oracle_double_sum(upto):
    """sum_{i,j>=0} q^{i^2-ij+j^2} / ((q;q)_i (q;q)_j), by brute force."""
    out = [0] * (upto + 1)
    for i in range(upto + 2):
        for j in range(upto + 2):
            shift = i * i - i * j + j * j
            if shift > upto:
                continue
            pi, pj = parts_at_most(i, upto), parts_at_most(j, upto)
            for a in range(upto + 1 - shift):
                for b in range(upto + 1 - shift - a):
                    out[shift + a + b] += pi[a] * pj[b]
    return out


def oracle_rr_sum(upto):
    """sum_n q^{n^2} / (q;q)_n by the same DP route."""
    out = [0] * (upto + 1)
    n = 0
    while n * n <= upto:
        pn = parts_at_most(n, upto)
        for a in range(upto + 1 - n * n):
            out[n * n + a] += pn[a]
        n += 1
    return out


# ------------------------------------------------------------ spec builders


def double_sum_spec(domains="NN"):
    i, j = AffineForm.index(0, 2), AffineForm.index(1, 2)
    quad = QuadForm.square(i) + QuadForm.square(j) + QuadForm.product(i, j).scale(-1)
    return make_sum_spec(2, domains, quad,
                         denoms=[DenomFactor(Q1, 1, i), DenomFactor(Q1, 1, j)])


def main_bilateral_spec():
    i, j = AffineForm.index(0, 2), AffineForm.index(1, 2)
    quad = QuadForm.square(i) + QuadForm.square(j) + QuadForm.product(i, j).scale(-1)
    return make_sum_spec(2, "ZZ", quad,
                         varweights={"x": (1, 0), "y": (0, 1)},
                         denoms=[DenomFactor(XQ, 1, i), DenomFactor(YQ, 1, j)])


def rr_spec(shift=0):
    # q^{n^2 + shift*n} / (q;q)_n over n >= 0
    n = AffineForm.index(0, 1)
    quad = QuadForm.square(n) + QuadForm.linear(n).scale(shift)
    return make_sum_spec(1, "N", quad, denoms=[DenomFactor(Q1, 1, n)])


def triple_sum_spec():
    i, j, k = (AffineForm.index(t, 3) for t in range(3))
    quad = (QuadForm.square(i) + QuadForm.square(j) + QuadForm.square(k)
            + QuadForm.product(i, k) + QuadForm.product(j, k))
    return make_sum_spec(3, "NNN", quad,
                         denoms=[DenomFactor(Q1, 1, f) for f in (i, j, k)])


def multi_sum_spec(ell):
    U = AffineForm.make([1 if (t == 0 or t >= 2) else 0 for t in range(ell)])
    V = AffineForm.make([1 if t >= 1 else 0 for t in range(ell)])
    quad = QuadForm.square(U) + QuadForm.square(V) + QuadForm.product(U, V).scale(-1)
    for s in range(3, ell):
        f = AffineForm.make([1 if (t == 0 or t >= s) else 0 for t in range(ell)])
        g = AffineForm.make([1 if (t == 1 or t >= s) else 0 for t in range(ell)])
        quad = quad + QuadForm.product(f, g)
    quad = quad + QuadForm.product(AffineForm.index(0, ell), AffineForm.index(1, ell))
    return make_sum_spec(ell, "N" * ell, quad,
                         denoms=[DenomFactor(Q1, 1, AffineForm.index(t, ell))
                                 for t in range(ell)])


# ------------------------------------------------------------------- forms


def test_quadratic_builders():
    n = AffineForm.index(0, 1)
    for k in range(-5, 6):
        assert QuadForm.binom2(n).evaluate((k,)) == k * (k - 1) // 2
        assert QuadForm.square(n.shift(1)).evaluate((k,)) == (k + 1) ** 2
    f = AffineForm.make([2, -1], 3)
    g = AffineForm.make([0, 1], -1)
    for p in ((0, 0), (2, 5), (-1, 4)):
        assert (QuadForm.product(f, g).evaluate(p)
                == f.evaluate(p) * g.evaluate(p))


def test_term_valuations_main():
    spec = main_bilateral_spec()
    assert term_valuation(spec, (0, 0)) == 0
    assert term_valuation(spec, (-1, 0)) == 1
    assert term_valuation(spec, (-24, -24)) == 24
    assert term_valuation(spec, (3, 2)) == 7


# ------------------------------------------------------------------ support


def test_support_main_at_order_one():
    report = enumerate_support(main_bilateral_spec(), 1)
    assert set(report.points) == {
        (0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    assert not report.capped


def test_support_unilateral_square():
    report = enumerate_support(rr_spec(), 4)
    assert report.points == ((0,), (1,), (2,))


def test_support_contains_origin():
    for spec in (rr_spec(), double_sum_spec(), main_bilateral_spec()):
        assert (0,) * spec.dim in enumerate_support(spec, 0).points


# -------------------------------------------------------------------- terms


def test_term_at_origin_is_one():
    t = term_series(main_bilateral_spec(), (0, 0), 6)
    assert t == Series.one(6)


def test_term_negative_index_laurent():
    t = term_series(main_bilateral_spec(), (-1, 0), 6)
    assert t == Series.poly({(1, (("x", -1),)): 1, (1, ()): -1})


def test_term_double_sum():
    t = term_series(double_sum_spec(), (2, 1), 4)
    assert t.qcoeffs(4) == [0, 0, 0, 1, 2]


def test_term_rejects_out_of_domain():
    with pytest.raises(DomainError):
        term_series(double_sum_spec(), (-1, 0), 4)


# --------------------------------------------------------------------- sums


def test_rr_sum_against_oracle():
    s = eval_sum(rr_spec(), 40)
    assert s.qcoeffs(6) == [1, 1, 1, 1, 2, 2, 3]
    assert s.qcoeffs(40) == oracle_rr_sum(40)


def test_double_sum_against_oracle():
    s = eval_sum(double_sum_spec(), 24)
    assert s.qcoeffs(4) == [1, 3, 4, 7, 13]
    assert s.qcoeffs(24) == oracle_double_sum(24)


def test_bilateral_collapse():
    # zero convention kills every point with a negative index
    assert eval_sum(double_sum_spec("ZZ"), 20) == eval_sum(double_sum_spec(), 20)


def test_main_sum_low_order_exact():
    s = eval_sum(main_bilateral_spec(), 1)
    assert s == Series.poly({
        (0, ()): 1,
        (1, ()): -1,
        (1, (("x", 1),)): 1,
        (1, (("y", 1),)): 1,
        (1, (("x", 1), ("y", 1))): 1,
        (1, (("x", -1), ("y", -1))): 1,
    })


def test_main_sum_symmetric_in_x_y():
    s = eval_sum(main_bilateral_spec(), 16)
    swapped = {(qe, tuple(sorted(({"x": "y", "y": "x"}[n], e)
                                 for n, e in vk))): c
               for (qe, vk), c in s.terms.items()}
    assert swapped == s.terms


def test_index_shifted_sums_agree():
    double = eval_sum(double_sum_spec(), 24)
    assert eval_sum(triple_sum_spec(), 24) == double
    double20 = double.truncate(20)
    assert eval_sum(multi_sum_spec(4), 20) == double20
    assert eval_sum(multi_sum_spec(5), 20) == double20


def test_andrews_product_to_sum_rows():
    # 1/((q;q)_i (q;q)_j) = sum_k q^{(i-k)(j-k)} / ((q;q)_k (q;q)_{i-k} (q;q)_{j-k})
    from qident.qfactorial import poch_recip_finite

    order = 24
    for i in range(7):
        for j in range(7):
            k = AffineForm.index(0, 1)
            quad = QuadForm.product(k.scale(-1).shift(i), k.scale(-1).shift(j))
            spec = make_sum_spec(1, "N", quad, denoms=[
                DenomFactor(Q1, 1, k),
                DenomFactor(Q1, 1, k.scale(-1).shift(i)),
                DenomFactor(Q1, 1, k.scale(-1).shift(j)),
            ])
            lhs = (poch_recip_finite(Q1, 1, i, order)
                   * poch_recip_finite(Q1, 1, j, order)).truncate(order)
            assert eval_sum(spec, order) == lhs, f"(i,j)=({i},{j})"


# ------------------------------------------------------------------- errors


def test_indefinite_bilateral_form_caps():
    n = AffineForm.index(0, 1)
    spec = make_sum_spec(1, "Z", QuadForm.square(n).scale(-1))
    with pytest.warns(UserWarning):
        with pytest.raises(EnumerationCapped) as exc:
            enumerate_support(spec, 2, shell_cap=10)
    assert exc.value.report.capped


def test_definite_form_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enumerate_support(main_bilateral_spec(), 4)


def test_negative_valuation_residual():
    n = AffineForm.index(0, 1)
    quad = QuadForm.binom2(n) + QuadForm.linear(n).scale(-1)  # (n^2-3n)/2
    spec = make_sum_spec(1, "N", quad)
    with pytest.raises(NegativeValuationResidual):
        eval_sum(spec, 8)


def test_fractional_exponents_need_scaled_eval():
    n = AffineForm.index(0, 1)
    spec = make_sum_spec(1, "N", QuadForm.square(n).scale("1/2"),
                         denoms=[DenomFactor(Q1, 1, n)])
    with pytest.raises(DomainError):
        eval_sum(spec, 4)
    s, d = eval_sum_scaled(spec, 4)
    assert d == 2
    # scaled base: q stands for q^(1/2), so n=1 contributes q^(2*1/2)=q^1
    assert s.coeff(1, ()) == 1
    assert s.coeff(0, ()) == 1


def test_support_report_shape():
    rep = enumerate_support(rr_spec(), 9)
    assert isinstance(rep, SupportReport)
    assert rep.points == ((0,), (1,), (2,), (3,))
    assert rep.shells_scanned >= 6