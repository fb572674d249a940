"""Lattice-sum evaluation: support discovery, terms, and full sums.

The double-sum oracle below convolves partition-counting DP tables and
never touches the series kernel, so agreement is meaningful.
"""

import warnings
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_assembly import reference

from qident import qfactorial, qring, summation
from qident.catalog import default_instances, get_identity
from qident.qfactorial import ZeroDivisor
from qident.qring import Monomial, NotInvertible, Series
from qident.summation import (
    AffineForm,
    DenomFactor,
    DomainError,
    NegativeValuationResidual,
    QuadForm,
    SumSpec,
    SupportReport,
    UnboundedSupport,
    _IntForm,
    _ldl_forms,
    _recip_offset,
    certify_support,
    enumerate_support,
    eval_sum,
    eval_sum_over,
    eval_sum_scaled,
    make_sum_spec,
    rescale_sum,
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


DENOM_ARGS = [Monomial(c, w, vk) for c in (1, -1, 2) for w in range(-3, 4)
              for vk in ((), (("x", 1),))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from("NZ"), st.integers(0, 2), st.integers(-2, 2),
       st.lists(st.tuples(st.sampled_from(DENOM_ARGS), st.integers(1, 2),
                          st.sampled_from([1, -1]), st.integers(-2, 2)),
                min_size=1, max_size=2),
       st.integers(-4, 4))
def test_term_valuation_bounds_the_term_from_below(domain, a, b, dens, n):
    """term_valuation is at most the valuation of the term, and equal to
    it when every denominator's argument has q-weight >= 0: 1/(q^-3; q)_n
    is q^3 / (q^3; q)_1 at n = 1, above the bound 0 of its subscript.  A
    point whose term has no series (a binomial of q-weight 0 with no
    inverse in a reciprocal) is skipped; one where a factor vanishes has
    the zero term."""
    n = abs(n) if domain == "N" else n
    idx = AffineForm.index(0, 1)
    spec = make_sum_spec(
        1, domain, QuadForm.square(idx).scale(a) + QuadForm.linear(
            idx.scale(b)),
        denoms=[DenomFactor(arg, base, idx.scale(s).shift(c))
                for arg, base, s, c in dens])
    bound = term_valuation(spec, (n,))
    try:
        term = term_series(spec, (n,), max(int(bound or 0), 0) + 40)
    except qring.QSeriesError:
        return
    if bound is None:
        assert term.is_zero()
        return
    assert bound <= term.valuation
    if all(arg.qexp >= 0 for arg, *_ in dens):
        assert bound == term.valuation


def test_term_valuation_leaves_out_reflected_binomials():
    """1/(q^-3; q)_n at n = 1 and 2: the bound is n^2, the valuations
    n^2 + 3 and n^2 + 5."""
    n = AffineForm.index(0, 1)
    spec = make_sum_spec(1, "N", QuadForm.square(n),
                         denoms=[DenomFactor(Monomial.q(-3), 1, n)])
    for point, bound, exact in (((1,), 1, 4), ((2,), 4, 9)):
        assert term_valuation(spec, point) == bound
        assert term_series(spec, point, 20).valuation == exact


# ------------------------------------------------------------------ support


def test_support_main_at_order_one():
    report = enumerate_support(main_bilateral_spec(), 1)
    assert set(report.points) == {
        (0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    assert report.shells_scanned == 3


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


def test_indefinite_bilateral_form_is_refused():
    n = AffineForm.index(0, 1)
    spec = make_sum_spec(1, "Z", QuadForm.square(n).scale(-1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnboundedSupport) as exc:
            enumerate_support(spec, 2)
    assert str(exc.value) == ("bilateral sum with an indefinite quadratic "
                              "part cannot be enumerated soundly")


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


def point_base_scale(quad: QuadForm) -> int:
    """The least d with d*Q integral on the lattice, from Q at 0, e_i,
    2e_i and e_i + e_j (the definition `SumSpec.base_scale` replaced)."""
    dim = quad.dim
    unit = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    points = [(0,) * dim] + unit + [tuple(a + b for a, b in zip(u, v))
                                    for i, u in enumerate(unit)
                                    for v in unit[i:]]
    return lcm(*(quad.evaluate(p).denominator for p in points))


RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def rational_quadforms(draw):
    dim = draw(st.integers(1, 4))
    upper = {(i, j): draw(RATIONALS) for i in range(dim) for j in range(i, dim)}
    A = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(dim))
              for i in range(dim))
    B = tuple(draw(RATIONALS) for _ in range(dim))
    return QuadForm(A, B, draw(RATIONALS))


@settings(max_examples=500, deadline=None)
@given(rational_quadforms())
def test_base_scale_is_the_point_evaluation_scale(quad):
    spec = make_sum_spec(quad.dim, "Z" * quad.dim, quad)
    assert spec.base_scale() == point_base_scale(quad)


def test_lowering_the_catalog_evaluates_no_quadratic_form(monkeypatch):
    """The base scale comes from the entries of Q in closed form, and
    the support plans from its scaled integers: lowering every default
    instance evaluates Q at no point."""
    def evaluate(self, point):
        raise AssertionError(f"QuadForm.evaluate{point} while lowering")

    monkeypatch.setattr(QuadForm, "evaluate", evaluate)
    for key, params in default_instances():
        get_identity(key, **params)


def test_rescale_keeps_numerator_factors():
    """q -> q^2 doubles the q-exponent and base of every factor, the
    numerators' as well as the denominators'."""
    n = AffineForm.index(0, 1)
    spec = make_sum_spec(1, "N", QuadForm.square(n).scale("1/2"),
                         denoms=[DenomFactor(Q1, 1, n)],
                         numers=[DenomFactor(XQ, 1, n)])
    scaled = rescale_sum(spec, 2)
    assert scaled.quad == QuadForm.square(n)
    assert scaled.denoms == (DenomFactor(Monomial(1, 2, ()), 2, n),)
    assert scaled.numers == (DenomFactor(Monomial(1, 2, (("x", 1),)), 2, n),)


def test_support_report_shape():
    rep = enumerate_support(rr_spec(), 9)
    assert isinstance(rep, SupportReport)
    assert rep.points == ((0,), (1,), (2,), (3,))
    assert rep.shells_scanned == 4


# ------------------------------------------------------------ certificates


def test_skewed_form_keeps_its_far_points():
    # 50 (i - 3j)^2 + j^2 is small only near the line i = 3j; the points
    # (+-9, +-3) lie past shells that hold nothing
    i, j = AffineForm.index(0, 2), AffineForm.index(1, 2)
    spec = make_sum_spec(
        2, "ZZ",
        QuadForm.square(i - j.scale(3)).scale(50) + QuadForm.square(j))
    assert enumerate_support(spec, 12).points == (
        (-9, -3), (-6, -2), (-3, -1), (0, 0), (3, 1), (6, 2), (9, 3))
    assert eval_sum(spec, 12).qcoeffs(12) == [
        1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0]


def test_far_vertex_is_reached():
    # q^((n-i)(n-j)) / ((q;q)_n (q;q)_(i-n) (q;q)_(j-n)) at i = j = 400:
    # the valuation is (n - 400)^2, so the support sits at the far end
    n = AffineForm.index(0, 1)
    far = n.scale(-1).shift(400)
    spec = make_sum_spec(1, "N", QuadForm.square(far), denoms=[
        DenomFactor(Q1, 1, n), DenomFactor(Q1, 1, far),
        DenomFactor(Q1, 1, far)])
    report = enumerate_support(spec, 10)
    assert report.points == ((397,), (398,), (399,), (400,))
    assert report.shells_scanned == 401


def test_semidefinite_regions_are_certified():
    # main's (-,-) region is (i-j)^2/2 - (i+j)/2 at best, and
    # cor_multi_ell5 has two equal rows: both enumerate, exactly
    main = main_bilateral_spec()
    assert len(certify_support(main)) == 4
    assert enumerate_support(main, 3).points == tuple(sorted(
        p for p in product(range(-5, 6), repeat=2)
        if (v := term_valuation(main, p)) is not None and v <= 3))
    ell5 = multi_sum_spec(5)
    assert enumerate_support(ell5, 6).points == tuple(sorted(
        p for p in product(range(4), repeat=5)
        if term_valuation(ell5, p) <= 6))
    # (i + j)^2 + k^2 - 5k over N^3 is semidefinite too; fixing i must
    # allow for k^2 - 5k dipping to -6, which puts (2, 0, 2) in the support
    i, j, k = (AffineForm.index(t, 3) for t in range(3))
    dip = make_sum_spec(3, "NNN", QuadForm.square(i + j) + QuadForm.square(k)
                        + QuadForm.linear(k).scale(-5))
    support = enumerate_support(dip, 0).points
    assert support == tuple(sorted(
        p for p in product(range(8), repeat=3) if term_valuation(dip, p) <= 0))
    assert (2, 0, 2) in support


def test_a_form_with_int_entries_is_certified_in_exact_rationals():
    """The LDL^T pivots are Fractions whatever rationals Q holds: a
    QuadForm written with int entries got float entries from `/` and
    failed in `_scaled`."""
    ints = QuadForm(((2, 1), (1, 2)), (0, 0), 0)
    fracs = QuadForm(tuple(tuple(map(Fraction, row)) for row in ints.A),
                     tuple(map(Fraction, ints.B)), Fraction(ints.C))
    assert not [x for A, B, C in _ldl_forms(ints)
                for x in (*(x for row in A for x in row), *B, C)
                if type(x) not in (int, Fraction)]
    assert (enumerate_support(make_sum_spec(2, "ZZ", ints), 10)
            == enumerate_support(make_sum_spec(2, "ZZ", fracs), 10))


def test_pieces_outside_the_domain_are_dropped():
    # on N^2, (xq;q)_j never has a negative subscript; the region where it
    # would, i^2 with j free, has no certificate
    i, j = AffineForm.index(0, 2), AffineForm.index(1, 2)
    spec = make_sum_spec(
        2, "NN", QuadForm.square(i) + QuadForm.binom2(j.shift(1)),
        denoms=[DenomFactor(XQ, 1, j)])
    assert len(certify_support(spec)) == 1
    assert enumerate_support(spec, 3).points == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1))


def test_region_with_growing_dip_is_refused():
    # 1/(q; q^3)_n at n = -m has valuation -3m(m+1)/2 + m, beating n^2
    n = AffineForm.index(0, 1)
    spec = make_sum_spec(1, "Z", QuadForm.square(n),
                         denoms=[DenomFactor(Q1, 3, n)])
    with pytest.raises(UnboundedSupport) as exc:
        enumerate_support(spec, 6)
    assert "region n0 <= -1" in str(exc.value)
    assert term_valuation(spec, (-4,)) == 16 - 26


@st.composite
def definite_sums(draw):
    """Sums with A = L^T L + 2I over N or Z, with or without (q;q)_(n_i)
    or (xq;q)_(n_i) denominators, and the radius outside which every term
    has valuation > order."""
    dim = draw(st.integers(1, 3))
    ints = st.integers(-2, 2)
    L = [[draw(ints) for _ in range(dim)] for _ in range(dim)]
    A = [[sum(L[k][i] * L[k][j] for k in range(dim)) + 2 * (i == j)
          for j in range(dim)] for i in range(dim)]
    B = [Fraction(draw(st.integers(-4, 4)), 2) for _ in range(dim)]
    C = draw(st.integers(-2, 2))
    quad = QuadForm(tuple(tuple(Fraction(a) for a in row) for row in A),
                    tuple(B), Fraction(C))
    domains = "".join(draw(st.sampled_from("NZ")) for _ in range(dim))
    args = [None, Q1, Monomial(1, 1, (("x", 1),))]
    denoms = [DenomFactor(arg, 1, AffineForm.index(i, dim))
              for i in range(dim) if (arg := draw(st.sampled_from(args)))]
    spec = make_sum_spec(dim, domains, quad, denoms=denoms)
    order = draw(st.integers(0, 6))
    # n.A.n/2 >= |n|^2 and each dip is >= -(n_i^2 + |n_i|)/2, so
    # val >= sum_i (n_i^2/2 - c |n_i|) + C with c = 1/2 + max |B_i|, and
    # a point with some |n_i| = t >= R has val > order when
    # R^2/2 - c R - (dim - 1) c^2/2 + C > order and R >= c
    c = Fraction(1, 2) + max(abs(b) for b in B)
    R = int(c) + 1
    while R * R / 2 - c * R - (dim - 1) * c * c / 2 + C <= order:
        R += 1
    return spec, order, R


@settings(max_examples=60, deadline=None)
@given(definite_sums())
def test_support_matches_brute_force_box(case):
    spec, order, R = case
    box = [range(0, R) if d == "N" else range(1 - R, R) for d in spec.domains]
    want = tuple(sorted(
        p for p in product(*box)
        if (v := term_valuation(spec, p)) is not None and v <= order))
    report = enumerate_support(spec, order)
    assert report.points == want
    assert all(max(map(abs, p)) < report.shells_scanned for p in want)


# ------------------------------------------------------ per-point checks
#
# A point is checked in a fixed order: arity and domain, then the
# exponent, then the sign exponent, then the subscripts.  The messages
# reach the JSON `error` records, so their text is pinned.

N0 = AffineForm.index(0, 1)
HALF = Fraction(1, 2)


def one_index(domain="N", quad=None, sign=None, count=None):
    return make_sum_spec(
        1, domain, QuadForm.square(N0) if quad is None else quad,
        signform=sign, denoms=[DenomFactor(Q1, 1, count)] if count else ())


# (spec, point, message, what term_valuation gives when it does not
# raise: it reads neither the sign nor the integrality of Q)
POINT_CASES = {
    "exponent": (one_index(quad=QuadForm.square(N0).scale(HALF)), (1,),
                 "exponent 1/2 at (1,) is not an integer; rescale the base "
                 "first", HALF),
    "subscript": (one_index(count=N0.scale(HALF)), (1,),
                  "subscript evaluates to non-integer 1/2 at (1,)", None),
    "negative-subscript": (one_index("Z", count=N0.scale(HALF)), (-3,),
                           "subscript evaluates to non-integer -3/2 at (-3,)",
                           None),
    "sign": (one_index(sign=N0.scale(HALF)), (1,),
             "sign exponent evaluates to non-integer 1/2 at (1,)", 1),
    "domain": (one_index(), (-1,), "point (-1,) leaves the declared domain",
               None),
    "arity": (one_index(), (1, 2), "point (1, 2) has arity 2, spec wants 1",
              None),
    "float": (one_index(), (1.5,),
              "point (1.5,) has a non-integer coordinate 1.5", None),
    "integral-float": (one_index(), (2.0,),
                       "point (2.0,) has a non-integer coordinate 2.0", None),
    "string": (one_index(), ("1",),
               "point ('1',) has a non-integer coordinate '1'", None),
}


@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_per_point_error_messages(case):
    spec, point, message, valuation = POINT_CASES[case]
    with pytest.raises(DomainError) as exc:
        term_series(spec, point, 6)
    assert str(exc.value) == message
    with pytest.raises(DomainError) as exc:
        eval_sum_over(spec, [(0,), point], 6)
    assert str(exc.value) == message
    if valuation is None:
        with pytest.raises(DomainError) as exc:
            term_valuation(spec, point)
        assert str(exc.value) == message
    else:
        assert term_valuation(spec, point) == valuation


def test_per_point_checks_come_in_order():
    def assert_message(spec, point, text):
        with pytest.raises(DomainError, match=f"^{text}"):
            term_series(spec, point, 4)

    everything = one_index("Z", QuadForm.square(N0).scale(HALF),
                           N0.scale(HALF), N0.scale(HALF))
    assert_message(one_index("N", QuadForm.square(N0).scale(HALF)), (-1,),
                   "point")
    assert_message(everything, (1,), "exponent")
    assert_message(one_index("Z", None, N0.scale(HALF), N0.scale(HALF)),
                   (1,), "sign exponent")
    # term_valuation reads the subscripts only
    with pytest.raises(DomainError, match="^subscript"):
        term_valuation(everything, (1,))


# At a point every factor is reflected first, so that a ZeroDivisor
# raises even beside a zero factor; a zero factor then drops the point,
# and only then does the first factor with no inverse raise.


def test_a_zero_numerator_drops_a_point_whose_denominator_has_no_inverse():
    """At n = 2 the numerator (q^-1; q)_n holds 1 - 1 and the denominator
    (-1; q)_n divides by 1 - (-1) = 2: the term is zero.  At n = 1 the
    numerator is not zero, and the point is refused."""
    spec = make_sum_spec(1, "N", QuadForm.square(N0),
                         denoms=[DenomFactor(Monomial(-1, 0), 1, N0)],
                         numers=[DenomFactor(Monomial.q(-1), 1, N0)])
    assert term_series(spec, (2,), 6).is_zero()
    assert eval_sum_over(spec, [(2,), (2,)], 6).is_zero()
    for points in ([(1,)], [(2,), (1,)]):
        with pytest.raises(NotInvertible,
                           match="^leading coefficient 2 is not a unit$"):
            eval_sum_over(spec, points, 6)


def test_a_vanishing_denominator_beside_a_zero_factor_raises():
    """At n = 2, 1/(q; q)_(n-3) = 1 - 1 is zero, and 1/(q^-1; q)_n divides
    by 1 - 1; a numerator (q^-1; q)_n, zero there too, changes nothing."""
    zero = DenomFactor(Q1, 1, N0.shift(-3))
    infinite = DenomFactor(Monomial.q(-1), 1, N0)
    for numers in ((), (infinite,)):
        spec = make_sum_spec(1, "N", QuadForm.square(N0),
                             denoms=[zero, infinite], numers=numers)
        for points in ([(2,)], [(1,), (2,)]):
            with pytest.raises(ZeroDivisor):
                eval_sum_over(spec, points, 6)


def test_the_first_factor_with_no_inverse_is_the_one_refused():
    texts = {Monomial(-1, 0): "leading coefficient 2 is not a unit",
             Monomial.var("x"): "lowest q-level (q^0) holds 2 monomials; "
                                "need a single unit monomial"}
    for first, second in (list(texts), list(texts)[::-1]):
        spec = make_sum_spec(1, "N", QuadForm.square(N0), denoms=[
            DenomFactor(first, 1, N0), DenomFactor(second, 1, N0)])
        for run in (lambda: term_series(spec, (1,), 6),
                    lambda: eval_sum_over(spec, [(0,), (1,)], 6)):
            with pytest.raises(NotInvertible) as refused:
                run()
            assert str(refused.value) == texts[first]


@pytest.mark.parametrize("weights,text", [
    ((("q", (1,)),), "bad formal variable name 'q'"),
    ((("", (1,)),), "bad formal variable name ''"),
    ((("x", (1,)), ("x", (2,))), "duplicate variable in monomial"),
])
def test_weight_names_are_refused_as_a_monomial_refuses_them(weights, text):
    spec = SumSpec(1, ("N",), QuadForm.square(N0), varweights=weights)
    for run in (lambda: term_series(spec, (1,), 6),
                lambda: eval_sum_over(spec, [(1,)], 6)):
        with pytest.raises(ValueError) as refused:
            run()
        assert str(refused.value) == text


def test_sums_make_no_per_point_fraction_evaluation(monkeypatch):
    """Support enumeration and summation read every point through the
    spec's compiled integer forms, never through the Fraction forms."""
    def sides():
        return [get_identity("main").lowered.lhs,
                get_identity("cor-multi", ell=5).lowered.lhs]

    def run(spec):
        support = enumerate_support(spec, 16)
        return support, eval_sum_over(spec, support.points, 16)

    want = [run(spec) for spec in sides()]
    fresh = sides()

    def refuse(*args):
        raise AssertionError("a point was evaluated in Fractions")

    monkeypatch.setattr(QuadForm, "evaluate", refuse)
    monkeypatch.setattr(AffineForm, "evaluate", refuse)
    assert [run(spec) for spec in fresh] == want
    assert [len(support.points) for support, _ in want] == [157, 69]


# The Fraction reference: a point evaluated form by form, as the spec
# states it.

def reference_int(form, point, what):
    v = form.evaluate(point)
    if v.denominator != 1:
        raise DomainError(f"{what} evaluates to non-integer {v} at {point}")
    return int(v)


def reference_lead(spec, point):
    if len(point) != spec.dim:
        raise DomainError(f"point {point} has arity {len(point)}, "
                          f"spec wants {spec.dim}")
    if any(d == "N" and p < 0 for p, d in zip(point, spec.domains)):
        raise DomainError(f"point {point} leaves the declared domain")
    q = spec.quad.evaluate(point)
    if q.denominator != 1:
        raise DomainError(f"exponent {q} at {point} is not an integer; "
                          "rescale the base first")
    odd = (spec.signform is not None
           and reference_int(spec.signform, point, "sign exponent") % 2)
    return Monomial(-1 if odd else 1, int(q), [
        (name, sum(wi * pi for wi, pi in zip(w, point)))
        for name, w in spec.varweights])


def reference_valuation(spec, point):
    v = spec.quad.evaluate(point)
    for f in spec.denoms:
        off = _recip_offset(f.arg, f.basepow,
                            reference_int(f.count, point, "subscript"))
        if off is None:
            return None
        v += off
    return v


def outcome(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


@st.composite
def scaled_points(draw):
    """A spec of 1-4 indices with a point in the box [-4, 4]^dim.  Each
    form is an integer form over a denominator 1-6, so it takes integer
    values at about 1 in d points."""
    dim = draw(st.integers(1, 4))
    ints = st.integers(-7, 7)

    def over():
        return Fraction(1, draw(st.integers(1, 6)))

    upper = {(i, j): draw(ints) for i in range(dim) for j in range(i, dim)}
    quad = QuadForm(
        tuple(tuple(Fraction(upper[min(i, j), max(i, j)]) for j in range(dim))
              for i in range(dim)),
        tuple(Fraction(draw(ints)) for _ in range(dim)),
        Fraction(draw(ints))).scale(over())

    def form():
        return AffineForm.make([draw(ints) for _ in range(dim)],
                               draw(ints)).scale(over())

    def factors(most):
        return [DenomFactor(draw(st.sampled_from((Q1, XQ, Monomial(1, 3, ())))),
                            draw(st.integers(1, 3)), form())
                for _ in range(draw(st.integers(0, most)))]

    spec = make_sum_spec(
        dim, "".join(draw(st.sampled_from("NZZ")) for _ in range(dim)), quad,
        signform=form() if draw(st.booleans()) else None,
        varweights={name: tuple(draw(st.integers(-3, 3)) for _ in range(dim))
                    for name in draw(st.sets(st.sampled_from("xy")))},
        denoms=factors(3), numers=factors(1))
    return spec, tuple(draw(st.integers(-4, 4)) for _ in range(dim))


@settings(max_examples=300, deadline=None)
@given(scaled_points())
def test_compiled_forms_match_the_fraction_reference(case):
    spec, point = case
    kernel = spec.compiled
    assert Fraction(kernel.exponent(point), kernel.S) == spec.quad.evaluate(point)
    for f in spec.denoms + spec.numers:
        assert (outcome(_IntForm.of(f.count).at, point, "subscript")
                == outcome(reference_int, f.count, point, "subscript"))
    assert outcome(kernel.lead, point) == outcome(reference_lead, spec, point)
    assert outcome(kernel.subscripts, point) == outcome(
        lambda: [reference_int(f.count, point, "subscript")
                 for f in spec.denoms + spec.numers])
    if all(d == "Z" or p >= 0 for p, d in zip(point, spec.domains)):
        assert (outcome(term_valuation, spec, point)
                == outcome(reference_valuation, spec, point))


def test_a_sum_needs_integral_subscript_forms():
    # a point of such a sum may still be evaluated alone (see above)
    with pytest.raises(DomainError, match="is not integer-valued$"):
        enumerate_support(one_index(count=N0.scale(HALF)), 4)


# ------------------------------------------------------------ chain walk
#
# Every sum is one chain walk: Horner's rule along each index's run
# prefixes, one binomial step per change of subscript, with no run
# product.


def term_by_term(spec: SumSpec, order: int) -> dict:
    """The terms of `spec` below the order, each point's term multiplied
    out and inverted apart by `test_assembly.reference`, which shares no
    code with the chain walk, and the terms added one after another."""
    kernel = spec.compiled
    acc: dict = {}
    for point in enumerate_support(spec, order).points:
        for k, c in reference(
                kernel.lead(point),
                [(f.arg, f.basepow, n, -1)
                 for f, n in zip(spec.denoms, kernel.subscripts(point))],
                order).items():
            acc[k] = acc.get(k, 0) + c
    return {k: c for k, c in acc.items() if c}


@pytest.mark.parametrize("key,order", [("main", 24), ("cor-triple", 40)])
def test_the_chain_walk_multiplies_no_series_and_caches_no_run(
        monkeypatch, key, order):
    """`main` (x, y) and `cor-triple` (pure q, three indices): every step
    is a sweep, a recurrence or a keyed dict step."""
    calls = []
    real = qring._convolve
    monkeypatch.setattr(qring, "_convolve",
                        lambda *a: calls.append(1) or real(*a))
    spec = get_identity(key).lowered.lhs
    got = eval_sum_over(spec, enumerate_support(spec, order).points, order)
    assert got.coeff(0) == 1 and got.order == order
    assert calls == []


def test_the_factor_free_theta_sum_holds_no_dense_row(monkeypatch):
    """sum over Z of q^(n^2) at order 10^5: 633 points, 317 terms, stay
    in a dict, never a row of 10^5 fields."""
    rows = []
    real = qfactorial._Stepper.row
    monkeypatch.setattr(qfactorial._Stepper, "row",
                        lambda self, acc: rows.append(1) or real(self, acc))
    n = AffineForm.index(0, 1)
    theta = eval_sum(make_sum_spec(1, "Z", QuadForm.square(n)), 100000)
    assert len(theta.terms) == 317 and theta.coeff(99856) == 2
    assert rows == []


def test_a_sum_with_two_runs_on_its_last_index_matches_its_terms():
    """i^2 + binom(j+1, 2) over 1/((q^2; q)_(i+j) (q^6; q^3)_j) at order
    600: the last index steps both runs, where a product per point of the
    two took 3.6 s."""
    i, j = AffineForm.index(0, 2), AffineForm.index(1, 2)
    spec = make_sum_spec(
        2, "NN", QuadForm.square(i) + QuadForm.binom2(j.shift(1)),
        denoms=[DenomFactor(Monomial.q(2), 1, i + j),
                DenomFactor(Monomial.q(6), 3, j)])
    assert eval_sum(spec, 600).terms == term_by_term(spec, 600)


def test_a_step_with_no_inverse_splits_the_chain(monkeypatch):
    """q^(n^2) / ((-q; q)_(n-1) (q; q)_n) over N: the kids n = 0 and 1
    both have one binomial, and from n = 0 the step to n = 1 would divide
    by 1 - (-1) = 2, so each side of that step has its own anchor."""
    n = AffineForm.index(0, 1)
    spec = make_sum_spec(1, "N", QuadForm.square(n), denoms=[
        DenomFactor(Monomial(-1, 1), 1, n.shift(-1)),
        DenomFactor(Monomial.q(), 1, n)])
    segments = []
    real = qfactorial._Chains.segments
    monkeypatch.setattr(qfactorial._Chains, "segments",
                        lambda *a: segments.append(real(*a)) or segments[-1])
    assert eval_sum(spec, 60).terms == term_by_term(spec, 60)
    assert sorted(segments[0]) == [(0, 0, 0), (1, 1, 7)]


@pytest.mark.parametrize("key", ["main", "cor-triple"])
def test_a_sum_in_q_to_the_g_walks_in_q_to_the_g(monkeypatch, key):
    """With q -> q^3 every exponent of the sum is a multiple of 3: the
    sum is the base sum with q -> q^3, and its chain walk runs in q^3,
    to order // 3."""
    built = []
    real = qfactorial._Chains.__init__
    monkeypatch.setattr(
        qfactorial._Chains, "__init__",
        lambda self, factors, depths, leads, order:
        built.append(order) or real(self, factors, depths, leads, order))
    spec = get_identity(key).lowered.lhs
    base = eval_sum_over(spec, enumerate_support(spec, 12).points, 12)
    scaled = rescale_sum(spec, 3)
    points = enumerate_support(scaled, 38).points
    assert points == enumerate_support(spec, 12).points
    got = eval_sum_over(scaled, points, 38)
    assert got == base.rescale_base(3) and got.order == 38
    assert built == [12, 12]


def test_a_sum_is_certified_once(monkeypatch):
    """Lowering certifies the support of `main` and keeps the plans on
    the spec, so enumerating it walks the sign regions no second time."""
    calls = []
    real = summation._regions
    monkeypatch.setattr(summation, "_regions",
                        lambda spec: calls.append(1) or real(spec))
    spec = get_identity("main").lowered.lhs
    assert len(enumerate_support(spec, 8).points) == 61
    assert len(calls) == 1
