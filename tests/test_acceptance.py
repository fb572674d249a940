"""Acceptance gate: nine criteria, one test each, all exact equalities.

Run with -v to get the one-line pass/fail verdict per criterion.  Every
coefficient comparison here is exact integer equality at the stated
truncation order; there are no tolerances anywhere.
"""

import random
import time

import pytest

from qident.catalog import get_identity, specialize_to_one, verify_identity
from qident.ctengine import (
    binom2,
    jtp_zseries,
    prove_main_theorem,
    sum_zcoeff,
    zcoeffs,
)
from qident.qfactorial import poch_finite, poch_recip_finite
from qident.qring import Monomial, Series
from qident.speclang import parse_identity, serialize_identity
from qident.summation import eval_sum


def must_pass(key, order, zwindow=None, **params):
    ident = get_identity(key, **params)
    report = verify_identity(
        ident.lowered, order, ident.details,
        zwindow=ident.zwindow if zwindow is None else zwindow)
    assert report.status == "pass", report.to_record()
    return report


def test_criterion_1_bilateral_double_sum_identity_at_order_24():
    start = time.perf_counter()
    must_pass("main", 24)
    lhs = eval_sum(get_identity("main").lowered.lhs, 24)
    assert lhs.terms[(1, (("x", 1), ("y", 1)))] == 1
    assert lhs.terms[(1, (("x", -1), ("y", -1)))] == 1
    assert lhs.terms.get((1, (("x", -1),)), 0) == 0
    assert time.perf_counter() - start < 60


def test_criterion_2_constant_term_proof_replay():
    proof = prove_main_theorem(order=24)
    assert proof.constant_term.terms == proof.paired_sum.terms


def test_criterion_3_companion_multisum_family():
    report = must_pass("cor-double", 100)
    assert report.details["qcoeffs"][:5] == [1, 3, 4, 7, 13]
    must_pass("cor-triple", 40)
    must_pass("cor-multi", 24, ell=4)
    must_pass("cor-multi", 24, ell=5)


def test_criterion_4_classical_single_sum_and_staircase_suites():
    start = time.perf_counter()
    report = must_pass("rr1", 100)
    assert report.details["qcoeffs"][:7] == [1, 1, 1, 1, 2, 2, 3]
    must_pass("rr2", 100)
    for k in (2, 3, 4):
        for i in range(1, k + 1):
            must_pass("andrews-gordon", 40, k=k, i=i)
            must_pass("bressoud", 40, k=k, i=i)
    assert time.perf_counter() - start < 120


def test_criterion_5_bilateral_summation_with_power_parameter():
    for m in (1, 2, 3):
        must_pass("ramanujan-1psi1", 16, zwindow=(-5, 5), m=m)
    # at m = 1 every z-coefficient collapses onto the unilateral family
    psi = sum_zcoeff(get_identity("ramanujan-1psi1", m=1).lowered.lhs, 16)
    qb = sum_zcoeff(get_identity("q-binomial").lowered.lhs, 16)
    for k in range(-5, 6):
        assert psi(k).terms == qb(k).terms
    must_pass("q-binomial", 16)


def test_criterion_6_two_parameter_double_sum_family():
    for a in (1, 2, 3):
        must_pass("cao-wang", 24, a=a)
    collapsed = specialize_to_one(get_identity("cao-wang", a=1), ["u"])
    want = eval_sum(get_identity("cor-double").lowered.lhs, 24).terms
    assert eval_sum(collapsed.lowered.lhs, 24).terms == want


def test_criterion_7_kernel_lemma_suite():
    must_pass("bilateral-euler", 12, zwindow=(-4, 4), m=1)
    must_pass("circle-x", 12, zwindow=(-4, 4))
    must_pass("circle-y", 12, zwindow=(-4, 4))

    # triple-product window: [z^n] is the exact signed monomial for |n| <= 8
    jtp = dict(zcoeffs(jtp_zseries(Monomial.unit(), 40)))
    for n in range(-8, 9):
        sign = -1 if n % 2 else 1
        assert jtp[n].terms == {(binom2(n), ()): sign}

    # the a^n coefficient of (a;q)_n carries exactly q^binom(n,2)
    for n in range(0, 13):
        poch = poch_finite(Monomial.var("a"), 1, n, binom2(n))
        sign = -1 if n % 2 else 1
        top = {vk: c for (qe, vk), c in poch.terms.items()
               if vk == (("a", n),)}
        assert top == {(("a", n),): sign * 1} or (n == 0 and top == {})
        if n:
            assert poch.terms[(binom2(n), (("a", n),))] == sign


def test_criterion_8_finite_splitting_and_negative_subscripts():
    for i in range(0, 13):
        for j in range(0, 13):
            must_pass("andrews-p20", 24, i=i, j=j)
    for n in range(1, 7):
        assert poch_recip_finite(Monomial.q(), 1, -n, 20).terms == {}


def test_criterion_9_algebra_properties_and_corpus_round_trip():
    rng = random.Random(93)

    def poly(allow_vars=True):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            vk = ()
            if allow_vars and rng.random() < 0.5:
                vk = (("x", rng.randint(-2, 2)),)
                if vk[0][1] == 0:
                    vk = ()
            terms[(rng.randint(0, 6), vk)] = rng.randint(-4, 4)
        return Series({k: c for k, c in terms.items() if c})

    for _ in range(100):
        a, b, c = poly(), poly(), poly()
        assert (a * b).terms == (b * a).terms
        assert ((a * b) * c).terms == (a * (b * c)).terms
        assert (a * (b + c)).terms == (a * b + a * c).terms

        # inversion round-trip on a forced-unit-leading series
        u = Series({(0, ()): 1}) + poly().mul_monomial(
            Monomial.q())
        inv = u.invert(10)
        assert (u * inv).qcoeffs(10) == [1] + [0] * 10

    # bilateral collapse: the Z^2 statement pinched at x = y = 1 equals
    # the N^2 statement coefficientwise
    pinched = specialize_to_one(get_identity("main"), ["x", "y"])
    assert eval_sum(pinched.lowered.lhs, 24).terms == \
        eval_sum(get_identity("cor-double").lowered.lhs, 24).terms

    # x <-> y symmetry of the bilateral double sum
    lhs = eval_sum(get_identity("main").lowered.lhs, 16)
    flipped = {}
    for (qe, vk), coeff in lhs.terms.items():
        swapped = tuple(sorted(("x" if n == "y" else "y", e)
                               for n, e in vk))
        flipped[(qe, swapped)] = coeff
    assert flipped == lhs.terms

    # DSL round-trip across the full catalog corpus
    from qident.catalog import default_instances
    for key, params in default_instances():
        text = get_identity(key, **params).text
        assert serialize_identity(parse_identity(text)) == text, (key, params)
