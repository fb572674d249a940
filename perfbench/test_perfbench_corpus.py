"""Tests of the benchmark's corpus generator.

    python3 -m pytest -q perfbench

The expected verdict of every generated statement is checked at a low
order against a dense integer-list reference that lives here: both sides
are expanded by brute force over a lattice box whose radius is proved
large enough for each family, and compared coefficient by coefficient.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import isqrt
from pathlib import Path

import pytest

import corpus
from corpus import ERROR, MISMATCH, PASS, Factor, SumSide

ORDER = 40
SEEDS = range(6)


# ------------------------------------------------------ dense reference


def mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


def inverse(a: list[int]) -> list[int]:
    assert a[0] in (1, -1)
    out = [0] * len(a)
    out[0] = a[0]
    for n in range(1, len(a)):
        out[n] = -a[0] * sum(a[k] * out[n - k] for k in range(1, n + 1))
    return out


def one(n: int) -> list[int]:
    return [1] + [0] * n


@lru_cache(maxsize=None)
def poch(coeff: int, a: int, b: int, count: int | None, n: int) -> list[int]:
    """(coeff*q^a; q^b)_count to q^n, for a >= 1 or a finite count.

    Cached, so callers must not modify the returned list.
    """
    out = one(n)
    k = 0
    while (count is None and a + b * k <= n) or (count is not None and k < count):
        e = a + b * k
        assert e >= 0, "factor below q^0"
        if e <= n:
            factor = [0] * (n + 1)
            factor[0] += 1
            factor[e] -= coeff
            out = mul(out, factor)
        k += 1
    return out


def product(factors: tuple[Factor, ...], n: int) -> list[int]:
    out = one(n)
    for f in factors:
        p = poch(f.coeff, f.a, f.b, f.n, n)
        for _ in range(abs(f.e)):
            out = mul(out, p if f.e > 0 else inverse(p))
    return out


def box_radius(stmt, n: int) -> int:
    """A coordinate bound outside which no term reaches q^n."""
    p = dict(stmt.params)
    fam = stmt.family
    if fam in ("rogers-ramanujan", "rogers-ramanujan-swapped", "andrews-gordon",
               "bressoud", "andrews-gordon-swapped", "cor-triple"):
        # exponent >= (n_1 + .. + n_r)^2 >= n_t^2 on N^r
        return isqrt(n)
    if fam in ("theta", "theta-sign-flipped", "euler-pentagonal"):
        # a*m*(m-1)/2 + b*m >= |m| - 1 for every integer m
        return n + 1
    if fam == "cor-double":
        # i^2 - i*j + j^2 >= (i^2 + j^2) / 2
        return isqrt(2 * n)
    if fam == "andrews-p20":
        # 1/(q;q)_{i-k} vanishes for k > i
        return min(p["i"], p["j"])
    if fam == "skewed-theta":
        # j^2 <= value and a*(i - b*j)^2 <= value
        return (p["b"] + 1) * (isqrt(n) + 1)
    raise AssertionError(f"no box for {fam}")


def lattice(indices, radius: int):
    points = [()]
    for _, dom in indices:
        lo = 0 if dom == "N" else -radius
        points = [pt + (v,) for pt in points for v in range(lo, radius + 1)]
    return points


def sum_side(stmt, side: SumSide, n: int) -> list[int]:
    out = [0] * (n + 1)
    for pt in lattice(side.indices, box_radius(stmt, n)):
        counts = [sum(c * x for c, x in zip(coeffs, pt)) + const
                  for _, coeffs, const in side.denoms]
        if any(c < 0 for c in counts):
            continue       # 1/(q^b;q^b)_{-m} holds the factor 1 - q^0
        value = sum(c * _monomial(pt, exps) for exps, c in side.quad)
        assert value.denominator == 1 and value >= 0
        if value > n:
            continue       # every denominator starts at q^0
        term = [0] * (n + 1)
        term[int(value)] = 1
        if side.sign is not None and sum(c * x for c, x in zip(side.sign, pt)) % 2:
            term[int(value)] = -1
        for (b, _, _), count in zip(side.denoms, counts):
            term = mul(term, inverse(poch(1, b, b, count, n)))
        out = [x + y for x, y in zip(out, term)]
    return out


def _monomial(pt, exps) -> int:
    out = 1
    for x, e in zip(pt, exps):
        out *= x ** e
    return out


def expand(stmt, side, n: int) -> list[int]:
    if isinstance(side, SumSide):
        return sum_side(stmt, side, n)
    return product(side, n)


def refused_for_a_reason(stmt) -> bool:
    """The statement has no power-series value."""
    if stmt.family == "indefinite":
        p = dict(stmt.params)
        return p["c2"] ** 2 > 4 * p["c1"] * p["c3"]
    if stmt.family == "vanishing-reciprocal":
        # 1/(q^a; q^b)_inf with a + b*k = 0 for some k >= 0
        return any(f.e < 0 and f.coeff == 1 and f.a <= 0 and -f.a % f.b == 0
                   for f in stmt.lhs)
    return False


# ------------------------------------------------------------ tests


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_is_deterministic_per_seed(seed):
    first = corpus.generate(seed)
    again = corpus.generate(seed)
    assert first == again
    assert corpus.corpus_text(first) == corpus.corpus_text(again)
    assert len({s.name for s in first}) == len(first)


def test_seeds_give_different_corpora_of_one_shape():
    texts = {corpus.corpus_text(corpus.generate(seed)) for seed in SEEDS}
    assert len(texts) == len(SEEDS)
    shapes = {tuple((s.expect, s.first_diff is None, s.known_defect)
                    for s in corpus.generate(seed)) for seed in SEEDS}
    assert len(shapes) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_expected_verdicts_hold_against_the_dense_reference(seed):
    for stmt in corpus.generate(seed):
        if stmt.expect == ERROR:
            assert refused_for_a_reason(stmt), stmt.name
            continue
        lhs = expand(stmt, stmt.lhs, ORDER)
        rhs = expand(stmt, stmt.rhs, ORDER)
        if stmt.expect == PASS:
            assert lhs == rhs, stmt.name
        else:
            assert stmt.expect == MISMATCH
            first = next(e for e, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            assert first == stmt.first_diff, stmt.name


def test_reference_matches_known_expansions():
    # Euler: (q;q)_inf = 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...
    euler = product((Factor(1, 1, 1, None, 1),), 15)
    assert euler == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
    # partitions: 1/(q;q)_inf
    assert product((Factor(1, 1, 1, None, -1),), 8) == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_corpus_parses_with_one_record_per_statement():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    speclang = pytest.importorskip("qident.speclang")
    statements = corpus.generate(0)
    asts = speclang.parse_file(corpus.corpus_text(statements))
    assert [a.name for a in asts] == [s.name for s in statements]
