"""Seeded corpus of pure-q identity statements with known verdicts.

Every statement is built from a small structured description (`SumSide` or
a tuple of `Factor`s per side) and rendered to qident's statement language
by the templates below, not by qident's own serializer.  Each statement
carries the verdict the mathematics predicts:

- ``pass``: a classical identity (Rogers-Ramanujan, Andrews-Gordon and
  Bressoud for k <= 4, Jacobi triple product thetas, Euler's pentagonal
  theorem, the unilateral double/triple sums, the finite splitting of
  1/((q;q)_i (q;q)_j)).
- ``mismatch``: a planted false pairing whose two sides provably differ,
  with the q-exponent of the first differing coefficient.
- ``error``: a statement that has no power-series value (an indefinite
  bilateral quadratic form, or the reciprocal of a product with a
  vanishing factor), written so that lowering or evaluation refuses it
  rather than the parser, which would abort the whole file.

The skewed theta sums ``sum(i in Z, j in Z; q^(a*(i-b*j)^2 + j^2))`` are
true (they equal theta(q) * theta(q^a)), so their expected verdict is
``pass``.  They are flagged ``known_defect`` because qident's shell-based
support enumeration stops too early on them.  With a larger than the
order and b >= 3 only the points (b*j, j) lie below the order, so
two clear shells always appear before the next of them and the sum side
loses its q^(j^2) terms.

The corpus has a fixed shape: every seed yields the same families in the
same slots, with parameters drawn from narrow ranges, so that the work per
file stays about the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

# The order the corpus is verified at: high enough that the pure-q series
# are long and dense, low enough that one file takes under two seconds,
# so that a run holds many children.
ORDER = 120

PASS, MISMATCH, ERROR = "pass", "mismatch", "error"


@dataclass(frozen=True)
class Factor:
    """(coeff * q^a; q^b)_n raised to the power e; n None means infinite."""

    coeff: int
    a: int
    b: int
    n: int | None
    e: int


@dataclass(frozen=True)
class SumSide:
    """Sum over `indices` of sign * q^quad / prod (q^b; q^b)_{count}.

    `quad` maps an exponent tuple (one entry per index) to a rational
    coefficient.  `sign` holds the coefficients of the affine exponent of
    (-1), or None.  Each denominator is (b, coefficients, constant).
    """

    indices: tuple[tuple[str, str], ...]
    quad: tuple[tuple[tuple[int, ...], Fraction], ...]
    sign: tuple[int, ...] | None
    denoms: tuple[tuple[int, tuple[int, ...], int], ...]


@dataclass(frozen=True)
class Statement:
    name: str
    family: str
    params: tuple[tuple[str, int], ...]
    lhs: SumSide | tuple[Factor, ...]
    rhs: SumSide | tuple[Factor, ...]
    expect: str
    first_diff: int | None = None
    known_defect: bool = False

    def text(self) -> str:
        return (f"identity {self.name} {{\n"
                f"  lhs: {_side_text(self.lhs)};\n"
                f"  rhs: {_side_text(self.rhs)};\n"
                "}\n")


# ------------------------------------------------------------- rendering


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _poly_text(terms, names) -> str:
    """Render {exponent tuple: coefficient} in the statement language."""
    items = sorted(((e, Fraction(c)) for e, c in terms if c),
                   key=lambda it: (-sum(it[0]), [-x for x in it[0]]))
    if not items:
        return "0"
    out = ""
    for k, (exps, c) in enumerate(items):
        mono = "*".join(name if p == 1 else f"{name}^{p}"
                        for name, p in zip(names, exps) if p)
        mag = abs(c)
        body = mono if mono and mag == 1 else (
            f"{_frac_text(mag)}*{mono}" if mono else _frac_text(mag))
        if k == 0:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def _linear_terms(coeffs, const):
    dim = len(coeffs)
    terms = [(tuple(int(t == s) for t in range(dim)), c)
             for s, c in enumerate(coeffs)]
    return terms + [((0,) * dim, const)]


def _qpow(e: int) -> str:
    return "q" if e == 1 else (f"q^{e}" if e > 0 else f"q^({e})")


def _poch_text(f: Factor) -> str:
    count = "inf" if f.n is None else str(f.n)
    sign = "-" if f.coeff < 0 else ""
    return f"poch({sign}{_qpow(f.a)}; {_qpow(f.b)}; {count})"


def _product_text(factors: tuple[Factor, ...]) -> str:
    num = [_poch_text(f) for f in factors if f.e > 0 for _ in range(f.e)]
    den = [_poch_text(f) for f in factors if f.e < 0 for _ in range(-f.e)]
    text = " * ".join(num) if num else "1"
    return text + "".join(f" / {d}" for d in den)


def _sum_text(s: SumSide) -> str:
    names = [n for n, _ in s.indices]
    decls = ", ".join(f"{n} >= 0" if d == "N" else f"{n} in Z"
                      for n, d in s.indices)
    body = []
    if s.sign is not None:
        body.append(f"(-1)^({_poly_text(_linear_terms(s.sign, 0), names)})")
    body.append(f"q^({_poly_text(s.quad, names)})")
    text = " * ".join(body)
    for b, coeffs, const in s.denoms:
        count = _poly_text(_linear_terms(coeffs, const), names)
        text += f" / poch({_qpow(b)}; {_qpow(b)}; {count})"
    return f"sum({decls}; {text})"


def _side_text(side) -> str:
    return _sum_text(side) if isinstance(side, SumSide) else _product_text(side)


# ------------------------------------------------------------- families


def _quad(dim: int, entries: dict) -> tuple:
    """Exponent polynomial from {(t, u): c} (quadratic, t <= u),
    {(t,): c} (linear) and {(): c} (constant) over index positions."""
    out: dict[tuple[int, ...], Fraction] = {}
    for pos, c in entries.items():
        exps = [0] * dim
        for t in pos:
            exps[t] += 1
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return tuple(sorted((k, c) for k, c in out.items() if c))


def _staircase_sum(k: int, i: int, last_base: int) -> SumSide:
    """N_1^2 + .. + N_{k-1}^2 + N_i + .. + N_{k-1}, N_j = n_j + .. + n_{k-1},
    over (q;q)_{n_1} .. (q;q)_{n_{k-2}} (q^b;q^b)_{n_{k-1}}, b = last_base."""
    dim = k - 1
    entries: dict = {}
    for j in range(dim):                 # N_{j+1} covers positions j..dim-1
        tail = range(j, dim)
        for t in tail:
            for u in tail:
                key = (min(t, u), max(t, u))
                entries[key] = entries.get(key, 0) + 1
        if j + 1 >= i:
            for t in tail:
                entries[(t,)] = entries.get((t,), 0) + 1
    names = tuple((f"n{t + 1}", "N") for t in range(dim))
    denoms = tuple((last_base if t == dim - 1 else 1,
                    tuple(int(s == t) for s in range(dim)), 0)
                   for t in range(dim))
    return SumSide(names, _quad(dim, entries), None, denoms)


def _staircase_product(k: int, i: int, last_base: int) -> tuple:
    m = 2 * k + 1 if last_base == 1 else 2 * k
    return (Factor(1, i, m, None, 1), Factor(1, m - i, m, None, 1),
            Factor(1, m, m, None, 1), Factor(1, 1, 1, None, -1))


def _rr_sum(shift: int) -> SumSide:
    return SumSide((("n", "N"),), _quad(1, {(0, 0): 1, (0,): shift}), None,
                   ((1, (1,), 0),))


def _rr_product(shift: int) -> tuple:
    a = 1 if shift == 0 else 2
    return (Factor(1, a, 5, None, -1), Factor(1, 5 - a, 5, None, -1))


def _theta_sum(a: int, b: int, signed: bool) -> SumSide:
    """sum over n in Z of (+-1)^n q^(a*n*(n-1)/2 + b*n)."""
    quad = _quad(1, {(0, 0): Fraction(a, 2), (0,): b - Fraction(a, 2)})
    return SumSide((("n", "Z"),), quad, (1,) if signed else None, ())


def _theta_product(a: int, b: int, signed: bool) -> tuple:
    """Jacobi triple product: (x; q^a)(q^a/x; q^a)(q^a; q^a) at x = -+q^b."""
    c = 1 if signed else -1
    return (Factor(c, b, a, None, 1), Factor(c, a - b, a, None, 1),
            Factor(1, a, a, None, 1))


def _double_product() -> tuple:
    return (Factor(-1, 1, 2, None, 2), Factor(1, 2, 2, None, 1),
            Factor(1, 1, 1, None, -1))


def _unit_denoms(dim: int) -> tuple:
    return tuple((1, tuple(int(s == t) for s in range(dim)), 0)
                 for t in range(dim))


def _cor_double() -> SumSide:
    quad = _quad(2, {(0, 0): 1, (0, 1): -1, (1, 1): 1})
    return SumSide((("i", "N"), ("j", "N")), quad, None, _unit_denoms(2))


def _cor_triple() -> SumSide:
    quad = _quad(3, {(0, 0): 1, (0, 2): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1})
    return SumSide((("i", "N"), ("j", "N"), ("k", "N")), quad, None,
                   _unit_denoms(3))


def _p20_sum(i: int, j: int) -> SumSide:
    """sum over k of q^((i-k)(j-k)) / (q;q)_k (q;q)_{i-k} (q;q)_{j-k}."""
    quad = _quad(1, {(0, 0): 1, (0,): -(i + j), (): i * j})
    return SumSide((("k", "N"),), quad, None,
                   ((1, (1,), 0), (1, (-1,), i), (1, (-1,), j)))


def _skew_sum(a: int, b: int) -> SumSide:
    """a*(i - b*j)^2 + j^2 over Z^2."""
    quad = _quad(2, {(0, 0): a, (0, 1): -2 * a * b, (1, 1): a * b * b + 1})
    return SumSide((("i", "Z"), ("j", "Z")), quad, None, ())


def _theta2_product(a: int) -> tuple:
    """theta(q) * theta(q^a), theta(x) = (x^2; x^2)(-x; x^2)^2."""
    return (Factor(1, 2, 2, None, 1), Factor(-1, 1, 2, None, 2),
            Factor(1, 2 * a, 2 * a, None, 1), Factor(-1, a, 2 * a, None, 2))


def _indefinite_sum(c1: int, c2: int, c3: int) -> SumSide:
    quad = _quad(2, {(0, 0): c1, (0, 1): c2, (1, 1): c3})
    return SumSide((("i", "Z"), ("j", "Z")), quad, None, ())


# ------------------------------------------------------------- generator


def generate(seed: int, order: int = ORDER) -> list[Statement]:
    """The corpus for `seed`: the same seed always gives the same list."""
    rng = random.Random(seed)
    out: list[Statement] = []

    def add(family, params, lhs, rhs, expect, first_diff=None,
            known_defect=False):
        name = f"s{len(out):02d}_{family.replace('-', '_')}"
        out.append(Statement(name, family, tuple(params), lhs, rhs, expect,
                             first_diff, known_defect))

    shift = rng.randint(0, 1)
    add("rogers-ramanujan", [("shift", shift)], _rr_sum(shift),
        _rr_product(shift), PASS)
    for k in (2, 3, 4):
        base = rng.choice((1, 2))
        i = rng.randint(1, k)
        family = "andrews-gordon" if base == 1 else "bressoud"
        add(family, [("k", k), ("i", i)], _staircase_sum(k, i, base),
            _staircase_product(k, i, base), PASS)
    for _ in range(6):
        a = rng.randint(2, 24)
        b = rng.randint(1, a - 1)
        signed = rng.random() < 0.5
        add("theta", [("a", a), ("b", b), ("signed", int(signed))],
            _theta_sum(a, b, signed), _theta_product(a, b, signed), PASS)
    m = rng.randint(1, 5)
    add("euler-pentagonal", [("m", m)],
        SumSide((("n", "Z"),),
                _quad(1, {(0, 0): Fraction(3 * m, 2), (0,): Fraction(-m, 2)}),
                (1,), ()),
        (Factor(1, m, m, None, 1),), PASS)
    add("cor-double", [], _cor_double(), _double_product(), PASS)
    add("cor-triple", [], _cor_triple(), _double_product(), PASS)
    # The larger of i and j fixes how far the cached (q;q)_n reach, and so
    # the peak memory; it is pinned to the top of the range.
    for lo, hi in ((5, 20), (order // 2 - 8, order // 2 + 8)):
        i, j = hi, rng.randint(lo, hi)
        if rng.random() < 0.5:
            i, j = j, i
        add("andrews-p20", [("i", i), ("j", j)],
            (Factor(1, 1, 1, i, -1), Factor(1, 1, 1, j, -1)),
            _p20_sum(i, j), PASS)

    # Planted false pairings; each side is a true identity's side, and the
    # two products differ first at the stated exponent.
    k = rng.randint(2, 3)
    other = rng.randint(2, k)
    i_sum, i_prod = (1, other) if rng.random() < 0.5 else (other, 1)
    add("andrews-gordon-swapped", [("k", k), ("i", i_sum), ("i_rhs", i_prod)],
        _staircase_sum(k, i_sum, 1), _staircase_product(k, i_prod, 1),
        MISMATCH, first_diff=1)
    shift = rng.randint(0, 1)
    add("rogers-ramanujan-swapped", [("shift", shift)], _rr_sum(shift),
        _rr_product(1 - shift), MISMATCH, first_diff=1)
    a = rng.randint(3, 24)
    b = rng.randint(1, a - 1)
    signed = rng.random() < 0.5
    add("theta-sign-flipped", [("a", a), ("b", b), ("signed", int(signed))],
        _theta_sum(a, b, signed), _theta_product(a, b, not signed),
        MISMATCH, first_diff=min(b, a - b))

    # Statements with no power-series value.
    c1, c3 = rng.randint(1, 3), rng.randint(1, 3)
    c2_min = isqrt(4 * c1 * c3) + 1          # c2^2 > 4*c1*c3: indefinite
    c2 = rng.choice((-1, 1)) * rng.randint(c2_min, c2_min + 3)
    add("indefinite", [("c1", c1), ("c2", c2), ("c3", c3)],
        _indefinite_sum(c1, c2, c3), (Factor(1, 1, 1, None, 1),), ERROR)
    b, m = rng.randint(1, 4), rng.randint(1, 4)
    add("vanishing-reciprocal", [("b", b), ("m", m)],
        (Factor(1, -b * m, b, None, -1),), (Factor(1, 1, 1, None, -1),),
        ERROR)

    # True, but beyond the seed's stopping rule (see the module docstring).
    for _ in range(2):
        a = rng.randint(order + 1, 2 * order)
        b = rng.randint(3, 6)
        add("skewed-theta", [("a", a), ("b", b)], _skew_sum(a, b),
            _theta2_product(a), PASS, known_defect=True)
    return out


def corpus_text(statements: list[Statement]) -> str:
    return "\n".join(s.text() for s in statements)
