"""q-shifted factorials and symbolic product sides.

(a; q^b)_n is the finite product prod_{k=0}^{n-1} (1 - a q^{bk}); the
infinite version runs k over all of N and is truncatable exactly when the
argument carries at least q^1.  Negative subscripts follow
(a; q^b)_{-n} = 1 / (a q^{-nb}; q^b)_n, which also produces this kernel's
zero convention: the reciprocal of a factorial with a vanishing factor is
the zero series, used to collapse bilateral sums onto N.

Every finite factor goes through one rule, `reflect`: a binomial 1 - A
of negative q-weight is -A (1 - 1/A) (Gasper-Rahman, *Basic
Hypergeometric Series*, Appendix I), so a factor is a signed monomial at
its exact valuation times runs of binomials of q-weight >= 0.  Those
runs have valuation 0 and are needed only to depth order - valuation;
for product sides and single factors `_run` builds them one binomial at
a time and caches every prefix at the working order.  A run has two
representations: a step free of formal variables, of positive q-weight,
at a finite order, works in place on a coefficient row -- a binomial is
a downward sweep over a row that reaches only the run's degree, its
reciprocal an upward recurrence over a row to the order -- and every
other step multiplies Series, a reciprocal step of positive q-weight by
its geometric series.  An exact polynomial is the same computation at
order `EXACT`.  A sum builds no run: it takes the same binomial steps
on its own accumulator along each index (`summation.eval_sum_over`),
and leaves nothing in the cache.

Every infinite factor (a; q^b)_inf^(+-1), of a product side or of the z
layer, is one call of `infinite_factor`, which inverts no series: a
pure-q factor is one coefficient row stepped to the order, and a factor
with formal variables is Euler's series in a, its coefficients read off
the prefixes of the one cached run 1/(q^b; q^b)_n.  `_RUNS` caches both,
and is the module's only cache.  `expand_factors` assembles product
sides and single factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from math import gcd
from operator import add, sub

from .qring import EXACT, Monomial, QSeriesError, Series

INF = None  # sentinel for an infinite product count


class NotTruncatable(QSeriesError):
    """An infinite product has infinitely many factors at or below q^0."""


class ZeroDivisor(QSeriesError):
    """A factorial with a vanishing factor: the value is infinite.

    Its reciprocal is the zero series, which poch_recip_finite returns
    instead of raising.
    """


@dataclass(frozen=True)
class FactorSpec:
    """One factor (arg; q^basepow)_count ^ expo of a product side."""

    arg: Monomial
    basepow: int = 1
    count: int | None = INF
    expo: int = 1

    def __post_init__(self):
        if self.basepow < 1:
            raise ValueError("basepow must be a positive integer")
        if self.expo == 0:
            raise ValueError("factor exponent must be nonzero")


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple[FactorSpec, ...] = ()
    prefactor: Monomial = Monomial.unit()


# (arg, basepow, count, expo): the run prod_{k<count} (1 - arg q^{bk})^expo
Run = tuple[Monomial, int, int, int]


def _binomials(arg: Monomial, basepow: int, n: int) -> tuple[Monomial, int]:
    """(first, count): the binomials of (arg; q^basepow)_n are
    1 - first q^{bk} for k < count, in its denominator when n < 0."""
    if n >= 0:
        return arg, n
    return arg * Monomial.q(n * basepow), -n


def vanishes(arg: Monomial, basepow: int, n: int) -> bool:
    """Does (arg; q^basepow)_n, for any integer n, hold a binomial 1 - 1?"""
    first, count = _binomials(arg, basepow, n)
    if first.vars or first.coeff != 1 or first.qexp % basepow:
        return False
    return 0 <= -first.qexp // basepow < count


def reflect(arg: Monomial, basepow: int, n: int,
            expo: int = 1) -> tuple[Monomial, tuple[Run, ...]] | None:
    """(arg; q^basepow)_n ^ expo, expo = +-1, as (lead, runs), or None.

    None is the zero series (a binomial 1 - 1 in the numerator), and a
    binomial 1 - 1 in the denominator raises ZeroDivisor.  Otherwise the
    factor is lead * prod of the runs: `lead` is prod (-A)^(+-1) over the
    binomials 1 - A of negative q-weight, and the runs, all of q-weight
    >= 0, hold those binomials reflected to 1 - 1/A and the others as
    they are.  1/A needs A's coefficient to be a unit (NotInvertible).
    """
    first, count = _binomials(arg, basepow, n)
    power = expo if n >= 0 else -expo
    if vanishes(arg, basepow, n):
        if power > 0:
            return None
        raise ZeroDivisor(f"{'1/' if expo < 0 else ''}({arg.text()}; "
                          f"q^{basepow})_{n} divides by a vanishing factor")
    r = min(count, max(0, -(first.qexp // basepow)))  # weights below 0
    lead = Monomial.unit()
    runs = []
    if r:
        last = first * Monomial.q(basepow * (r - 1))
        runs.append((last.inverse(), basepow, r, power))
        lead = (Monomial(-first.coeff, first.qexp, first.vars) ** r
                * Monomial.q(basepow * (r * (r - 1) // 2))) ** power
    if count > r:
        runs.append((first * Monomial.q(basepow * r), basepow, count - r,
                     power))
    return lead, tuple(runs)


# (arg, basepow, expo, order) -> [run of 0, 1, 2, ... binomials], and
# (arg, basepow, INF, expo, order) -> the infinite factor, its last prefix
# only (`infinite_factor`).  Product sides, single factors and Euler's
# series fill it; sums do not (`summation._Chains`).
_RUNS: dict[tuple, list[Series] | Series] = {}

# A numerator step goes on the row while the row has fewer than this many
# entries per term of the prefix (see `_run` and `_infinite_terms`).
_ROW_PER_TERM = 4


def _run(arg: Monomial, basepow: int, count: int, expo: int,
         order: int) -> Series:
    """prod_{k<count} (1 - arg q^{bk})^expo for arg of q-weight >= 0.

    Truncated at `order`, where the binomials of q-weight above `order`
    are 1 and are skipped; the exact polynomial at order `EXACT` (expo =
    1 only).  Each length extends the cached one before it.

    Two representations, chosen step by step.  A step free of formal
    variables, of q-weight s > 0, at a finite order, works in place on a
    coefficient row: row[i] holds the coefficient of q^(g i), where g =
    gcd(arg's q-weight, basepow) divides every exponent of the run.  A
    binomial 1 - a q^s is the downward sweep row[k] -= a row[k - s/g]
    over a row that reaches only the run's degree; its reciprocal is the
    upward recurrence row[k] += a row[k - s/g] over a row to the order,
    so neither `Series.invert` nor a product runs.  Every other step --
    of weight 0, with formal variables, or at order `EXACT` -- multiplies
    by the binomial (or its inverse) as a Series; the inverse of a binomial
    1 - a of positive q-weight s at a finite order is its geometric series
    sum a^k over k s <= order.  A numerator step stays
    on that product when the row would hold more than `_ROW_PER_TERM`
    entries per term of the prefix.  Measured on 13 numerator runs
    (q^a; q^b)_n at orders 60 to 10^5, the row was 4 to 7 times as fast
    as the product on dense runs and 2 to 3 times as slow on the sparse
    (q^1000; q)_20 at order 10^5; thresholds of 4 and 8 gave the least
    total time, 32 12% more and 2 60% more.
    """
    key = (arg, basepow, expo, order)
    prefixes = _RUNS.get(key)
    if prefixes is None:
        prefixes = _RUNS[key] = [Series.one(order)]
    g = gcd(arg.qexp, basepow)
    row = None
    while len(prefixes) <= count:
        shift = basepow * (len(prefixes) - 1)
        s = arg.qexp + shift
        if s > order:
            return prefixes[-1]
        a = arg * Monomial.q(shift)
        last = prefixes[-1]
        if s and not a.vars and order < EXACT:
            if expo < 0:
                top = order // g
            else:
                degree = len(row) - 1 if row is not None else max(
                    (e for e, _ in last.terms), default=0) // g
                top = min(order // g, degree + s // g)
            if expo < 0 or top < _ROW_PER_TERM * len(last.terms):
                if row is None:
                    row = [0] * (top + 1)
                    for (e, _), c in last.terms.items():
                        row[e // g] = c
                    keys = []
                row += [0] * (top + 1 - len(row))
                keys += [(g * i, ()) for i in range(len(keys), len(row))]
                (_recur if expo < 0 else _sweep)(row, a.coeff, s // g)
                prefixes.append(Series._cut(
                    {k: c for k, c in zip(keys, row) if c}, order, 0))
                continue
        row = None
        if expo < 0 and s and order < EXACT:
            binomial = _geometric(a, order)
        else:
            binomial = Series.one() - Series.from_monomial(a)
            if expo < 0:
                binomial = binomial.invert(order)
        prefixes.append(last * binomial)
    return prefixes[count]


def _geometric(a: Monomial, order: int) -> Series:
    """1/(1 - a) = sum a^k to `order`, for a of q-weight > 0."""
    terms, power = {}, Monomial.unit()
    while power.qexp <= order:
        terms[power.key()] = power.coeff
        power = power * a
    return Series._cut(terms, order, 0)


def _sweep(row: list[int], a: int, t: int) -> None:
    """row *= 1 - a x^t in place, truncated to its length: row[k] -=
    a row[k - t], from the top down, so each row[k - t] is still old."""
    if t < len(row):
        old = row if a == 1 else [a * c for c in row]
        row[t:] = map(sub, row[t:], old)


def _recur(row: list[int], a: int, t: int) -> None:
    """row /= 1 - a x^t in place, truncated to its length: row[k] +=
    a row[k - t], from the bottom up, so each row[k - t] is already new.
    Each residue class mod t is one running sum when there are few
    classes, and each block of t entries one vector add when they are
    long."""
    n = len(row)
    step = None if a == 1 else (lambda acc, c: c + a * acc)
    if t * t <= n:
        for r in range(t):
            row[r::t] = accumulate(row[r::t], step)
        return
    for j in range(t, n, t):
        prev = row[j - t:j]
        row[j:j + t] = map(add, row[j:j + t],
                           prev if a == 1 else [a * c for c in prev])


def infinite_factor(arg: Monomial, basepow: int, expo: int,
                    order: int) -> Series:
    """(arg; q^basepow)_inf ^ expo, expo = +-1, exactly to `order`.

    The caller has checked that finitely many terms lie at each q-weight:
    arg.qexp >= 1, or arg.qexp >= 0 for a product with formal variables.
    No series is inverted.  A pure-q factor is one coefficient row to
    the order (`_infinite_terms`).  A factor with formal variables is
    Euler's series (Gasper-Rahman, eqs. (1.3.15)-(1.3.16)): [arg^n] is
    (-1)^n q^(b binom(n,2)) / (q^b; q^b)_n for the product and
    1/(q^b; q^b)_n for the reciprocal, each read off prefix n of the one
    cached run 1/(q^b; q^b)_n at `order`.  Their leading q-weights
    never fall as n grows, so the series stops at the first n whose
    weight passes the order.  The factor is cached in `_RUNS`.
    """
    key = (arg, basepow, INF, expo, order)
    factor = _RUNS.get(key)
    if factor is None:
        if arg.vars:
            factor = _euler(arg, basepow, expo, order)
        else:
            g = gcd(arg.qexp, basepow)
            steps = range(arg.qexp // g, order // g + 1, basepow // g)
            factor = Series._cut({
                (g * i, ()): c for i, c in _infinite_terms(
                    arg.coeff, steps, expo, order // g) if c}, order, 0)
        _RUNS[key] = factor
    return factor


def _infinite_terms(a: int, steps: range, expo: int, top: int):
    """The (i, c) pairs of prod over t in `steps` of (1 - a x^t)^expo,
    cut at x^top.

    A reciprocal is `_recur` stepped over a row to `top`.  A product is
    stepped on its term dict while a row to its degree would hold
    `_ROW_PER_TERM` or more entries per term, as in `_run`, and from the
    first step where it would hold fewer, `_sweep` stepped over that row.
    It stays on the row, though the product may thin out again: (q;q)_inf
    at order 3000 has 89 terms, and its row, kept to the end, took 0.23 s
    against 0.36 s when each step checked the rule anew (CPython 3.11 on
    a shared 2-vCPU machine).
    """
    if expo < 0:
        row = [1] + [0] * top
        for t in steps:
            _recur(row, a, t)
        return enumerate(row)
    terms, steps = {0: 1}, iter(steps)
    for t in steps:
        if min(top, max(terms) + t) < _ROW_PER_TERM * len(terms):
            row = [0] * (max(terms) + 1)
            for i, c in terms.items():
                row[i] = c
            for t in chain([t], steps):
                row += [0] * (min(top, len(row) - 1 + t) + 1 - len(row))
                _sweep(row, a, t)
            return enumerate(row)
        stepped = dict(terms)
        for i, c in terms.items():
            if i + t <= top:
                stepped[i + t] = stepped.get(i + t, 0) - a * c
        terms = {i: c for i, c in stepped.items() if c}
    return terms.items()


def _euler(arg: Monomial, basepow: int, expo: int, order: int) -> Series:
    """Euler's series of (arg; q^basepow)_inf^expo, arg with formal
    variables (`infinite_factor`)."""
    base = Monomial.q(basepow)
    terms: dict = {}
    power = Monomial.unit()  # arg^n
    n = 0
    while True:
        lead = power if expo < 0 else power * Monomial(
            -1 if n % 2 else 1, basepow * (n * (n - 1) // 2))
        room = order - lead.qexp
        if room < 0:
            return Series._cut(terms, order, 0)
        for (e, _), c in _run(base, basepow, n, -1, order).terms.items():
            if e <= room:
                terms[(lead.qexp + e, lead.vars)] = lead.coeff * c
        power = power * arg
        n += 1


def expand_factors(lead: Monomial, factors, order: int,
                   pieces=()) -> Series:
    """lead * prod (arg; q^b)_n^expo over `factors` * prod `pieces`.

    `factors` holds (arg, basepow, n, expo) with expo = +-1 and any
    integer n; `pieces` are valuation-0 series sound to `order`, used
    only when the product does not dip below q^0.  The product is zero
    if any factor is (a ZeroDivisor from another factor still raises).
    Otherwise its valuation v is that of lead times the reflected leads,
    and each run is needed only to depth order - v.  A product dipping
    below q^0 keeps its floor there and its order at `order`.  The runs
    are built even when v > order, so that a run with no inverse raises
    rather than passing for zero.  At order `EXACT` the runs are
    polynomials and the product is exact.
    """
    runs: list[Run] = []
    zero = False
    for arg, basepow, n, expo in factors:
        reflected = reflect(arg, basepow, n, expo)
        if reflected is None:
            zero = True
            continue
        lead = lead * reflected[0]
        runs += reflected[1]
    if zero:
        return Series.zero(order)
    floor = min(lead.qexp, 0)
    work = order - floor
    factors = [_run(*run, work) for run in runs] + list(pieces)
    if lead == Monomial.unit() and factors:  # 1 * piece is the piece
        acc = factors.pop(0)
    else:
        acc = Series({lead.key(): lead.coeff}, order, floor)
    for piece in factors:
        acc = acc * piece
    return acc


def _poch(arg: Monomial, basepow: int, n: int, expo: int,
          order: int | None) -> Series:
    if order is None:
        if (n >= 0) != (expo > 0):
            raise ValueError("an inverse factorial needs a truncation order")
        order = EXACT
    return expand_factors(Monomial.unit(), [(arg, basepow, n, expo)], order)


def poch_finite(arg: Monomial, basepow: int = 1, n: int = 0,
                order: int | None = None) -> Series:
    """(arg; q^basepow)_n for any integer n, truncated at `order`.

    With `order` None and n >= 0 it is the exact polynomial.  For n < 0
    it is 1/(arg q^{n*basepow}; q^basepow)_{-n}, which needs an order,
    and ZeroDivisor when that polynomial has a vanishing factor -- e.g.
    (q;q)_{-1} divides by 1 - 1.
    """
    return _poch(arg, basepow, n, 1, order)


def poch_recip_finite(arg: Monomial, basepow: int = 1, n: int = 0,
                      order: int | None = None) -> Series:
    """1/(arg; q^basepow)_n for any integer n, truncated at `order`.

    n >= 0 needs an order, and raises ZeroDivisor on a vanishing factor
    (NotInvertible if the inverse has no Laurent-polynomial q-levels).
    n < 0 is the polynomial (arg q^{-|n| basepow}; q^basepow)_{|n|},
    exact when `order` is None, and the zero series when that polynomial
    vanishes -- the convention that collapses bilateral sums.
    """
    return _poch(arg, basepow, n, -1, order)


def poch_infinite(arg: Monomial, basepow: int = 1, order: int = 32) -> Series:
    """(arg; q^basepow)_inf expanded exactly to `order`.

    Requires arg.qexp >= 1: then factor k sits at q-weight
    arg.qexp + basepow*k and only finitely many factors touch the window.
    Anything else would put infinitely many terms at or below q^0.
    """
    _truncatable(arg, basepow)
    return infinite_factor(arg, basepow, 1, order)


def _truncatable(arg: Monomial, basepow: int) -> None:
    """Refuse an infinite factor whose argument has no positive q-weight."""
    if arg.qexp < 1:
        raise NotTruncatable(
            f"({arg.text()}; q^{basepow})_inf: argument carries no positive "
            "q-weight, the product never stabilizes below the order")


def expand_product_spec(spec: ProductSpec, order: int) -> Series:
    """prefactor * prod factor^expo, exactly to `order`.

    Deterministic and independent of factor ordering (the arithmetic is
    exact).  Raises if the result would dip below q^0, which a
    well-formed product side never does.
    """
    finite, pieces = [], []
    for f in spec.factors:
        expo = 1 if f.expo > 0 else -1
        if f.count is not INF:
            finite += [(f.arg, f.basepow, f.count, expo)] * abs(f.expo)
            continue
        _truncatable(f.arg, f.basepow)
        pieces += [infinite_factor(f.arg, f.basepow, expo, order)] * abs(
            f.expo)
    series = expand_factors(spec.prefactor, finite, order, pieces)
    val = series.valuation
    if val is not None and val < 0:
        raise QSeriesError(
            f"product expansion has negative q-valuation {val}; "
            "not a power series")
    return series
