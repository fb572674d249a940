"""q-shifted factorials and symbolic product sides.

(a; q^b)_n is the finite product prod_{k=0}^{n-1} (1 - a q^{bk}); the
infinite version runs k over all of N and is truncatable exactly when the
argument carries at least q^1.  Negative subscripts follow
(a; q^b)_{-n} = 1 / (a q^{-nb}; q^b)_n, which also produces this kernel's
zero convention: the reciprocal of a factorial with a vanishing factor is
the zero series, used to collapse bilateral sums onto N.

Every finite factor cut at an order goes through one rule, `reflect`: a
binomial 1 - A of negative q-weight is -A (1 - 1/A) (Gasper-Rahman, *Basic
Hypergeometric Series*, Appendix I), so a factor is a signed monomial at
its exact valuation times binomials of q-weight >= 0, which have
valuation 0 and are needed only to depth order - valuation.  One engine
applies them, `_Stepper`: it multiplies or divides an accumulator by
one binomial at a time and cuts it at the order, the accumulator a term
dict, a coefficient row (a binomial is a downward sweep, its reciprocal
an upward recurrence) or, with formal variables, a dict keyed by one
int.  One function drives it, `walk`: a product of Pochhammer factors
at the subscripts of each point of a sum, each factor reflected once
per subscript value, the points added by Horner's rule along each index
(`_Chains`), in q^g for the gcd g of every q-exponent in play.  A sum
(`summation.eval_sum_over`), a single term, a product side and a single
factor (`expand_factors`) are each one walk.  A polynomial needs no
inverse, so an exact one, or one whose argument's coefficient is not a
unit, is its binomials multiplied out, none reflected
(`_multiplied_out`).

A product side, of a statement or of the z layer, takes one path,
`expand_closed`, once `closed_factors` has made its refusals.  First
`_rewrite` takes its infinite factors to an exact normal form: equal
factors net, quotients telescope to finite factors, and Jacobi triple
products become theta series theta(a; q^m) = sum (-1)^n a^n
q^(m binom(n, 2)) of O(sqrt(order)) terms (`theta`), a pure-q reciprocal
pair completed by (q^m; q^m)_inf / (q^m; q^m)_inf first.  What is
left makes no product of two dense pure-q series, and inverts none:
(q^m; q^m)_inf is the pentagonal series theta(q^m; q^(3m)), multiplied
in as a numerator and, like a pure-q theta denominator, divided out of
the finished series by its row recurrence (`qring.divide_row`) as a
denominator; every other pure-q factor (a; q^b)_inf^(+-1) is its finite
truncation, the binomials at or below the order, stepped with the
finite factors; and a factor with formal variables is Euler's series in
a (`_euler`), its coefficients read off one row 1/(q^b; q^b)_n stepped
in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from math import gcd, inf
from operator import add, sub

from .qring import (
    KeyLayout,
    Monomial,
    NotInvertible,
    QSeriesError,
    Series,
    TruncationUnsound,
    divide_row,
)

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


def _binomials(arg: Monomial, basepow: int, n: int) -> tuple[Monomial, int]:
    """(first, count): the binomials of (arg; q^basepow)_n are
    1 - first q^{bk} for k < count, in its denominator when n < 0."""
    if n >= 0:
        return arg, n
    return arg * Monomial.q(n * basepow), -n


def vanishes(arg: Monomial, basepow: int, n: int) -> bool:
    """Does (arg; q^basepow)_n, for any integer n, hold a binomial 1 - 1?"""
    if arg.vars or arg.coeff != 1:
        return False
    first = arg.qexp + basepow * min(n, 0)  # its first binomial's weight
    if first % basepow:
        return False
    return 0 <= -first // basepow < abs(n)


def reflect(arg: Monomial, basepow: int, n: int,
            expo: int = 1) -> tuple[Monomial | None, str | None] | None:
    """(arg; q^basepow)_n ^ expo, expo = +-1, as (lead, refusal), or None.

    None is the zero series (a binomial 1 - 1 in the numerator), and a
    binomial 1 - 1 in the denominator raises ZeroDivisor.  Otherwise the
    factor is `lead`, None for the unit, times binomials of q-weight >=
    0: `lead` is prod (-A)^(+-1) over the binomials 1 - A of negative
    q-weight, which leave 1 - 1/A behind, and 1/A needs A's coefficient
    to be a unit (NotInvertible).  `refusal` is the `no_inverse` text of
    a binomial of q-weight 0 that the factor divides by (`no_inverse_at`),
    or None.
    """
    first, count = _binomials(arg, basepow, n)
    power = expo if n >= 0 else -expo
    if vanishes(arg, basepow, n):
        if power > 0:
            return None
        raise ZeroDivisor(f"{'1/' if expo < 0 else ''}({arg.text()}; "
                          f"q^{basepow})_{n} divides by a vanishing factor")
    r = min(count, max(0, -(first.qexp // basepow)))  # weights below 0
    lead = None
    if r:
        if first.coeff not in (1, -1):
            raise NotInvertible(
                f"monomial coefficient {first.coeff} is not a unit")
        lead = (Monomial(-first.coeff, first.qexp, first.vars) ** r
                * Monomial.q(basepow * (r * (r - 1) // 2))) ** power
    stuck = no_inverse_at(arg, basepow) if power < 0 else None
    return lead, (stuck[1] if stuck and min(n, 0) <= stuck[0] < max(n, 0)
                  else None)


# An accumulator free of formal variables becomes a coefficient row once
# the row would hold fewer than this many entries per term (`_Stepper`).
# Measured on 13 numerator factors (q^a; q^b)_n at orders 60 to 10^5
# against products of Series, the row was 4 to 7 times as fast on dense
# factors and 2 to 3 times as slow on the sparse (q^1000; q)_20 at order
# 10^5; thresholds of 4 and 8 gave the least total time.
_ROW_PER_TERM = 4


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


def _euler(arg: Monomial, basepow: int, expo: int, order: int) -> Series:
    """(arg; q^basepow)_inf ^ expo, expo = +-1, exactly to `order`, for
    an argument with formal variables and arg.qexp >= 0, as Euler's
    series (Gasper-Rahman, eqs. (1.3.15)-(1.3.16)): [arg^n] is
    (-1)^n q^(b binom(n,2)) / (q^b; q^b)_n for the product and
    1/(q^b; q^b)_n for the reciprocal.  row[i] is the coefficient of
    q^(b i) in 1/(q^b; q^b)_n, stepped from n - 1 to n by `_recur` and
    cut, as the weight of arg^n rises, to what still reaches the order;
    those weights never fall as n grows, so the series stops at the
    first n whose weight passes the order.  No series is inverted."""
    row = [1] + [0] * (order // basepow)
    terms: dict = {}
    power = Monomial.unit()  # arg^n
    n = 0
    while True:
        lead = power if expo < 0 else power * Monomial(
            -1 if n % 2 else 1, basepow * (n * (n - 1) // 2))
        room = order - lead.qexp
        if room < 0:
            return Series._cut(terms, order, 0)
        del row[room // basepow + 1:]
        if n:
            _recur(row, 1, n)
        for i, c in enumerate(row):
            if c:
                terms[(lead.qexp + basepow * i, lead.vars)] = lead.coeff * c
        power = power * arg
        n += 1


def no_inverse(a: Monomial) -> str | None:
    """Why the binomial 1 - a, a of q-weight 0, has no inverse, in the
    words of `Series.invert`, or None when it has one: a with formal
    variables, or 1 - a.coeff not a unit."""
    if a.vars:
        return ("lowest q-level (q^0) holds 2 monomials; need a single "
                "unit monomial")
    u = 1 - a.coeff
    if u in (1, -1):
        return None
    if u == 0:
        return "zero series has no inverse"
    return f"leading coefficient {u} is not a unit"


def no_inverse_at(arg: Monomial, basepow: int) -> tuple[int, str] | None:
    """(k, why) when the binomial 1 - arg q^(bk), b = basepow, has
    q-weight 0 and no inverse, why its `no_inverse` text; else None."""
    if arg.qexp % basepow or not (why := no_inverse(arg)):
        return None
    return -arg.qexp // basepow, why


def checked_lead(lead: Monomial, reflected) -> Monomial | None:
    """`lead` times the leads in `reflected`, the `reflect` values of a
    term's factors, or None when a factor is zero.  Every factor is
    reflected first (by the caller, so that a ZeroDivisor raises even
    beside a zero factor); then, unless a factor is zero, NotInvertible
    raises for the first factor with a refusal."""
    if None in reflected:
        return None
    for _, why in reflected:
        if why:
            raise NotInvertible(why)
    for factor_lead, _ in reflected:
        if factor_lead is not None:
            lead = lead * factor_lead
    return lead


class _Stepper:
    """Sums of monomials times products of binomials, one binomial step
    at a time: the accumulator of `walk`.

    `factors` holds (arg, basepow, expo) per Pochhammer factor.  Its
    binomials at subscript L, W(L), step to L + 1 by the binomial
    (a; q^b)_(L+1) / (a; q^b)_L = 1 - a q^(bL), taken in `reflect`'s
    valuation-0 form: 1 - 1/A for a binomial 1 - A of negative q-weight,
    whose -A is in the leads.  So every step's series has q-exponents
    >= 0, and a cut at the order after each step is exact.

    A pure-q accumulator is a term dict keyed by q-exponent, or, once a
    row from q^low, low the least exponent of a lead (or 0), to the
    order would hold fewer than `_ROW_PER_TERM` fields per term, that
    row, stepped in place by `_sweep` and `_recur`.  With formal
    variables it is a dict keyed by one int (`qring.KeyLayout`): a term
    is a lead times, from each step 1 - A, a power A^j, with sum j
    weight(A) <= order - low for the A of positive q-weight, and at most
    one A of q-weight 0 per factor from each of the two walks that can
    pass it (toward a chain's anchor from either end), so the fields hold
    every exponent in play.
    """

    def __init__(self, factors, leads, order: int):
        self.factors = factors
        self.low = min([0, *(lead.qexp for lead in leads)])
        self.budget = order - self.low  # the largest step weight in play
        self.size = self.budget + 1     # fields of a row
        reach: dict[str, int] = {}
        for arg, _, _ in factors:
            for name, e in arg.vars:
                reach[name] = max(reach.get(name, 0), abs(e))
        bounds = dict.fromkeys(reach, 0)
        for lead in leads:
            for name, e in lead.vars:
                bounds[name] = max(bounds.get(name, 0), abs(e))
        steps = self.budget + 2 * len(factors) + 1
        self.layout = KeyLayout({name: b + steps * reach.get(name, 0)
                                 for name, b in bounds.items()})
        self.pure = not bounds
        self.limit = self.layout.limit(order)
        self.top = self.layout.top
        # per factor, in ints, (c, e, b, code, low, high, rise) for its
        # binomials 1 - c q^(e + b p) v, code the layout code of v: only
        # positions p in [low, high) have a weight within the budget, and
        # those below `rise` a negative one
        self.binomials = [
            (arg.coeff, arg.qexp, base, self.layout.key(0, arg.vars),
             -((self.budget + arg.qexp) // base),
             (self.budget - arg.qexp) // base + 1, -(arg.qexp // base))
            for arg, base, _ in factors]
        # the position of each factor's binomial of q-weight 0, when it
        # has no inverse
        self.stuck = [(stuck := no_inverse_at(arg, base)) and stuck[0]
                      for arg, base, _ in factors]

    def monomials(self, leads):
        """The sum of `leads` as an accumulator, cut at the order."""
        acc: dict = {}
        key, limit = self.layout.key, self.limit
        for lead in leads:
            k = key(lead.qexp, lead.vars)
            if k < limit:
                acc[k] = acc.get(k, 0) + lead.coeff
        return self.add(None, acc)

    def terms(self, acc) -> dict:
        """The term dict of an accumulator."""
        if isinstance(acc, list):
            return {(self.low + i, ()): c for i, c in enumerate(acc) if c}
        return self.layout.terms(acc, lifted=False)

    def passes(self, chain, old, new) -> bool:
        """Can `rebase` take a sum from subscripts `old` to `new`?"""
        for k, a, b in zip(chain, old, new):
            p = self.stuck[k]
            if p is not None and min(a, b) <= p < max(a, b) and (
                    self.factors[k][2] if a > b else -self.factors[k][2]) < 0:
                return False
        return True

    def rebase(self, acc, chain, old, new):
        """acc * W(old) / W(new) for the factors `chain`, one binomial
        step at a time, each skipped when its weight passes the budget.
        A binomial 1 - A of negative weight steps as 1 - 1/A: the weight
        and the code negated, the coefficient kept, as it is its own
        inverse when it is a unit."""
        for k, a, b in zip(chain, old, new):
            if a == b:
                continue
            c, e, base, code, low, high, rise = self.binomials[k]
            expo = self.factors[k][2]
            if a < b:
                lo, hi, divide = a, b, expo > 0
            else:
                lo, hi, divide = b, a, expo < 0
            # the positions in play, those of negative weight first
            lo, hi = max(lo, low), min(hi, high)
            rise = min(hi, rise)
            if lo < rise:
                if c not in (1, -1):
                    raise NotInvertible(
                        f"monomial coefficient {c} is not a unit")
                for p in range(lo, rise):
                    acc = self.step(acc, c, -e - base * p, -code, divide)
                lo = rise
            for p in range(lo, hi):
                acc = self.step(acc, c, e + base * p, code, divide)
        return acc

    def step(self, acc, c: int, s: int, code: int, divide: bool):
        """acc * (1 - x) or acc / (1 - x), cut at the order, for the
        binomial x = c q^s times the variables of layout code `code`."""
        if s == 0 and not code:  # a constant, a unit when it divides
            u = 1 - c
            if isinstance(acc, list):
                acc[:] = [u * v for v in acc]
                return acc
            return {k: u * v for k, v in acc.items()}
        if isinstance(acc, list):
            (_recur if divide else _sweep)(acc, c, s)
            return acc
        kx, limit = (s << self.top) + code, self.limit
        if not divide:
            if self.pure and self.size < _ROW_PER_TERM * len(acc):
                return self.step(self.row(acc), c, s, code, divide)
            get = acc.get
            for k, v in list(acc.items()):
                n = k + kx
                if n < limit:
                    acc[n] = get(n, 0) - c * v
            return acc
        # out[k] = acc[k] + c out[k - kx], walked up each line k + j kx
        # from its least key
        starts: dict = {}
        for k in acc:
            r = k % kx
            if r not in starts or k < starts[r]:
                starts[r] = k
        if self.pure and self.size < _ROW_PER_TERM * sum(
                (limit - 1 - k) // kx + 1 for k in starts.values()):
            return self.step(self.row(acc), c, s, code, divide)
        out = {}
        get = acc.get
        for k in starts.values():
            run = 0
            while k < limit:
                run = run * c + get(k, 0)
                if run:
                    out[k] = run
                k += kx
        return out

    def add(self, acc, other):
        """acc + other, either None for zero; a pure-q dict becomes a row
        once the row is dense enough."""
        if acc is None or other is None:
            acc = other if acc is None else acc
        elif isinstance(acc, list):
            if isinstance(other, list):
                acc[:] = map(add, acc, other)
            else:
                low = self.low
                for k, v in other.items():
                    acc[k - low] += v
        elif isinstance(other, list):
            return self.add(other, acc)
        else:
            if len(acc) < len(other):
                acc, other = other, acc
            get = acc.get
            for k, v in other.items():
                acc[k] = get(k, 0) + v
        if self.pure and isinstance(acc, dict) and \
                self.size < _ROW_PER_TERM * len(acc):
            return self.row(acc)
        return acc

    def row(self, acc: dict) -> list[int]:
        """A pure-q dict as a row from q^low to the order."""
        row = [0] * self.size
        low = self.low
        for k, v in acc.items():
            row[k - low] = v
        return row


class _Chains(_Stepper):
    """The chain walk of `walk`: Horner's rule along each index, on the
    accumulator of `_Stepper`.

    A factor belongs to the last index its subscript reads, its depth,
    and the kids of a prefix, grouped by that index, form a chain.
    W(L), the product of the chain's factors at subscripts L, steps from
    one subscript to the next by one binomial (`_Stepper.rebase`), so
    sum_i U_i W(L_i) is Horner's rule from both ends of the chain toward
    its anchor, the kid with the fewest binomials: each step multiplies
    or divides by one binomial and cuts at the order, and the anchor's
    own binomials come last, as steps from L = 0.  A step that would
    divide by a binomial of q-weight 0 with no inverse ends the chain's
    segment (`_Stepper.passes`), and the kids beyond it get their own
    anchor.
    """

    def __init__(self, factors, depths, leads, order: int):
        super().__init__(factors, leads, order)
        self.bottom = max(depths, default=0)
        # the factors of each index d, by the chain they form there
        self.chains = [[k for k, dk in enumerate(depths) if dk == d + 1]
                       for d in range(self.bottom)]

    def value(self, leaves, d: int):
        """The sum of `leaves`, which share their first d indices, times
        the binomials of the factors of index d and later."""
        if d == self.bottom:
            return self.monomials(lead for _, lead, _ in leaves)
        # the points come grouped by prefix, as in the sorted support
        kids = [list(g) for _, g in groupby(leaves, key=lambda p: p[0][d])]
        chain = self.chains[d]
        subs = [[kid[0][2][k] for k in chain] for kid in kids]
        acc = None
        for s, m, e in self.segments(chain, subs):
            up = down = None
            for i in range(e, m, -1):
                up = self.add(up, self.value(kids[i], d + 1))
                up = self.rebase(up, chain, subs[i], subs[i - 1])
            for i in range(s, m):
                down = self.add(down, self.value(kids[i], d + 1))
                down = self.rebase(down, chain, subs[i], subs[i + 1])
            seg = self.add(self.add(up, down), self.value(kids[m], d + 1))
            acc = self.add(acc, self.rebase(seg, chain, subs[m],
                                            [0] * len(chain)))
        return acc

    def segments(self, chain, subs) -> list[tuple[int, int, int]]:
        """(s, m, e) per segment: kids s..e, anchored at m, that Horner's
        rule reaches with no step through a binomial it cannot divide by."""
        out, todo = [], [(0, len(subs))]
        while todo:
            lo, hi = todo.pop()
            if lo >= hi:
                continue
            m = min(range(lo, hi), key=lambda i: sum(map(abs, subs[i])))
            s = e = m
            while s > lo and self.passes(chain, subs[s - 1], subs[s]):
                s -= 1
            while e + 1 < hi and self.passes(chain, subs[e + 1], subs[e]):
                e += 1
            out.append((s, m, e))
            todo += [(lo, s), (e + 1, hi)]
        return out


def walk(factors, depths, leaves, order: int) -> tuple[dict, int]:
    """(terms, floor): the sum over `leaves` of lead * prod (arg; q^b)_n
    ^expo, cut at `order`, every coefficient nonzero, and the least
    q-exponent of a lead or 0, below which no term lies.

    `factors` holds (arg, basepow, expo) with expo = +-1, and `depths`
    the number of indices each factor's subscript reads, 0 for a
    constant one.  `leaves` yields (point, lead, subscripts), grouped by
    prefix of the points, and is read one leaf at a time, so a bad point
    raises before any later point is read.  At a leaf every factor is
    reflected (`reflect`, once per subscript value), then `checked_lead`
    drops the leaf or raises.  The kept leaves are one `_Chains` walk,
    whose factors of constant subscript are stepped from L = 0 last; it
    runs in q^g to order // g, g the gcd of every lead's q-exponent and
    every argument's q-exponent and base, and its terms are stretched
    back.
    """
    seen: list[dict] = [{} for _ in factors]
    g = gcd(*(e for arg, b, _ in factors for e in (arg.qexp, b)))
    kept = []
    for point, lead, ns in leaves:
        reflected = []
        for memo, (arg, b, expo), n in zip(seen, factors, ns):
            try:
                value = memo[n]
            except KeyError:
                value = memo[n] = reflect(arg, b, n, expo)
            reflected.append(value)
        lead = checked_lead(lead, reflected)
        if lead is not None:
            kept.append((point, lead, ns))
            if g != 1:
                g = gcd(g, lead.qexp)
    if not kept:
        return {}, 0
    g = g or 1
    if g > 1:
        factors = [(_shrink(arg, g), b // g, expo) for arg, b, expo in factors]
        kept = [(point, _shrink(lead, g), ns) for point, lead, ns in kept]
    chains = _Chains(factors, depths, [lead for _, lead, _ in kept],
                     order // g)
    const = [k for k, d in enumerate(depths) if d == 0]
    ns = kept[0][2]
    terms = chains.terms(chains.rebase(
        chains.value(kept, 0), const, [ns[k] for k in const],
        [0] * len(const)))
    if g > 1:
        terms = {(g * qe, vk): c for (qe, vk), c in terms.items()}
    return terms, g * chains.low


def expand_factors(lead: Monomial, factors, order: int) -> Series:
    """lead * prod (arg; q^b)_n^expo over `factors`, (arg, basepow, n,
    expo) with expo = +-1 and any integer n: the `walk` of one leaf.  A
    product dipping below q^0 keeps its floor there and its order at
    `order`."""
    terms, floor = walk([(arg, b, expo) for arg, b, _, expo in factors],
                        [0] * len(factors),
                        [((), lead, [n for _, _, n, _ in factors])], order)
    return Series._cut(terms, order, floor)


def _shrink(m: Monomial, g: int) -> Monomial:
    """m with q -> q^(1/g), g dividing its q-exponent."""
    return Monomial._of(m.coeff, m.qexp // g, m.vars)


def _poch(arg: Monomial, basepow: int, n: int, expo: int,
          order: int | None) -> Series:
    if (n >= 0) == (expo > 0):  # a polynomial
        if order is None or arg.coeff not in (1, -1):
            return _multiplied_out(arg, basepow, n, order)
    elif order is None:
        raise ValueError("an inverse factorial needs a truncation order")
    return expand_factors(Monomial.unit(), [(arg, basepow, n, expo)], order)


def _multiplied_out(arg: Monomial, basepow: int, n: int,
                    order: int | None) -> Series:
    """The binomials of (arg; q^basepow)_n multiplied out: the exact
    polynomial, or its truncation at `order`.  None is reflected, so
    none needs an inverse.  Terms are keyed by one int
    (`qring.KeyLayout`), so a binomial 1 - A is one pass over the terms
    that adds A's key.  The binomials rise in weight, so at an order
    they stop at the first whose weight passes order - low, low the sum
    of the negative weights, and a term above the order less the
    negative weights still to come is never made."""
    first, count = _binomials(arg, basepow, n)
    c, e = first.coeff, first.qexp
    r = min(count, max(0, -(e // basepow)))  # weights below 0
    low = rest = r * e + basepow * (r * (r - 1) // 2)
    if order is not None:
        count = min(count, max(0, (order - low - e) // basepow + 1))
    layout = KeyLayout({name: count * abs(x) for name, x in first.vars})
    kx, rise = layout.key(e, first.vars), layout.key(basepow, ())
    acc = {0: 1}
    for k in range(count):
        rest -= min(0, e + basepow * k)
        limit = inf if order is None else layout.limit(order - rest)
        get = acc.get
        for key, v in list(acc.items()):
            if key + kx < limit:
                acc[key + kx] = get(key + kx, 0) - c * v
        kx += rise
    terms = layout.terms(acc, lifted=False)
    if order is None:
        return Series.poly(terms)
    return Series._cut({k: v for k, v in terms.items() if k[0] <= order},
                       order, low)


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
    return expand_product_spec(ProductSpec((FactorSpec(arg, basepow),)),
                               order)


def _truncatable(arg: Monomial, basepow: int) -> None:
    """Refuse an infinite factor whose argument has no positive q-weight."""
    if arg.qexp < 1:
        raise NotTruncatable(
            f"({arg.text()}; q^{basepow})_inf: argument carries no positive "
            "q-weight, the product never stabilizes below the order")


def closed_factors(spec: ProductSpec, order: int):
    """(finite, infinite): the factors of `spec` as `expand_closed` takes
    them, after every refusal of a product side, in statement order: an
    infinite factor whose argument has no positive q-weight, then the
    finite factors (`checked_lead`), then a negative valuation v.  Such
    a side fails as its product factor by factor fails: the finite
    factors make a series of valuation v sound to `order`, and an
    infinite factor, of valuation 0 and sound to `order`, cuts the
    product's order to order + v, TruncationUnsound below q^0 (the rule
    of `Series.__mul__`).  `infinite` holds (arg, basepow, expo)."""
    finite, infinite = [], []
    for f in spec.factors:
        expo = 1 if f.expo > 0 else -1
        if f.count is not INF:
            finite += [(f.arg, f.basepow, f.count, expo)] * abs(f.expo)
            continue
        _truncatable(f.arg, f.basepow)
        infinite.append((f.arg, f.basepow, f.expo))
    lead = checked_lead(spec.prefactor, [reflect(*f) for f in finite])
    if lead is not None and lead.qexp < 0:
        if infinite and order + lead.qexp < 0:
            raise TruncationUnsound(
                "product of truncated series with negative valuations "
                f"retains no sound coefficients (cap {order + lead.qexp})")
        raise QSeriesError(
            f"product expansion has negative q-valuation {lead.qexp}; "
            "not a power series")
    return finite, infinite


def expand_product_spec(spec: ProductSpec, order: int) -> Series:
    """prefactor * prod factor^expo, exactly to `order`.

    Deterministic and independent of factor ordering (the arithmetic is
    exact).  Raises if the result would dip below q^0, which a
    well-formed product side never does.
    """
    return expand_closed(spec.prefactor, *closed_factors(spec, order), order)


def expand_closed(prefactor: Monomial, finite, infinite,
                  order: int) -> Series:
    """prefactor * prod `finite` * prod `infinite`, exactly to `order`.

    `finite` holds (arg, basepow, n, expo) with expo = +-1; `infinite`
    holds (arg, basepow, expo), each factor closed: arg.qexp >= 1, or
    arg.qexp >= 0 with formal variables in a numerator of the z layer.
    `_rewrite` takes the infinite factors to their normal form, and no
    product of two dense pure-q series is left:

    - the finite factors, old and telescoped, and every pure-q factor
      (a; q^b)_inf^(+-1) left but (q^m; q^m)_inf, as its truncation
      (a; q^b)_n to the n binomials at or below the order, are the
      `walk` of one leaf (`expand_factors`);
    - each factor with formal variables, Euler's series (`_euler`), and
      each (q^m; q^m)_inf numerator, the pentagonal series
      theta(q^m; q^(3m)) (Andrews, *The Theory of Partitions*, ch. 1), in
      `_rewrite`'s order, then each theta numerator, is a piece
      multiplied in;
    - each pure-q theta denominator and each (q^m; q^m)_inf denominator
      is divided out of the finished series.
    """
    telescoped, thetas, rest = _rewrite(infinite)
    stepped, pieces, dens = finite + telescoped, [], []
    for (arg, b), e in rest.items():
        s = 1 if e > 0 else -1
        if arg.vars:
            pieces += [_euler(arg, b, s, order)] * abs(e)
        elif arg == Monomial.q(b):  # Euler's pentagonal theorem
            (pieces if e > 0 else dens).extend(
                [theta(arg, 3 * b, order)] * abs(e))
        else:
            n = max(0, (order - arg.qexp) // b + 1)
            stepped += [(arg, b, n, s)] * abs(e)
    for (arg, b), e in thetas.items():
        (pieces if e > 0 else dens).extend([theta(arg, b, order)] * abs(e))
    series = expand_factors(prefactor, stepped, order)
    if pieces and series.terms == {(0, ()): 1}:  # 1 * piece is the piece
        series, pieces = pieces[0], pieces[1:]
    for piece in pieces:
        series = series * piece
    for den in dens:
        series = _divide(series, den)
    return series


def _rewrite(infinite):
    """(finite, thetas, rest): the closed infinite factors `infinite`,
    (arg, basepow, expo) in statement order, as the finite factors
    `finite`, theta(A; q^m)^e for ((A, m), e) in `thetas` and
    (arg; q^b)_inf^e for ((arg, b), e) in `rest`.  Each rule is an
    identity of formal power series, and each fires only on factors
    given here, never on the open factor of the z layer:

    1. equal factors net: (a; q^b)^e (a; q^b)^f = (a; q^b)^(e+f);
    2. a quotient telescopes: (a; q^b)^s / (a q^(bk); q^b)^s is the
       finite (a; q^b)_k^s, k >= 1, the factors of one line a q^(bZ)
       matched like brackets, nearest first;
    3. a triple (A; q^m)(q^m/A; q^m)(q^m; q^m) at one exponent, +1, or
       -1 for pure q, is theta(A; q^m)^(+-1) (Jacobi's triple product,
       Gasper-Rahman, *Basic Hypergeometric Series*, Sec. 1.6);
    4. a pure-q reciprocal pair 1/((A; q^m)(q^m/A; q^m)) is
       (q^m; q^m) / theta(A; q^m).

    A lone (q^m; q^m)_inf^(+-1) is left to `expand_closed`, which
    takes it by the pentagonal theorem.
    """
    net: dict[tuple[Monomial, int], int] = {}
    for arg, b, e in infinite:
        net[arg, b] = net.get((arg, b), 0) + e
    finite = []
    lines: dict = {}
    for arg, b in net:
        lines.setdefault((arg.coeff, arg.vars, b, arg.qexp % b),
                         []).append((arg, b))
    for line in lines.values():
        stack: list = []  # unmatched factors, all of one sign
        for key in sorted(line, key=lambda k: k[0].qexp):
            e = net[key]
            while e and stack and (net[stack[-1]] > 0) != (e > 0):
                low = stack[-1]
                s = 1 if net[low] > 0 else -1
                t = min(abs(net[low]), abs(e))
                arg, b = low
                finite += [(arg, b, (key[0].qexp - arg.qexp) // b, s)] * t
                net[low] -= s * t
                e += s * t
                if not net[low]:
                    stack.pop()
            net[key] = e
            if e:
                stack.append(key)

    def take(keys, s: int) -> int:
        """Take the product of `keys` to the power s out of `net` as many
        times t as it goes, and return t."""
        need: dict = {}
        for key in keys:
            need[key] = need.get(key, 0) + 1
        t = max(0, min(s * net.get(key, 0) // n for key, n in need.items()))
        if t:
            for key, n in need.items():
                net[key] -= s * t * n
        return t

    thetas: dict[tuple[Monomial, int], int] = {}
    for arg, b in list(net):
        e = net[arg, b]
        if e and arg.coeff in (1, -1) and not (arg.vars and e < 0):
            s = 1 if e > 0 else -1
            mate = (Monomial.q(b) * arg.inverse(), b)
            thetas[arg, b] = s * take([(arg, b), mate, (Monomial.q(b), b)], s)
    for arg, b in list(net):
        if net[arg, b] < 0 and not arg.vars and arg.coeff in (1, -1):
            t = take([(arg, b), (Monomial.q(b) * arg.inverse(), b)], -1)
            base = (Monomial.q(b), b)
            net[base] = net.get(base, 0) + t
            thetas[arg, b] = thetas.get((arg, b), 0) - t
    return (finite, {k: e for k, e in thetas.items() if e},
            {k: e for k, e in net.items() if e})


def theta(arg: Monomial, basepow: int, order: int) -> Series:
    """theta(a; q^m) = (a; q^m)_inf (q^m/a; q^m)_inf (q^m; q^m)_inf, m =
    basepow, as its sum over n in Z of (-1)^n a^n q^(m binom(n, 2))
    (Gasper-Rahman, eq. (1.6.1)), cut at `order`: O(sqrt(order)) terms.
    The caller has checked both arguments closed, so a has q-weight in
    [0, m], and the weights never fall as n runs up from 0 or down
    from -1."""
    terms: dict = {}
    for n, step, by in ((0, 1, arg), (-1, -1, arg.inverse())):
        power = arg ** n
        while (w := power.qexp + basepow * (n * (n - 1) // 2)) <= order:
            key = (w, power.vars)
            terms[key] = terms.get(key, 0) + (
                -power.coeff if n % 2 else power.coeff)
            power, n = power * by, n + step
    return Series._cut({k: c for k, c in terms.items() if c}, order, 0)


def _divide(series: Series, den: Series) -> Series:
    """series / den, den pure q with constant term 1, one
    `qring.divide_row` per monomial in the formal variables."""
    den_row = {qe: c for (qe, _), c in den.terms.items()}
    rows: dict = {}
    for (qe, vk), c in series.terms.items():
        rows.setdefault(vk, {})[qe] = c
    terms = {}
    for vk, row in rows.items():
        low = min(row)
        out = divide_row([row.get(i, 0) for i in range(low, series.order + 1)],
                         den_row)
        terms.update(((low + i, vk), c) for i, c in enumerate(out) if c)
    return Series._cut(terms, series.order, series.floor)
