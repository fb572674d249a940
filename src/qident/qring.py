"""Truncated multivariate Laurent series over the integers.

The distinguished variable ``q`` is graded: a series is stored term-exactly
up to a truncation order N in q, and every operation tracks how far the
result is still trustworthy.  Additional formal variables (``x``, ``y``,
``u``, ...) carry no q-weight; the coefficient of each power of q is a
Laurent polynomial in them with exact integer coefficients.

Terms are kept sparsely in a dict keyed by ``(qexp, vars)`` where ``vars``
is a tuple of ``(name, exponent)`` pairs sorted by name with zero exponents
dropped.

A series' ``order`` is its one truncation state.  A finite Laurent
polynomial known in full is a series of order ``EXACT``, infinity: the
one float in the module, which never reaches a coefficient or exponent.
Negative q-exponents are allowed down to a series' ``floor``, the lowest
q-exponent its window admits.  A sum is known to the smaller order; a
product to min(order_a + val_b, order_b + val_a), the largest sound
order, which is ``EXACT`` only when both operands are.

Products go through `_convolve`, which keys each term by one int
(`KeyLayout`, which the sum walk shares): the q-exponent in the top bits
and the formal variables' exponents in signed fields below, each wide
enough for a sum of two operand exponents.  Merging two monomials is
then one integer add.  No product side multiplies two dense pure-q
rows: it steps its pure-q factors in one binomial walk and multiplies in
theta series of O(sqrt(order)) terms (`qfactorial.expand_closed`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

VKey = tuple[tuple[str, int], ...]
TermKey = tuple[int, VKey]

RESERVED_BASE = "q"

EXACT = math.inf  # the order of a series known in full


class QSeriesError(Exception):
    """Base class for everything raised by the q-series kernel."""


class NotInvertible(QSeriesError):
    """The lowest q-level of a series is not a single unit monomial."""


class QueryBeyondOrder(QSeriesError):
    """A coefficient past the truncation order was requested."""


class TruncationUnsound(QSeriesError):
    """An operation cannot deliver the requested order exactly."""


def _normalize_vars(vars: Mapping[str, int] | Iterable[tuple[str, int]] | VKey) -> VKey:
    if isinstance(vars, Mapping):
        items = vars.items()
    else:
        items = vars
    cleaned = []
    for name, exp in items:
        if exp == 0:
            continue
        if not name or name == RESERVED_BASE:
            raise ValueError(f"bad formal variable name {name!r}")
        cleaned.append((name, int(exp)))
    cleaned.sort()
    names = [n for n, _ in cleaned]
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable in monomial")
    return tuple(cleaned)


def _vmul(a: VKey, b: VKey) -> VKey:
    """Merge two sorted exponent tuples, summing exponents."""
    if not a:
        return b
    if not b:
        return a
    out: dict[str, int] = dict(a)
    for name, exp in b:
        e = out.get(name, 0) + exp
        if e:
            out[name] = e
        else:
            del out[name]
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class Monomial:
    """A single exact term ``coeff * q^qexp * prod(var^exp)``."""

    coeff: int = 1
    qexp: int = 0
    vars: VKey = ()

    def __post_init__(self):
        object.__setattr__(self, "vars", _normalize_vars(self.vars))

    @classmethod
    def _of(cls, coeff: int, qexp: int, vars: VKey) -> "Monomial":
        """A monomial whose `vars` are already normalized: no re-validation.
        The fields go straight into the instance dict, which a frozen
        dataclass leaves writable, at a third of the cost of three
        `object.__setattr__` calls."""
        m = object.__new__(cls)
        fields = m.__dict__
        fields["coeff"] = coeff
        fields["qexp"] = qexp
        fields["vars"] = vars
        return m

    @classmethod
    def unit(cls) -> "Monomial":
        return cls._of(1, 0, ())

    @classmethod
    def q(cls, e: int = 1, coeff: int = 1) -> "Monomial":
        return cls._of(coeff, e, ())

    @classmethod
    def var(cls, name: str, e: int = 1, qexp: int = 0, coeff: int = 1) -> "Monomial":
        return cls(coeff, qexp, ((name, e),))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial._of(self.coeff * other.coeff, self.qexp + other.qexp,
                            _vmul(self.vars, other.vars))

    def __pow__(self, n: int) -> "Monomial":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Monomial.unit()
        return Monomial._of(self.coeff ** n, self.qexp * n,
                            tuple((name, e * n) for name, e in self.vars))

    def inverse(self) -> "Monomial":
        if self.coeff not in (1, -1):
            raise NotInvertible(f"monomial coefficient {self.coeff} is not a unit")
        return Monomial._of(self.coeff, -self.qexp,
                            tuple((n, -e) for n, e in self.vars))

    def key(self) -> TermKey:
        return (self.qexp, self.vars)

    def text(self) -> str:
        return _term_text(self.qexp, self.vars, self.coeff)


def _term_text(qexp: int, vars: VKey, coeff: int) -> str:
    out = f"{coeff}*q^{qexp}"
    for name, exp in vars:
        out += f"*{name}^{exp}"
    return out


class Series:
    """A Laurent series in q (with formal variables), exact up to `order`.

    ``terms`` maps ``(qexp, vars)`` to a nonzero int.  ``order`` is the last
    q-exponent whose coefficient is complete, ``EXACT`` for a polynomial
    known in full.  ``floor`` is the lower edge of the admitted window.
    """

    __slots__ = ("terms", "order", "floor", "_valuation")

    def __init__(self, terms: dict[TermKey, int], order: int = EXACT,
                 floor: int = 0):
        clean: dict[TermKey, int] = {}
        for (qe, vk), c in terms.items():
            if c == 0 or qe > order:
                continue
            if qe < floor:
                raise ValueError(f"term q^{qe} below declared floor {floor}")
            clean[(qe, vk)] = c
        self.terms = clean
        self.order = order
        self.floor = floor

    # -- constructors ------------------------------------------------------

    @classmethod
    def _cut(cls, terms: dict[TermKey, int], order: int, floor: int) -> "Series":
        """A series from a term dict the kernel has already cut: every
        coefficient nonzero, every q-exponent in [floor, order].  Unlike
        the public constructor it neither copies nor re-filters."""
        s = object.__new__(cls)
        s.terms = terms
        s.order = order
        s.floor = floor
        return s

    @classmethod
    def zero(cls, order: int = EXACT) -> "Series":
        return cls({}, order)

    @classmethod
    def one(cls, order: int = EXACT) -> "Series":
        return cls({(0, ()): 1}, order)

    @classmethod
    def poly(cls, terms: Mapping[TermKey, int]) -> "Series":
        """Exact Laurent polynomial; its floor derived from the support."""
        bottom = min((qe for (qe, _), c in terms.items() if c), default=0)
        return cls(dict(terms), EXACT, min(0, bottom))

    @classmethod
    def from_monomial(cls, m: Monomial) -> "Series":
        return cls.poly({m.key(): m.coeff})

    @classmethod
    def from_qcoeffs(cls, coeffs: Iterable[int], order: int | None = None) -> "Series":
        """Build a pure-q series from a coefficient list starting at q^0."""
        coeffs = list(coeffs)
        if order is None:
            order = max(0, len(coeffs) - 1)
        return cls({(i, ()): c for i, c in enumerate(coeffs) if c}, order)

    # -- inspection --------------------------------------------------------

    @property
    def exact(self) -> bool:
        """Is the series a polynomial known in full?"""
        return self.order == EXACT

    def _last(self, order: int) -> int:
        """`order`, or for ``EXACT`` the top q-exponent (at least 0)."""
        if order < EXACT:
            return order
        return max([0, *(qe for qe, _ in self.terms)])

    @property
    def valuation(self) -> int | None:
        """Least q-exponent with a nonzero term, or None for the zero series."""
        try:
            return self._valuation
        except AttributeError:  # first call: `terms` never change after it
            self._valuation = min((qe for qe, _ in self.terms), default=None)
            return self._valuation

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, qexp: int, vars: Mapping[str, int] | VKey = ()) -> int:
        if qexp > self.order:
            raise QueryBeyondOrder(f"coefficient of q^{qexp} beyond order {self.order}")
        return self.terms.get((qexp, _normalize_vars(vars)), 0)

    def qcoeffs(self, upto: int | None = None) -> list[int]:
        """Coefficient list [q^0 .. q^upto] for a series free of formal variables."""
        n = self._last(self.order) if upto is None else upto
        if n > self.order:
            raise QueryBeyondOrder(f"order {self.order} < requested {n}")
        out = [0] * (n + 1)
        for (qe, vk), c in self.terms.items():
            if vk:
                raise ValueError("series has formal variables; no flat q-coefficient list")
            if 0 <= qe <= n:
                out[qe] = c
            elif qe < 0:
                raise ValueError("negative q-exponent present")
        return out

    # -- structural helpers ------------------------------------------------

    def truncate(self, order: int, floor: int | None = None) -> "Series":
        """Drop knowledge above `order` (and optionally raise the floor)."""
        if order > self.order:
            raise TruncationUnsound(f"cannot extend order {self.order} to {order}")
        fl = self.floor if floor is None else floor
        kept = {k: c for k, c in self.terms.items() if fl <= k[0] <= order}
        return Series._cut(kept, order, fl)

    def mul_monomial(self, m: Monomial) -> "Series":
        order, floor = self.order + m.qexp, self.floor + m.qexp
        if not m.coeff:
            return Series._cut({}, order, floor)
        # one merge of variables per distinct vars, not per term
        moved = {vk: _vmul(vk, m.vars) for vk in {vk for _, vk in self.terms}}
        terms = {(qe + m.qexp, moved[vk]): c * m.coeff
                 for (qe, vk), c in self.terms.items()}
        return Series._cut(terms, order, floor)

    def scale(self, c: int) -> "Series":
        return Series({k: c * v for k, v in self.terms.items()},
                      self.order, self.floor)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        order = min(self.order, other.order)
        floor = min(self.floor, other.floor)
        terms = {k: c for k, c in self.terms.items() if k[0] <= order}
        for k, c in other.terms.items():
            if k[0] <= order:
                terms[k] = terms.get(k, 0) + c
        return Series(terms, order, floor)

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        if self.is_zero() or other.is_zero():
            # A zero has no valuation; a partner's negative one lowers
            # the order all the same.
            low = min([0, *(s.valuation for s in (self, other) if s.terms)])
            return Series({}, min(self.order, other.order) + low)
        cap = min(self.order + other.valuation, other.order + self.valuation)
        if cap < 0:
            raise TruncationUnsound(
                "product of truncated series with negative valuations retains "
                f"no sound coefficients (cap {cap})")
        terms = _convolve(self.terms, other.terms, cap)
        return Series._cut(terms, cap, min(0, self.floor + other.floor))

    def invert(self, order: int | None = None) -> "Series":
        """Multiplicative inverse, sound to `order`.

        The lowest q-level of the series must consist of a single monomial
        with coefficient +-1 (the unit-monomial factoring rule); otherwise
        the inverse has no representation with Laurent-polynomial
        q-coefficients and NotInvertible is raised.
        """
        if self.is_zero():
            raise NotInvertible("zero series has no inverse")
        v = self.valuation
        level = [(vk, c) for (qe, vk), c in self.terms.items() if qe == v]
        if len(level) != 1:
            raise NotInvertible(
                f"lowest q-level (q^{v}) holds {len(level)} monomials; "
                "need a single unit monomial")
        vk, c = level[0]
        if c not in (1, -1):
            raise NotInvertible(f"leading coefficient {c} is not a unit")
        m = Monomial(c, v, vk)
        if order is None:
            order = self._last(self.order - 2 * v)
        if order > self.order - 2 * v:
            raise TruncationUnsound(
                f"inverse sound only to order {self.order - 2 * v}, "
                f"requested {order}")
        if order == EXACT:
            if len(self.terms) > 1:
                raise TruncationUnsound(
                    "the inverse of a polynomial that is not a monomial is "
                    "an infinite series; request a finite order")
            return Series.from_monomial(m.inverse())
        # u = self / m has constant term exactly 1 at q^0.
        u = self.mul_monomial(m.inverse())
        depth = order + v  # inverse of u is needed to this q-grade
        if depth < 0:
            return Series({}, order, min(0, -v))
        if all(not k for _, k in self.terms):  # pure q: one row recurrence
            row = divide_row([1] + [0] * depth,
                             {qe: c2 for (qe, _), c2 in u.terms.items()})
            return Series._cut({(g - v, ()): c * c2 for g, c2 in enumerate(row)
                                if c2}, order, min(0, -v))
        grades: dict[int, dict[VKey, int]] = {}
        for (qe, vk2), c2 in u.terms.items():
            if qe == 0:
                continue
            if qe <= depth:
                grades.setdefault(qe, {})[vk2] = c2
        inv: dict[int, dict[VKey, int]] = {0: {(): 1}}
        for g in range(1, depth + 1):
            acc: dict[VKey, int] = {}
            for h, level_h in grades.items():
                if h > g:
                    continue
                prev = inv.get(g - h)
                if not prev:
                    continue
                for vk1, c1 in level_h.items():
                    for vk2, c2 in prev.items():
                        k = _vmul(vk1, vk2)
                        acc[k] = acc.get(k, 0) - c1 * c2
            acc = {k: c for k, c in acc.items() if c}
            if acc:
                inv[g] = acc
        terms: dict[TermKey, int] = {}
        minv = m.inverse()
        for g, level_g in inv.items():
            for vk2, c2 in level_g.items():
                terms[(g + minv.qexp, _vmul(vk2, minv.vars))] = c2 * minv.coeff
        return Series._cut(terms, order, min(0, -v))

    def rescale_base(self, d: int) -> "Series":
        """Substitute q -> q^d, stretching exponents, order and floor by d."""
        if d < 1:
            raise ValueError("rescale factor must be a positive integer")
        terms = {(qe * d, vk): c for (qe, vk), c in self.terms.items()}
        return Series(terms, self.order * d, self.floor * d)

    # -- comparison / text ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list[tuple[TermKey, int]]:
        """Terms graded by q-exponent, then lexicographically by variables."""
        return sorted(self.terms.items())

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_term_text(qe, vk, c) for (qe, vk), c in self.sorted_terms())

    def __repr__(self) -> str:
        tail = "" if self.exact else f" + O(q^{self.order + 1})"
        return f"<Series {self.to_text()}{tail}>"


def divide_row(num: list[int], den: Mapping[int, int]) -> list[int]:
    """num / den as a row as long as `num`, both pure q from q^0, den
    given as {exponent: coefficient} with den[0] = 1: out[i] = num[i] -
    sum over e >= 1 of den[e] out[i - e], one sum of products per
    coefficient.  A sparse den (a theta series, with O(sqrt(len(num)))
    terms) is read at its exponents, a dense one as one reversed row
    against a slice of the output: the dense loop makes one multiply per
    field, zeros included, the sparse one about three calls per term, so
    a den filling under a quarter of its span counts as sparse (a
    rounded ratio, not a fitted one)."""
    from itertools import repeat  # here, so that loading qring imports
    from operator import mul, sub  # no module beyond its own list
    es = sorted(e for e in den if 0 < e < len(num))
    top = es[-1] if es else 0
    out = [0] * top  # out[top + i] is the coefficient of q^i
    if 4 * len(es) < top:
        cs = [-den[e] for e in es]
        for i, c in enumerate(num, top):
            out.append(c + sum(map(mul, cs, map(out.__getitem__,
                                                map(sub, repeat(i), es)))))
    else:
        rev = [-den.get(e, 0) for e in range(top, 0, -1)]
        for i, c in enumerate(num, top):
            out.append(c + sum(map(mul, rev, out[i - top:i])))
    return out[top:]


class KeyLayout:
    """One-int keys for the terms q^e prod names[i]^x_i.

    The key of a term is (e << top) + sum x_i << shift_i: each x_i a
    signed field of its own width, last name lowest.  A field of `bits`
    bits holds |x_i| < half = 2^(bits-1); while every field of every
    term in play does, keys add as their monomials multiply, and a key
    plus `lift`, half in every field, holds each field as a digit in
    [0, 2^bits), so that e is that sum >> top.  `bounds` gives each
    name's largest |x_i|, which the caller proves.
    """

    def __init__(self, bounds: Mapping[str, int]):
        self.shift: dict[str, int] = {}
        self.top = 0
        self.lift = 0
        self._fields: list[tuple[str, int, int]] = []  # name, shift, half
        for name in sorted(bounds, reverse=True):
            bits = bounds[name].bit_length() + 1
            self.shift[name] = self.top
            self._fields.append((name, self.top, 1 << bits - 1))
            self.lift += 1 << self.top + bits - 1
            self.top += bits
        self._fields.reverse()
        self._codes: dict[VKey, int] = {(): 0}
        self._vks: dict[int, VKey] = {}

    def key(self, qe: int, vk: VKey) -> int:
        code = self._codes.get(vk)
        if code is None:
            code = self._codes[vk] = sum(e << self.shift[n] for n, e in vk)
        return (qe << self.top) + code

    def limit(self, order: int) -> int:
        """The least key of a term above q^order: keys below it are the
        terms at or below the order."""
        return ((order + 1) << self.top) - self.lift

    def terms(self, keyed: dict[int, int], lifted: bool) -> dict[TermKey, int]:
        """The term dict of `keyed`, zero coefficients dropped; its keys
        carry `lift` already when `lifted`."""
        top = self.top
        if not top:
            return {(k, ()): c for k, c in keyed.items() if c}
        lift = 0 if lifted else self.lift
        mask = (1 << top) - 1
        vks = self._vks
        out = {}
        for k, c in keyed.items():
            if c:
                k += lift
                low = k & mask
                vk = vks.get(low)
                if vk is None:
                    vk = vks[low] = tuple([
                        (n, d) for n, s, half in self._fields
                        if (d := (low >> s & 2 * half - 1) - half)])
                out[(k >> top, vk)] = c
        return out


def _convolve(a: dict[TermKey, int], b: dict[TermKey, int],
              cap: int) -> dict[TermKey, int]:
    """The product of two term dicts, dropping q-exponents above `cap`.

    Each term is keyed by `KeyLayout`, every field wide enough for a sum
    of two operand exponents, so the key of a product of terms is the
    sum of their keys.  The keys of `b` carry the layout's lift, so a
    sum of a key of `a` and one of `b` holds the product's q-degree in
    its top bits.  With `b` sorted by key, each row of the loop stops at
    the keys of q-degree above `cap`, found by bisection.
    """
    if len(a) > len(b):
        a, b = b, a
    vks = {vk for t in (a, b) for _, vk in t}
    widest = {}
    for vk in vks:
        for n, e in vk:
            widest[n] = max(widest.get(n, 0), 2 * abs(e))
    layout = KeyLayout(widest)
    top, lift = layout.top, layout.lift
    code = {vk: layout.key(0, vk) for vk in vks}
    a_keys = [((qe << top) + code[vk], c) for (qe, vk), c in a.items()]
    b_keys = sorted(((qe << top) + lift + code[vk], c)
                    for (qe, vk), c in b.items())
    limit = None if cap == EXACT else (cap + 1) << top
    b_order = [k for k, _ in b_keys]
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a_keys:
        row = b_keys if limit is None else \
            b_keys[:bisect_left(b_order, limit - ka)]
        for kb, cb in row:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return layout.terms(out, lifted=True)
