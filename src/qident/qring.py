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

Products go through `_convolve`, which repacks the two term dicts for the
time of one product and hands back a term dict:

- Two operands free of formal variables whose packed rows hold fewer
  than half as many fields as the term-by-term loop would make
  multiply-adds pack into one int each, one signed field per
  coefficient (Kronecker substitution), and multiply as big ints.  A
  field is a whole number of bytes, wide enough for
  max|a| * max|b| * min(len(a), len(b)), the most a product coefficient
  can reach.
- Every other product keys each term by one int: the q-exponent in the
  top bits and the formal variables' exponents in signed fields below,
  each wide enough for a sum of two operand exponents.  Merging two
  monomials is then one integer add.

The path rests on the operands and the cap alone, with no option to
choose it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

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
        """A monomial whose `vars` are already normalized: no re-validation."""
        m = object.__new__(cls)
        object.__setattr__(m, "coeff", coeff)
        object.__setattr__(m, "qexp", qexp)
        object.__setattr__(m, "vars", vars)
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


def _convolve(a: dict[TermKey, int], b: dict[TermKey, int],
              cap: int) -> dict[TermKey, int]:
    """The product of two term dicts, dropping q-exponents above `cap`.

    Two paths, chosen by their cost on the operands at hand:

    - packed: both operands are free of formal variables, and the packed
      rows, cut to the exponents that can reach `cap`, hold fewer than
      half as many fields (two rows in, one row out) as the keyed loop
      would make multiply-adds, estimated from the operands' lengths and
      spans.  Each row packs into one int and the product is one big-int
      multiply (`_packed_product`).  The factor 2 was fitted on 400
      random pure-q products, 2 to 120 terms, 1 to 50 q-exponents per
      term, 3- to 80-bit coefficients, on CPython 3.11: it costs 1.3%
      over always taking the faster path.  Against a dense row of 121 terms below q^120, an
      operand with a term every 5 q-exponents packs and one with a term
      every 20 does not.  The fields are bounded by the multiply-adds, so
      a sparse operand (terms up to q^1000000000, say) never packs.
    - keyed: every other product.  Each term is keyed by one int, so the
      inner loop merges two monomials with one integer add
      (`_keyed_product`).
    """
    if len(a) > len(b):
        a, b = b, a
    vks = {vk for t in (a, b) for _, vk in t}
    if vks != {()} or not a:
        return _keyed_product(a, b, cap, vks)
    lo_a, hi_a = min(a)[0], max(a)[0]
    lo_b, hi_b = min(b)[0], max(b)[0]
    if cap < lo_a + lo_b:
        return {}
    top_a, top_b = min(hi_a, cap - lo_b), min(hi_b, cap - lo_a)
    size = top_a - lo_a + top_b - lo_b + 1  # fields of the full product row
    fields = size + 1 + min(size, cap - lo_a - lo_b + 1)
    # The exponent pairs below the cap fill the rectangle of the two cut
    # rows but for a corner triangle with legs `over`; scaled by each
    # operand's density of terms, that is the keyed loop's multiply-adds.
    over = max(0, top_a + top_b - cap)
    area = (top_a - lo_a + 1) * (top_b - lo_b + 1) - over * (over + 1) // 2
    if 2 * fields * (hi_a - lo_a + 1) * (hi_b - lo_b + 1) < \
            len(a) * len(b) * area:
        return _packed_product(a, lo_a, top_a, b, lo_b, top_b, cap)
    return _keyed_product(a, b, cap, vks)


def _packed_product(a: dict[TermKey, int], lo_a: int, hi_a: int,
                    b: dict[TermKey, int], lo_b: int, hi_b: int,
                    cap: int) -> dict[TermKey, int]:
    """Kronecker substitution: pure-q a[lo_a..hi_a] times b[lo_b..hi_b].

    A row c_0, c_1, ... packs into the int sum c_i 2^(w i), one signed
    field of w = 8 * width bits per coefficient, so the product of two
    packed rows is the packed product row (Harvey, "Faster polynomial
    multiplication via multipoint Kronecker substitution", JSC 2009).
    A product coefficient is a sum of at most min(len(a), len(b)) terms,
    so its size is at most max|a| * max|b| * min(len(a), len(b)) =
    `bound`; a field holds it when bound < 2^(w-1).  Adding 2^(w-1) to
    every field makes each one non-negative, so the fields read off the
    product's bytes.
    """
    row_a = [0] * (hi_a - lo_a + 1)
    for (qe, _), c in a.items():
        if qe <= hi_a:
            row_a[qe - lo_a] = c
    row_b = [0] * (hi_b - lo_b + 1)
    for (qe, _), c in b.items():
        if qe <= hi_b:
            row_b[qe - lo_b] = c
    bound = (max(map(abs, row_a)) * max(map(abs, row_b))
             * min(len(a), len(b)))
    width = bound.bit_length() // 8 + 1
    size = len(row_a) + len(row_b) - 1
    fields = (_pack(row_a, width) * _pack(row_b, width)
              + _bias(size, width)).to_bytes(size * width, "little")
    half = 1 << (8 * width - 1)
    lo = lo_a + lo_b
    end = min(size, cap - lo + 1) * width
    row = [int.from_bytes(fields[i:i + width], "little") - half
           for i in range(0, end, width)]
    return {(lo + i, ()): c for i, c in enumerate(row) if c}


def _bias(n: int, width: int) -> int:
    """2^(w-1) in each of n fields of w = 8 * width bits."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(row: list[int], width: int) -> int:
    """sum row[i] 2^(w i) for |row[i]| < 2^(w-1), w = 8 * width."""
    half = 1 << (8 * width - 1)
    biased = b"".join([(c + half).to_bytes(width, "little") for c in row])
    return int.from_bytes(biased, "little") - _bias(len(row), width)


def _keyed_product(a: dict[TermKey, int], b: dict[TermKey, int], cap: int,
                   vks: set[VKey]) -> dict[TermKey, int]:
    """Dict convolution over one-int keys; `vks` holds the operands' vars.

    A term q^e * prod(names[i]^x_i) is keyed by (e << top) + the x_i in
    fields of `bits` bits below it, last name lowest, each a signed digit.
    Every |x_i| of an operand, and of a product, is below half = 2^(bits-1),
    so the key of a product of terms is the sum of their keys.  The keys
    of `b` carry `lift`, half in every field, so that a sum of a key of
    `a` and one of `b` holds x_i + half >= 0 in each field: the product's
    q-degree is then its key >> top, and its fields read off by masks.
    With `b` sorted by key, each row of the loop stops at the keys of
    q-degree above `cap`, found by bisection.
    """
    names = sorted({n for vk in vks for n, _ in vk})
    if names:
        widest = max(abs(e) for vk in vks for _, e in vk)
        bits = (2 * widest).bit_length() + 1
        shift = {n: bits * i for i, n in enumerate(reversed(names))}
        top = bits * len(names)
        half = 1 << (bits - 1)
        lift = sum(half << s for s in shift.values())
        code = {}
        for vk in vks:
            r = 0
            for n, e in vk:
                r += e << shift[n]
            code[vk] = r
        a_keys = [((qe << top) + code[vk], c) for (qe, vk), c in a.items()]
        b_keys = [((qe << top) + lift + code[vk], c)
                  for (qe, vk), c in b.items()]
    else:
        top = 0
        a_keys = [(qe, c) for (qe, _), c in a.items()]
        b_keys = [(qe, c) for (qe, _), c in b.items()]
    b_keys.sort()
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
    if not names:
        return {(k, ()): c for k, c in out.items() if c}
    terms: dict[TermKey, int] = {}
    decoded = {code[vk] + lift: vk for vk in vks}
    fields = (1 << top) - 1
    mask = (1 << bits) - 1
    for k, c in out.items():
        if not c:
            continue
        v = k & fields
        vk = decoded.get(v)
        if vk is None:
            vk = decoded[v] = tuple([
                (n, d) for n in names if (d := (v >> shift[n] & mask) - half)])
        terms[(k >> top, vk)] = c
    return terms


def parse_series(text: str) -> Series:
    """Parse the canonical serialization back into an exact Series.

    Inverse of Series.to_text on its output; accepts surrounding whitespace
    but nothing fancier.
    """
    text = text.strip()
    if text == "0":
        return Series.zero()
    terms: dict[TermKey, int] = {}
    for chunk in text.split(" + "):
        pieces = chunk.strip().split("*")
        if len(pieces) < 2:
            raise ValueError(f"malformed term {chunk!r}")
        coeff = int(pieces[0])
        if not pieces[1].startswith("q^"):
            raise ValueError(f"term {chunk!r} lacks its q-power")
        qe = int(pieces[1][2:])
        vars = []
        for piece in pieces[2:]:
            name, _, exp = piece.partition("^")
            if not _:
                raise ValueError(f"malformed variable power {piece!r}")
            vars.append((name, int(exp)))
        key = (qe, _normalize_vars(vars))
        terms[key] = terms.get(key, 0) + coeff
    return Series.poly(terms)
