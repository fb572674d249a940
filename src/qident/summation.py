"""Lattice sums with quadratic q-exponents and factorial denominators.

A SumSpec describes sums of the shape

    sum over n in D1 x ... x Dr of
        (-1)^{t(n)} * (prod_v v^{w_v . n}) * q^{Q(n)} / prod_d (arg_d; q^{b_d})_{L_d(n)}

where each domain D is N or Z, Q is a rational quadratic form, t and the
subscript forms L_d are affine, and the variable weights w_v are integer
vectors.  The support below a truncation order is enumerated exactly,
under a certificate: on each sign region of the subscript forms the
valuation is bounded below by a quadratic whose sublevel sets give every
coordinate a finite range (see `certify_support`).  A sum without such a
certificate is refused, never scanned.

A sum is evaluated nested, index inside index (Horner's rule for several
indices; Andrews, *The Theory of Partitions*, ch. 7): each factor is
built once per prefix of the points up to the last index its subscript
reads, and multiplies the inner row sum once (see `eval_sum_over`).
Every point, of the support and of a sum, is read through the spec's
forms compiled once to scaled integers (`SumSpec.compiled`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import groupby, product
from math import isqrt, lcm
from operator import mul

from .qfactorial import _run, reflect, vanishes
from .qring import Monomial, QSeriesError, Series


class DomainError(QSeriesError):
    """A lattice point, subscript or exponent violates the declared spec."""


class UnboundedSupport(QSeriesError):
    """Some sign region of a sum has no certified bound on its support."""


class NegativeValuationResidual(QSeriesError):
    """A sum left uncancelled terms below q^0: the SumSpec is inconsistent."""


# ------------------------------------------------------------ linear algebra


@dataclass(frozen=True)
class AffineForm:
    """c . n + const with rational coefficients."""

    coeffs: tuple[Fraction, ...]
    const: Fraction = Fraction(0)

    @classmethod
    def make(cls, coeffs, const=0) -> "AffineForm":
        return cls(tuple(Fraction(c) for c in coeffs), Fraction(const))

    @classmethod
    def index(cls, i: int, dim: int) -> "AffineForm":
        """The coordinate form n_i."""
        return cls.make([1 if j == i else 0 for j in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def evaluate(self, point) -> Fraction:
        return sum((c * p for c, p in zip(self.coeffs, point)), self.const)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.const + other.const)

    def __neg__(self) -> "AffineForm":
        return self.scale(-1)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + (-other)

    def scale(self, r) -> "AffineForm":
        r = Fraction(r)
        return AffineForm(tuple(r * c for c in self.coeffs), r * self.const)

    def shift(self, c) -> "AffineForm":
        return AffineForm(self.coeffs, self.const + Fraction(c))


@dataclass(frozen=True)
class QuadForm:
    """Q(n) = n.A.n / 2 + B.n + C, all entries rational, A symmetric."""

    A: tuple[tuple[Fraction, ...], ...]
    B: tuple[Fraction, ...]
    C: Fraction

    @property
    def dim(self) -> int:
        return len(self.B)

    @classmethod
    def zero(cls, dim: int) -> "QuadForm":
        z = Fraction(0)
        return cls(tuple((z,) * dim for _ in range(dim)), (z,) * dim, z)

    @classmethod
    def linear(cls, f: AffineForm) -> "QuadForm":
        z = Fraction(0)
        dim = f.dim
        return cls(tuple((z,) * dim for _ in range(dim)), f.coeffs, f.const)

    @classmethod
    def product(cls, f: AffineForm, g: AffineForm) -> "QuadForm":
        """The quadratic form f(n) * g(n)."""
        A = tuple(
            tuple(f.coeffs[i] * g.coeffs[j] + f.coeffs[j] * g.coeffs[i]
                  for j in range(f.dim))
            for i in range(f.dim))
        B = tuple(f.const * g.coeffs[i] + g.const * f.coeffs[i]
                  for i in range(f.dim))
        return cls(A, B, f.const * g.const)

    @classmethod
    def square(cls, f: AffineForm) -> "QuadForm":
        return cls.product(f, f)

    @classmethod
    def binom2(cls, f: AffineForm) -> "QuadForm":
        """binom(f, 2) = (f^2 - f) / 2."""
        return (cls.square(f) + cls.linear(f).scale(-1)).scale(Fraction(1, 2))

    def __add__(self, other: "QuadForm") -> "QuadForm":
        A = tuple(tuple(a + b for a, b in zip(ra, rb))
                  for ra, rb in zip(self.A, other.A))
        B = tuple(a + b for a, b in zip(self.B, other.B))
        return QuadForm(A, B, self.C + other.C)

    def scale(self, r) -> "QuadForm":
        r = Fraction(r)
        return QuadForm(tuple(tuple(r * a for a in row) for row in self.A),
                        tuple(r * b for b in self.B), r * self.C)

    def evaluate(self, point) -> Fraction:
        acc = Fraction(0)
        for i, ni in enumerate(point):
            if ni:
                row = self.A[i]
                acc += ni * sum(row[j] * nj for j, nj in enumerate(point) if nj)
        return acc / 2 + sum(
            (b * p for b, p in zip(self.B, point)), self.C)


# ------------------------------------------------------------------- specs


@dataclass(frozen=True)
class DenomFactor:
    """One factor (arg; q^basepow)_{count(n)}: a reciprocal in
    `SumSpec.denoms`, a numerator in `SumSpec.numers`."""

    arg: Monomial
    basepow: int
    count: AffineForm


@dataclass(frozen=True)
class SumSpec:
    dim: int
    domains: tuple[str, ...]          # 'N' or 'Z' per index
    quad: QuadForm
    signform: AffineForm | None = None
    varweights: tuple[tuple[str, tuple[int, ...]], ...] = ()
    denoms: tuple[DenomFactor, ...] = ()
    # Numerator factorials put no bound on the support, so a spec with
    # any is evaluated one point at a time (term_series), never summed.
    numers: tuple[DenomFactor, ...] = ()

    def __post_init__(self):
        if len(self.domains) != self.dim or self.quad.dim != self.dim:
            raise DomainError("domain/form dimensions disagree")
        for d in self.domains:
            if d not in ("N", "Z"):
                raise DomainError(f"unknown domain tag {d!r}")
        for _, w in self.varweights:
            if len(w) != self.dim:
                raise DomainError("variable weight vector has wrong length")
        for f in self.denoms + self.numers:
            if f.count.dim != self.dim:
                raise DomainError("Pochhammer subscript has wrong arity")

    @cached_property
    def compiled(self) -> "_CompiledSum":
        """The spec's forms in scaled integers, built on first use."""
        return _CompiledSum.of(self)

    def base_scale(self) -> int:
        """Least d for which d*Q takes integer values on the whole lattice.

        A quadratic is integer-valued exactly when its coefficients in the
        basis 1, n_i, binom(n_i, 2), n_i*n_j are integers, and those
        coefficients are integer combinations of Q at 0, e_i, 2e_i and
        e_i + e_j; so those points decide d.
        """
        unit = [tuple(int(k == i) for k in range(self.dim))
                for i in range(self.dim)]
        points = [(0,) * self.dim] + unit + [
            tuple(a + b for a, b in zip(u, v))
            for i, u in enumerate(unit) for v in unit[i:]]
        return lcm(*(self.quad.evaluate(p).denominator for p in points))


def make_sum_spec(dim, domains, quad, signform=None, varweights=None,
                  denoms=(), numers=()) -> SumSpec:
    """Normalizing constructor: accepts str domains and dict varweights."""
    vw = tuple(sorted((name, tuple(vec))
                      for name, vec in (varweights or {}).items()))
    return SumSpec(dim, tuple(domains), quad, signform, vw, tuple(denoms),
                   tuple(numers))


@dataclass(frozen=True)
class SupportReport:
    """The support, sorted, and 1 + the largest coordinate magnitude the
    certificate let the enumeration reach, so that every point has
    max-norm < shells_scanned."""

    points: tuple[tuple[int, ...], ...]
    shells_scanned: int


# ------------------------------------------------------- valuation machinery


def _tri(a: int, b: int, m: int) -> int:
    """sum_{j=1..m} (a - j b)."""
    return a * m - b * m * (m + 1) // 2


def _dip(a: int, b: int, m: int) -> int:
    """sum_{j=1..m} min(0, a - j b): the terms with j <= a/b are >= 0."""
    return _tri(a, b, m) - _tri(a, b, min(m, a // b) if a > 0 else 0)


def _recip_offset(arg: Monomial, basepow: int, n: int) -> int | None:
    """q-valuation contributed by 1/(arg;q^b)_n; None when the factor is 0.

    For n = -m < 0 the reciprocal is prod_{j=1..m} 1/(1 - arg q^(-j b)),
    and each factor with a - j b < 0 (a = arg's q-exponent) lowers the
    valuation by j b - a.
    """
    if n >= 0:
        return 0
    if vanishes(arg, basepow, n):
        return None  # a vanishing factor: the whole term dies
    return _dip(arg.qexp, basepow, -n)


@dataclass(frozen=True)
class _IntForm:
    """An affine form in integers: den * f(n) = coeffs . n + const."""

    coeffs: tuple[int, ...]
    const: int
    den: int

    @classmethod
    def of(cls, form: AffineForm) -> "_IntForm":
        den = lcm(*(x.denominator for x in form.coeffs), form.const.denominator)
        return cls(tuple(int(x * den) for x in form.coeffs),
                   int(form.const * den), den)

    def at(self, point, what: str) -> int:
        """f(point); DomainError, naming `what`, if it is not an integer."""
        num = self.const
        for c, x in zip(self.coeffs, point):
            num += c * x
        if num % self.den:
            raise DomainError(f"{what} evaluates to non-integer "
                              f"{Fraction(num, self.den)} at {point}")
        return num // self.den


@dataclass(frozen=True)
class _CompiledSum:
    """A SumSpec's forms in scaled integers (`SumSpec.compiled`).

    S * Q(n) = sum W_ij n_i n_j + V . n + U, as in `_scaled`, and the sign
    and subscript forms are `_IntForm`s, so a point is evaluated in ints
    alone; a Fraction is made only to name a value that is not an
    integer.  Support enumeration, `term_valuation` and the terms of a
    sum all read a point through here.
    """

    domains: tuple[str, ...]
    W: tuple[tuple[int, ...], ...]
    V: tuple[int, ...]
    U: int
    S: int
    sign: _IntForm | None
    counts: tuple[_IntForm, ...]                    # denoms, then numers
    denoms: tuple[tuple[_IntForm, DenomFactor], ...]
    weights: tuple[tuple[str, tuple[int, ...]], ...]

    @classmethod
    def of(cls, spec: SumSpec) -> "_CompiledSum":
        counts = tuple(_IntForm.of(f.count) for f in spec.denoms + spec.numers)
        return cls(spec.domains, *_scaled(spec.quad.A, spec.quad.B, spec.quad.C),
                   spec.signform and _IntForm.of(spec.signform), counts,
                   tuple(zip(counts, spec.denoms)), spec.varweights)

    def check(self, point) -> None:
        """DomainError unless `point` is a lattice point of the domain."""
        if len(point) != len(self.domains):
            raise DomainError(f"point {point} has arity {len(point)}, "
                              f"spec wants {len(self.domains)}")
        for p, d in zip(point, self.domains):
            if not isinstance(p, int):
                raise DomainError(f"point {point} has a non-integer "
                                  f"coordinate {p!r}")
            if d == "N" and p < 0:
                raise DomainError(f"point {point} leaves the declared domain")

    def exponent(self, point) -> int:
        """S * Q(point)."""
        v = self.U
        for i, x in enumerate(point):
            if x:
                t = self.V[i]
                for w, y in zip(self.W[i], point):
                    t += w * y
                v += x * t
        return v

    def valuation(self, point) -> int | None:
        """S times the exact q-valuation of the term at `point`, or None
        if a factor vanishes there."""
        v = self.exponent(point)
        for form, f in self.denoms:
            off = _recip_offset(f.arg, f.basepow, form.at(point, "subscript"))
            if off is None:
                return None
            v += self.S * off
        return v

    def lead(self, point) -> Monomial:
        """The term at `point` without its factorials, (-1)^t q^Q prod
        v^(w.n), after checking the point, Q and then t."""
        self.check(point)
        q = self.exponent(point)
        if q % self.S:
            raise DomainError(f"exponent {Fraction(q, self.S)} at {point} is "
                              "not an integer; rescale the base first")
        odd = self.sign and self.sign.at(point, "sign exponent") % 2
        return Monomial(-1 if odd else 1, q // self.S, [
            (name, sum(wi * pi for wi, pi in zip(w, point)))
            for name, w in self.weights])

    def subscripts(self, point) -> list[int]:
        """The subscripts of the denominators, then of the numerators."""
        return [form.at(point, "subscript") for form in self.counts]


def term_valuation(spec: SumSpec, point) -> Fraction | None:
    """Exact q-valuation of the term at `point` (None if the term is 0)."""
    kernel = spec.compiled
    kernel.check(point)
    v = kernel.valuation(point)
    return None if v is None else Fraction(v, kernel.S)


def term_series(spec: SumSpec, point, order: int) -> Series:
    """The single term at `point`, truncated at `order`: the one-point
    case of `eval_sum_over`.  Numerator factorials are allowed, and a
    term of valuation v < 0 keeps its floor at q^v."""
    terms = _nested(spec, [point], order)
    return Series(terms, order, min([0, *(k[0] for k in terms)]))


# ------------------------------------------------------- support enumeration
#
# The support is certified region by region.  The sign pieces of the
# subscript forms cut the domain into regions, and on each one the
# valuation is bounded below by a quadratic F: Q itself plus, for every
# negative subscript, the bound of `_dip_bound`.  Coordinates are fixed
# one at a time, n_0 first, each over the integers where a lower bound of
# F over the coordinates still free stays <= order (Fincke & Pohst,
# Math. Comp. 44, 1985).  That bound is either the exact minimum over the
# reals, by LDL^T elimination, when the free coordinates' block of F is
# positive definite, or, for coordinates in N with nonnegative cross
# terms, the sum of the free coordinates' one-dimensional minima over
# t >= 0.  A region that neither covers has no certificate and is refused.


@dataclass(frozen=True)
class _Piece:
    """lo <= coeffs . n + const <= hi (None: open) for one subscript form,
    with a lower bound of its factor's valuation there."""

    coeffs: tuple[int, ...]
    const: int
    lo: int | None
    hi: int | None
    bound: QuadForm

    def text(self, names) -> str:
        terms = " + ".join(
            f"{c}*{x}" if abs(c) != 1 else ("-" if c < 0 else "") + x
            for c, x in zip(self.coeffs, names) if c)
        if self.const:
            terms += f" + {self.const}"
        form = terms.replace("+ -", "- ")
        if self.hi is None:
            return f"{form} >= {self.lo}"
        if self.lo is None:
            return f"{form} <= {self.hi}"
        return f"{self.lo} <= {form} <= {self.hi}"


@dataclass(frozen=True)
class _Level:
    """How coordinate c of one region is enumerated.

    S times the lower bound of the valuation with n_0..n_c fixed is
    sum W_ij n_i n_j + V . n + U over i, j <= c, plus, when `tail`, the
    one-dimensional minima over t >= 0 of the coordinates after c.  n_c
    is >= 0 when `nonneg`, and `cons` are the region's pieces whose last
    coordinate is c.
    """

    W: tuple[tuple[int, ...], ...]
    V: tuple[int, ...]
    U: int
    S: int
    tail: bool
    nonneg: bool
    cons: tuple[_Piece, ...]

    def window(self, p: list[int], c: int) -> tuple[int | None, int | None]:
        """Bounds on n_c from its domain and the region, given n_0..n_(c-1)."""
        lo = 0 if self.nonneg else None
        hi = None
        for piece in self.cons:
            k = piece.coeffs[c]
            rest = piece.const + sum(piece.coeffs[j] * p[j] for j in range(c))
            for lim, above in ((piece.lo, True), (piece.hi, False)):
                if lim is None:
                    continue
                if (k > 0) == above:        # n_c >= (lim - rest) / k
                    t = -((rest - lim) // k)
                    lo = t if lo is None else max(lo, t)
                else:                       # n_c <= (lim - rest) / k
                    t = (lim - rest) // k
                    hi = t if hi is None else min(hi, t)
        return lo, hi

    def quadratic(self, p: list[int], c: int, order: int):
        """(a, b, k) with S * (bound - order) = a t^2 + b t + k at n_c = t."""
        W, V = self.W, self.V
        k = self.U - self.S * order + sum(
            p[i] * (V[i] + sum(W[i][j] * p[j] for j in range(c)))
            for i in range(c))
        if self.tail:
            for i in range(c + 1, len(V)):
                beta = V[i] + 2 * sum(W[i][j] * p[j] for j in range(c))
                if beta < 0:        # min over t >= 0 of W_ii t^2 + beta t
                    k += (-beta * beta) // (4 * W[i][i])
        return W[c][c], V[c] + 2 * sum(W[c][j] * p[j] for j in range(c)), k


def _dip_bound(form: AffineForm, a: int, b: int) -> QuadForm:
    """A quadratic in L = form(n) below the valuation _dip(a, b, -L) of
    1/(q^a; q^b)_L wherever L <= -1; it is exact once -L >= a/b."""
    top = a // b if a > 0 else 0
    return (QuadForm.square(form).scale(Fraction(-b, 2))
            + QuadForm.linear(form.scale(Fraction(b, 2) - a)
                              .shift(-_tri(a, b, top))))


def _feasible(piece: _Piece, domains) -> bool:
    """False when the piece is empty on the box of the index domains."""
    if piece.lo is not None and piece.hi is not None and piece.lo > piece.hi:
        return False
    rises = any(c > 0 or (c < 0 and d == "Z")
                for c, d in zip(piece.coeffs, domains))
    falls = any(c < 0 or (c > 0 and d == "Z")
                for c, d in zip(piece.coeffs, domains))
    return not ((piece.lo is not None and not rises and piece.const < piece.lo)
                or (piece.hi is not None and not falls
                    and piece.const > piece.hi))


def _regions(spec: SumSpec):
    """(pieces, F) per sign region on which some term can be nonzero."""
    zero = QuadForm.zero(spec.dim)
    base = spec.quad
    choices = []
    for form, f in spec.compiled.denoms:
        if form.den != 1:
            raise DomainError(f"subscript form {f.count} is not integer-valued")
        coeffs, const = form.coeffs, form.const
        a, b = f.arg.qexp, f.basepow
        if not any(coeffs):
            off = _recip_offset(f.arg, b, const)
            if off is None:
                return          # the factor vanishes at every point
            base = base + QuadForm.linear(f.count.scale(0).shift(off))
            continue
        if not f.arg.vars and f.arg.coeff == 1 and a > 0 and a % b == 0:
            # (q^a; q^b)_L has the factor 1 - q^0 once L <= -a/b, and
            # before that every factor of its reciprocal has valuation 0
            negative = _Piece(coeffs, const, 1 - a // b, -1, zero)
        else:
            negative = _Piece(coeffs, const, None, -1,
                              _dip_bound(f.count, a, b))
        choices.append([p for p in (_Piece(coeffs, const, 0, None, zero),
                                    negative)
                        if _feasible(p, spec.domains)])
    for pieces in product(*choices):
        quad = base
        for piece in pieces:
            quad = quad + piece.bound
        yield pieces, quad


def _scaled(A, B, C) -> tuple:
    """(W, V, U, S): S * (n.A.n / 2 + B.n + C) = sum W_ij n_i n_j + V.n + U."""
    S = 2 * lcm(*(x.denominator for row in A for x in row),
                *(x.denominator for x in B), C.denominator)
    return (tuple(tuple(int(x * S) // 2 for x in row) for row in A),
            tuple(int(x * S) for x in B), int(C * S), S)


def _ldl_forms(quad: QuadForm):
    """G_0..G_(r-1), G_c the minimum of `quad` over real n_(c+1), ... as
    (A, B, C) in n_0..n_c; None unless every pivot after n_0 is positive,
    which is the block of n_1..n_(r-1) being positive definite."""
    A = [list(row) for row in quad.A]
    B = list(quad.B)
    C = quad.C
    forms = []
    for c in range(quad.dim - 1, -1, -1):
        forms.append(([row[:c + 1] for row in A[:c + 1]], B[:c + 1], C))
        pivot = A[c][c]
        if c == 0:
            break
        if pivot <= 0:
            return None
        for i in range(c):
            for j in range(c):
                A[i][j] -= A[c][i] * A[c][j] / pivot
            B[i] -= B[c] * A[c][i] / pivot
        C -= B[c] * B[c] / (2 * pivot)
    return forms[::-1]


def _bounded(a: int, b: int, lo: int | None, hi: int | None) -> bool:
    """Whether {t in [lo, hi] : a t^2 + b t + k <= 0} is finite for every k
    (None: an open end)."""
    if lo is not None and hi is not None:
        return True
    return a > 0 or (a == 0 and ((b > 0 and lo is not None)
                                 or (b < 0 and hi is not None)))


def _sublevel(a: int, b: int, k: int, lo: int | None, hi: int | None) -> range:
    """The integers t in [lo, hi] with a t^2 + b t + k <= 0, or a range
    holding them all when a < 0."""
    if not _bounded(a, b, lo, hi):
        raise UnboundedSupport("an uncertified coordinate range is unbounded")
    if a > 0:
        disc = b * b - 4 * a * k
        if disc < 0:
            return range(0)
        # the roots are (-b -+ sqrt(disc)) / 2a; flooring sqrt(disc) moves
        # no integer multiple of 2a past -b -+ sqrt(disc), so it changes
        # neither the floor of the larger root nor the ceiling of the other
        s = isqrt(disc)
        left, right = -((b + s) // (2 * a)), (s - b) // (2 * a)
    elif a == 0 and b > 0:
        left, right = lo, (-k) // b
    elif a == 0 and b < 0:
        left, right = -(k // b), hi
    elif a == 0 and k > 0:
        return range(0)
    else:
        left, right = lo, hi
    if lo is not None:
        left = max(left, lo)
    if hi is not None:
        right = min(right, hi)
    return range(left, right + 1)


def _plan(spec: SumSpec, pieces, quad: QuadForm):
    """The levels that enumerate one region, or None without a certificate."""
    r = spec.dim
    cons = [tuple(p for p in pieces
                  if max(i for i, c in enumerate(p.coeffs) if c) == lvl)
            for lvl in range(r)]
    nonneg = [d == "N" for d in spec.domains]
    forms = _ldl_forms(quad)
    if forms is not None:
        levels = tuple(_Level(*_scaled(*forms[c]), False, nonneg[c], cons[c])
                       for c in range(r))
        # only n_0 can meet a zero or negative pivot
        if not levels or _bounded(levels[0].W[0][0], levels[0].V[0],
                                  *levels[0].window([], 0)):
            return levels
    A, B = quad.A, quad.B
    if all(nonneg) and all(
            A[i][j] >= 0 if i != j
            else A[i][i] > 0 or (A[i][i] == 0 and B[i] > 0)
            for i in range(r) for j in range(r)):
        scaled = _scaled(quad.A, quad.B, quad.C)
        return tuple(_Level(*scaled, True, nonneg[c], cons[c])
                     for c in range(r))
    return None


def certify_support(spec: SumSpec, names=None) -> tuple:
    """One enumeration plan per sign region of `spec` that can hold terms.

    Raises UnboundedSupport, naming the region by the index `names`
    (default n0, n1, ...), when a region's valuation bound is covered by
    neither the LDL^T minimum nor the separable one.
    """
    names = names or [f"n{i}" for i in range(spec.dim)]
    plans = []
    for pieces, quad in _regions(spec):
        levels = _plan(spec, pieces, quad)
        if levels is None:
            kind = "bilateral" if "Z" in spec.domains else "unilateral"
            where = ("" if not pieces else " on the region "
                     + ", ".join(p.text(names) for p in pieces))
            raise UnboundedSupport(
                f"{kind} sum with an indefinite quadratic part{where} "
                "cannot be enumerated soundly")
        plans.append(levels)
    return tuple(plans)


def enumerate_support(spec: SumSpec, order: int) -> SupportReport:
    """Exactly the lattice points whose term valuation is <= order.

    Each sign region is walked coordinate by coordinate over the ranges
    its certificate allows (see `certify_support`), and every point
    reached is kept iff its exact valuation, in scaled integers, is
    <= order.
    """
    if spec.numers:
        raise DomainError("numerator factorials leave the support unbounded; "
                          "only single terms can be evaluated")
    kernel = spec.compiled
    r = spec.dim
    bound = kernel.S * order
    point = [0] * r
    points: list[tuple[int, ...]] = []
    radius = 0

    def walk(levels, c: int) -> None:
        nonlocal radius
        if c == r:
            v = kernel.valuation(point)
            if v is not None and v <= bound:
                points.append(tuple(point))
            return
        level = levels[c]
        span = _sublevel(*level.quadratic(point, c, order),
                         *level.window(point, c))
        if span:
            radius = max(radius, abs(span[0]), abs(span[-1]))
        for t in span:
            point[c] = t
            walk(levels, c + 1)

    for levels in certify_support(spec):
        walk(levels, 0)
    return SupportReport(tuple(sorted(points)), radius + 1)


# ------------------------------------------------------------------- eval


def rescale_sum(spec: SumSpec, d: int) -> SumSpec:
    """The same sum with q replaced by q^d (the spec itself when d is 1)."""
    if d == 1:
        return spec

    def stretch(factors):
        return tuple(replace(f, arg=replace(f.arg, qexp=f.arg.qexp * d),
                             basepow=f.basepow * d) for f in factors)

    return replace(spec, quad=spec.quad.scale(d), denoms=stretch(spec.denoms),
                   numers=stretch(spec.numers))


def eval_sum(spec: SumSpec, order: int) -> Series:
    """Sum `spec` over its support, exactly to `order` (floor 0).

    Raises UnboundedSupport if the support has no certificate,
    NegativeValuationResidual if terms below q^0 fail to cancel, and
    DomainError if the exponents are genuinely fractional (use
    eval_sum_scaled for those).
    """
    series, d = eval_sum_scaled(spec, order)
    if d > 1:
        raise DomainError(
            f"exponents have denominator {d}; the sum lives in base "
            "q^(1/{d}) -- call eval_sum_scaled to get it with the scale")
    return series


def eval_sum_scaled(spec: SumSpec, order: int) -> tuple[Series, int]:
    """Like eval_sum, but fractional exponents are cleared, not rejected.

    Returns (series, d): the series' q stands for q^(1/d), its order for
    the requested order in the original base.
    """
    d = spec.base_scale()
    points = enumerate_support(spec, order).points
    return eval_sum_over(rescale_sum(spec, d), points, order * d), d


def eval_sum_over(spec: SumSpec, points, order: int) -> Series:
    """The sum of the terms at `points`, nested index by index.

    A Pochhammer factor belongs to the last index its subscript depends
    on, and is reflected (`qfactorial.reflect`) once per subscript value,
    so at most once per prefix of the points up to that index.  Its lead,
    a monomial at its exact valuation, goes into the inner terms; its
    valuation-0 runs, built to order - floor(row), multiply their sum
    once.  So an innermost term is a shift, and each outer row one
    product.  Every level adds into one term dict in place.  A point
    raises what `term_series` raises there; terms below q^0 that fail to
    cancel raise NegativeValuationResidual.
    """
    terms = {k: c for k, c in _nested(spec, points, order).items()
             if k[0] <= order}
    bad = min((k for k in terms if k[0] < 0), default=None)
    if bad is not None:
        raise NegativeValuationResidual(
            f"residual term below q^0 after summation: q^{bad[0]} "
            f"(coefficient {terms[bad]})")
    return Series(terms, order, 0)


def _nested(spec: SumSpec, points, order: int) -> dict:
    """The terms at `points` summed into one term dict (eval_sum_over).

    Each point is first checked, in order, as `term_series` checks it:
    domain and exponents, every factor's reflection, then, unless a
    factor is zero, its runs, built to `order`.  The walk raises nothing."""
    factors = [(f, -1) for f in spec.denoms] + [(f, 1) for f in spec.numers]
    depth = [max((k + 1 for k, c in enumerate(f.count.coeffs) if c), default=0)
             for f, _ in factors]  # how many indices the subscript reads
    reflect_once = cache(reflect)
    kernel = spec.compiled
    leaves = []
    for point in points:
        mono = kernel.lead(point)
        ns = kernel.subscripts(point)
        refl = [reflect_once(f.arg, f.basepow, n, expo)
                for (f, expo), n in zip(factors, ns)]
        if None not in refl:
            for run in (run for _, runs in refl for run in runs):
                _run(*run, order)
            leaves.append((point, mono, refl))
    product_of = cache(lambda runs, work: reduce(
        mul, (_run(*run, work) for run in runs)))

    def nest(leaves, d: int, lead: Monomial, acc: dict) -> None:
        """acc += the terms of `leaves`, which share their first d indices,
        times `lead`, the leads of the factors outside them."""
        here = [r for r, k in zip(leaves[0][2], depth) if k == d]
        for factor_lead, _ in here:
            lead = lead * factor_lead
        runs = tuple(run for _, rs in here for run in rs)
        inner = {} if runs else acc
        if d == spec.dim:
            for _, mono, _ in leaves:
                m = mono * lead
                inner[m.key()] = inner.get(m.key(), 0) + m.coeff
        else:  # the points come grouped by prefix, as in the sorted support
            for _, group in groupby(leaves, key=lambda leaf: leaf[0][d]):
                nest(list(group), d + 1, lead, inner)
        inner = runs and {k: c for k, c in inner.items() if c and k[0] <= order}
        if not inner:
            return
        floor = min(0, *(k[0] for k in inner))
        if len(inner) == 1:  # a monomial: a shift, no product
            [((qe, vk), c)] = inner.items()
            series = product_of(runs, order - floor).mul_monomial(Monomial(c, qe, vk))
        else:
            series = Series(inner, order, floor) * product_of(runs, order - floor)
        for k, c in series.terms.items():
            acc[k] = acc.get(k, 0) + c

    acc: dict = {}
    if leaves:
        nest(leaves, 0, Monomial.unit(), acc)
    return {k: c for k, c in acc.items() if c}
