"""Lattice sums with quadratic q-exponents and factorial denominators.

A SumSpec describes sums of the shape

    sum over n in D1 x ... x Dr of
        (-1)^{t(n)} * (prod_v v^{w_v . n}) * q^{Q(n)} / prod_d (arg_d; q^{b_d})_{L_d(n)}

where each domain D is N or Z, Q is a rational quadratic form, t and the
subscript forms L_d are affine, and the variable weights w_v are integer
vectors.  Bilateral (Z) directions are finite at any truncation order
because negative subscripts either kill the term outright (the zero
convention of poch_recip_finite) or push its q-valuation up; the support
is discovered by scanning expanding max-norm shells with exact per-point
valuations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .qfactorial import poch_recip_finite
from .qring import (
    Monomial,
    QSeriesError,
    Series,
    TruncationUnsound,
    product_capped,
)


class DomainError(QSeriesError):
    """A lattice point, subscript or exponent violates the declared spec."""


class EnumerationCapped(QSeriesError):
    """Support scanning hit the shell cap without stabilizing."""

    def __init__(self, message: str, report: "SupportReport"):
        super().__init__(message)
        self.report = report


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
    points: tuple[tuple[int, ...], ...]
    shells_scanned: int
    capped: bool


# ------------------------------------------------------- valuation machinery


def _check_point(spec: SumSpec, point) -> None:
    if len(point) != spec.dim:
        raise DomainError(f"point {point} has arity {len(point)}, spec wants {spec.dim}")
    for p, d in zip(point, spec.domains):
        if d == "N" and p < 0:
            raise DomainError(f"point {point} leaves the declared domain")


def _int_value(form: AffineForm, point, what: str) -> int:
    v = form.evaluate(point)
    if v.denominator != 1:
        raise DomainError(f"{what} evaluates to non-integer {v} at {point}")
    return int(v)


def _recip_offset(arg: Monomial, basepow: int, n: int) -> int | None:
    """q-valuation contributed by 1/(arg;q^b)_n; None when the factor is 0."""
    if n >= 0:
        return 0
    m = -n
    if not arg.vars and arg.coeff == 1 and arg.qexp % basepow == 0:
        if 1 <= arg.qexp // basepow <= m:
            return None  # a vanishing factor: the whole term dies
    return sum(min(0, arg.qexp + (k - m) * basepow) for k in range(m))


def term_valuation(spec: SumSpec, point) -> Fraction | None:
    """Exact q-valuation of the term at `point` (None if the term is 0)."""
    _check_point(spec, point)
    v = spec.quad.evaluate(point)
    for f in spec.denoms:
        off = _recip_offset(f.arg, f.basepow, _int_value(f.count, point, "subscript"))
        if off is None:
            return None
        v += off
    return v


def term_series(spec: SumSpec, point, order: int) -> Series:
    """The single term at `point`, assembled exactly.

    Terms whose valuation is >= 0 come back truncated at `order` with
    floor 0; a term dipping below q^0 is kept as an exact Laurent
    polynomial so the caller's accumulator can cancel it exactly.
    """
    _check_point(spec, point)
    q = spec.quad.evaluate(point)
    if q.denominator != 1:
        raise DomainError(f"exponent {q} at {point} is not an integer; "
                          "rescale the base first")
    sign = 1
    if spec.signform is not None:
        sign = -1 if _int_value(spec.signform, point, "sign exponent") % 2 else 1

    exps: dict[str, int] = {}
    for name, w in spec.varweights:
        e = sum(wi * pi for wi, pi in zip(w, point))
        if e:
            exps[name] = e
    mono = Monomial(sign, int(q), tuple(sorted(exps.items())))

    recips = [(f.arg, f.basepow, _int_value(f.count, point, "subscript"))
              for f in spec.denoms]
    for f in spec.numers:
        # (a; q^b)_n = 1 / (a q^(b n); q^b)_(-n) for every integer n
        n = _int_value(f.count, point, "subscript")
        recips.append((f.arg * Monomial.q(f.basepow * n), f.basepow, -n))
    offsets = 0
    for arg, basepow, n in recips:
        off = _recip_offset(arg, basepow, n)
        if off is None:
            return Series.zero(order)
        offsets += off

    widened = order - offsets  # inverse factors must outreach the Laurent dip
    exact_parts: list[Series] = []
    inverse_parts: list[Series] = []
    for arg, basepow, n in recips:
        piece = poch_recip_finite(arg, basepow, n, widened)
        (exact_parts if piece.exact else inverse_parts).append(piece)

    pieces = [Series.from_monomial(mono)] + exact_parts + inverse_parts
    if int(q) + offsets < 0 and not inverse_parts:
        prod = pieces[0]
        for p in pieces[1:]:
            prod = prod * p
        return prod
    prod = product_capped(pieces, order)
    if prod.exact:
        return prod  # complete Laurent polynomial, nothing was cut
    if prod.order < order:
        raise TruncationUnsound(
            f"term at {point} only sound to order {prod.order} < {order}")
    return prod.truncate(order, min(0, int(q) + offsets))


# ------------------------------------------------------- support enumeration


def _det(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _bilateral_positive_definite(spec: SumSpec) -> bool:
    zs = [i for i, d in enumerate(spec.domains) if d == "Z"]
    if not zs:
        return True
    sub = [[spec.quad.A[i][j] for j in zs] for i in zs]
    for k in range(1, len(zs) + 1):
        if _det([row[:k] for row in sub[:k]]) <= 0:
            return False
    return True


def _shell_points(spec: SumSpec, radius: int):
    """Lattice points of max-norm exactly `radius` inside the domain."""
    ranges = [
        range(0, radius + 1) if d == "N" else range(-radius, radius + 1)
        for d in spec.domains
    ]

    def rec(pos: int, prefix: tuple[int, ...], pinned: bool):
        if pos == spec.dim:
            if pinned or radius == 0:
                yield prefix
            return
        for v in ranges[pos]:
            yield from rec(pos + 1, prefix + (v,), pinned or abs(v) == radius)

    yield from rec(0, (), False)


def _compiled_valuation(spec: SumSpec):
    """Integer-arithmetic valuation evaluator: point -> S*val (or None).

    Returns (fn, S) with S a positive integer scale clearing every
    denominator, so comparisons against S*order stay in machine integers.
    """
    dens = [a.denominator for row in spec.quad.A for a in row]
    dens += [b.denominator for b in spec.quad.B] + [spec.quad.C.denominator]
    S = 2 * lcm(*dens)
    # S * (n.A.n / 2) = n.(S/2 * A).n, and S/2 clears every denominator
    iA = [[int(a * S) // 2 for a in row] for row in spec.quad.A]
    iB = [int(b * S) for b in spec.quad.B]
    iC = int(spec.quad.C * S)
    denoms = spec.denoms

    def val(point) -> int | None:
        acc = iC
        for i, ni in enumerate(point):
            if ni:
                row = iA[i]
                acc += ni * sum(row[j] * nj for j, nj in enumerate(point) if nj)
        acc += sum(b * p for b, p in zip(iB, point))
        for f in denoms:
            n = _int_value(f.count, point, "subscript")
            off = _recip_offset(f.arg, f.basepow, n)
            if off is None:
                return None
            acc += S * off
        return acc

    return val, S


def _solve_linear(A, rhs) -> list[Fraction] | None:
    """Solve A x = rhs over the rationals; None when A is singular."""
    n = len(rhs)
    m = [list(row) + [r] for row, r in zip(A, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [e / pv for e in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [e - f * p for e, p in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _landmark_radius(spec: SumSpec) -> int:
    """Radius beyond which the term valuation no longer dips back down.

    Valuations are not monotone from the origin: the quadratic form may
    have an off-origin vertex, and each subscript form changes behavior
    where it crosses zero.  Clear shells inside this radius prove
    nothing, so the stopping rule ignores them.
    """
    landmarks = [Fraction(1)]
    vertex = _solve_linear(spec.quad.A, [-b for b in spec.quad.B])
    if vertex is not None:
        landmarks += [abs(v) for v in vertex]
    for f in spec.denoms:
        nz = [abs(c) for c in f.count.coeffs if c]
        if nz and f.count.const:
            landmarks.append(abs(f.count.const) / min(nz))
    top = max(landmarks)
    return 2 * (int(top) + 2)


def enumerate_support(spec: SumSpec, order: int,
                      shell_cap: int | None = None) -> SupportReport:
    """All lattice points whose term valuation is <= order.

    Scans expanding max-norm shells and stops once two consecutive
    shells beyond the landmark radius come back all-clear; if the
    bilateral block of the quadratic form is not positive definite,
    clear shells prove nothing, so scanning continues to the cap and
    fails loudly.
    """
    if spec.numers:
        raise DomainError("numerator factorials leave the support unbounded; "
                          "only single terms can be evaluated")
    cap = shell_cap if shell_cap is not None else 4 * (order + 4)
    pd_ok = _bilateral_positive_definite(spec)
    if not pd_ok:
        warnings.warn(
            "quadratic form is not positive definite on the bilateral "
            "directions; scanning to the shell cap", stacklevel=2)
    settle = _landmark_radius(spec)
    val, S = _compiled_valuation(spec)
    bound = S * order
    points: list[tuple[int, ...]] = []
    clear = 0
    radius = 0
    while True:
        if radius > cap:
            raise EnumerationCapped(
                f"support scan hit shell cap {cap} at order {order}",
                SupportReport(tuple(sorted(points)), radius, True))
        hit = False
        for p in _shell_points(spec, radius):
            v = val(p)
            if v is not None and v <= bound:
                points.append(p)
                hit = True
        if hit:
            clear = 0
        elif radius >= settle:
            clear += 1
            if pd_ok and clear >= 2:
                break
        radius += 1
    return SupportReport(tuple(sorted(points)), radius + 1, False)


# ------------------------------------------------------------------- eval


def rescale_sum(spec: SumSpec, d: int) -> SumSpec:
    """The same sum with q replaced by q^d (the spec itself when d is 1)."""
    if d == 1:
        return spec
    denoms = tuple(
        DenomFactor(Monomial(f.arg.coeff, f.arg.qexp * d, f.arg.vars),
                    f.basepow * d, f.count)
        for f in spec.denoms)
    return SumSpec(spec.dim, spec.domains, spec.quad.scale(d), spec.signform,
                   spec.varweights, denoms)


def eval_sum(spec: SumSpec, order: int, shell_cap: int | None = None) -> Series:
    """Sum `spec` over its support, exactly to `order` (floor 0).

    Raises EnumerationCapped if the support never stabilizes,
    NegativeValuationResidual if terms below q^0 fail to cancel, and
    DomainError if the exponents are genuinely fractional (use
    eval_sum_scaled for those).
    """
    series, d = eval_sum_scaled(spec, order, shell_cap)
    if d > 1:
        raise DomainError(
            f"exponents have denominator {d}; the sum lives in base "
            "q^(1/{d}) -- call eval_sum_scaled to get it with the scale")
    return series


def eval_sum_scaled(spec: SumSpec, order: int,
                    shell_cap: int | None = None) -> tuple[Series, int]:
    """Like eval_sum, but fractional exponents are cleared, not rejected.

    Returns (series, d): the series' q stands for q^(1/d), its order for
    the requested order in the original base.
    """
    d = spec.base_scale()
    points = enumerate_support(spec, order, shell_cap).points
    return eval_sum_over(rescale_sum(spec, d), points, order * d), d


def eval_sum_over(spec: SumSpec, points, order: int) -> Series:
    """Accumulate term_series over an explicit support set."""
    acc = Series.zero(order)
    for p in points:
        acc = acc + term_series(spec, p, order)
    v = acc.valuation
    if v is not None and v < 0:
        bad = min((k for k in acc.terms if k[0] < 0))
        raise NegativeValuationResidual(
            f"residual term below q^0 after summation: q^{bad[0]} "
            f"(coefficient {acc.terms[bad]})")
    return Series({k: c for k, c in acc.terms.items() if k[0] <= order},
                  order, 0)
