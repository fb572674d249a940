"""Constant-term engine: Laurent expansion in an auxiliary variable z.

Bilateral product sides are handled by expanding every z-carrying
Pochhammer symbol into a `ZSeries` (a Laurent polynomial in z whose
coefficients are truncated q-series), multiplying them out, and reading
off single z-powers.  Pairing two Jacobi triple products and extracting
the constant term replays the double-sum product formula mechanically;
`prove_main_theorem` runs that replay end to end.  It reads the sum it
proves from statement text, the catalog's `main` entry, and checks it
against `PAIRED_SUM`, the same sum with its exponent in paired form.

Window invariant
----------------
A z-power absent from a ZSeries is not claimed to be zero: its true
coefficient has q-valuation above the series' `order`, so skipping it in
products and extractions loses nothing at or below the working order.
Every constructor below is careful to keep that invariant, because it is
what makes multiplication of two ZSeries sound without tracking infinite
windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qfactorial import (
    NotTruncatable,
    ProductSpec,
    expand_factors,
    expand_product_spec,
)
from .qring import Monomial, NotInvertible, QSeriesError, QueryBeyondOrder, Series
from .report import VerificationReport, find_first_mismatch
from .summation import SumSpec, eval_sum, term_series


class ProofReplayError(QSeriesError):
    """Two expansion routes that must agree produced different series."""


def binom2(n: int) -> int:
    """n(n-1)/2, nonnegative for every integer n."""
    return n * (n - 1) // 2


# ------------------------------------------------------------------ ZSeries


class ZSeries:
    """Laurent polynomial in z over truncated q-series coefficients.

    ``coeffs`` maps a z-exponent to its coefficient Series.  ``order`` is
    the q-order to which the object as a whole is sound (see the module
    docstring for the window invariant).  When ``bounds`` is set the
    invariant holds only for z-powers inside ``[lo, hi]`` — such series
    come out of folding an open factor over a requested window — and
    extraction outside that window raises instead of guessing.
    """

    __slots__ = ("coeffs", "order", "bounds")

    def __init__(self, coeffs: dict[int, Series], order: int,
                 bounds: tuple[int, int] | None = None):
        self.coeffs = {k: s for k, s in coeffs.items() if not s.is_zero()}
        self.order = order
        self.bounds = bounds

    @classmethod
    def unit(cls, order: int) -> "ZSeries":
        return cls({0: Series.one()}, order)

    @property
    def window(self) -> tuple[int, int] | None:
        """Span of retained z-powers, or None when no coefficient survives."""
        if not self.coeffs:
            return None
        return (min(self.coeffs), max(self.coeffs))

    def extract(self, k: int) -> Series:
        """Coefficient of z^k; an inexact zero when the window skipped it."""
        if self.bounds is not None and not (self.bounds[0] <= k <= self.bounds[1]):
            raise QueryBeyondOrder(
                f"z^{k} lies outside the computed window {self.bounds}")
        return self.coeffs.get(k, Series({}, self.order, 0))

    def scale_series(self, s: Series) -> "ZSeries":
        """Multiply every coefficient by a z-free series."""
        v = s.valuation
        if v is None:
            return ZSeries({}, self.order, self.bounds)
        order = self.order + min(0, v)
        return ZSeries({k: c * s for k, c in self.coeffs.items()},
                       order, self.bounds)

    def __repr__(self) -> str:
        w = self.window
        return f"ZSeries(window={w}, order={self.order}, bounds={self.bounds})"


def zmul(f: ZSeries, g: ZSeries) -> ZSeries:
    """Cauchy product in z; coefficient products cap their own q-orders."""
    if f.bounds is not None or g.bounds is not None:
        raise NotTruncatable(
            "cannot multiply a window-clipped ZSeries; clip after multiplying")
    order = min(f.order, g.order)
    # A coefficient with negative q-valuation would let a skipped
    # (above-order) partner fall back below the order: tighten for that.
    neg = min((s.valuation for s in (*f.coeffs.values(), *g.coeffs.values())
               if s.valuation is not None and s.valuation < 0), default=0)
    order += neg
    out: dict[int, Series] = {}
    for a, sa in f.coeffs.items():
        for b, sb in g.coeffs.items():
            prod = sa * sb
            if prod.is_zero():
                continue
            k = a + b
            out[k] = out[k] + prod if k in out else prod
    return ZSeries(out, order)


# ------------------------------------------------------ Jacobi triple product


def jtp_zseries(m: Monomial, order: int) -> ZSeries:
    """The triple product (q, m*z, q/(m*z); q)_inf as a ZSeries.

    The coefficient of z^n is exactly (-1)^n q^binom(n,2) m^n; the
    window keeps every n whose q-weight binom(n,2) fits under `order`,
    which is symmetric apart from the extra n=1 entry at weight zero.
    """
    if m.coeff not in (1, -1):
        raise NotInvertible(
            f"companion monomial coefficient {m.coeff} is not a unit")
    if m.qexp != 0:
        raise NotTruncatable(
            "fold the companion's q-power into the z-substitution; a "
            "q-carrying companion breaks the window invariant")
    coeffs: dict[int, Series] = {}
    for n, step in ((0, 1), (-1, -1)):
        while binom2(n) <= order:
            coeffs[n] = Series.from_monomial(
                Monomial(-1 if n % 2 else 1, binom2(n)) * m ** n)
            n += step
    return ZSeries(coeffs, order)


# ------------------------------------------------------- z-carrying products


@dataclass(frozen=True)
class ZFactor:
    """One z-carrying infinite Pochhammer, (mon * z^zexp; q^basepow)_inf^expo."""

    mon: Monomial
    zexp: int = 1
    basepow: int = 1
    expo: int = 1

    def __post_init__(self):
        if self.zexp == 0:
            raise ValueError("z exponent must be nonzero")
        if self.basepow < 1:
            raise ValueError(f"base power {self.basepow} must be >= 1")
        if self.expo not in (1, -1):
            raise ValueError("only first powers and reciprocals are supported")

    @property
    def is_open(self) -> bool:
        """A reciprocal whose k=0 binomial sits at q-weight zero.

        Its geometric expansion puts every power of z at the same
        q-weight, so no finite window is sound; the factor must be folded
        lazily over an explicitly requested window instead.
        """
        return self.expo == -1 and self.mon.qexp == 0


def _euler_zseries(f: ZFactor, order: int) -> ZSeries:
    """Expand a closed (mon*z^e; q^b)_inf^(+-1) by Euler's two series.

    [z^(e*n)] is (-1)^n q^(b*binom(n,2)) mon^n / (q^b; q^b)_n for the
    product and mon^n / (q^b; q^b)_n for its reciprocal (Gasper-Rahman,
    eqs. (1.3.15)-(1.3.16)).  1/(q^b; q^b)_n starts at 1, so the leading
    monomial's q-weight is the coefficient's valuation; it rises with n,
    and the window stops at the first n above `order`.
    """
    coeffs: dict[int, Series] = {}
    power = Monomial.unit()  # mon^n
    n = 0
    while True:
        lead = power if f.expo == -1 else power * Monomial(
            -1 if n % 2 else 1, f.basepow * binom2(n))
        if lead.qexp > order:
            return ZSeries(coeffs, order)
        coeffs[f.zexp * n] = expand_factors(
            lead, [(Monomial.q(f.basepow), f.basepow, n, -1)], order)
        power = power * f.mon
        n += 1


def normalize_zwindow(zwindow) -> tuple[int, int]:
    """An int K as [-K, K], or a (lo, hi) pair; ValueError when empty."""
    if isinstance(zwindow, int):
        if zwindow < 0:
            raise ValueError(f"window half-width {zwindow} must be >= 0")
        return (-zwindow, zwindow)
    lo, hi = zwindow
    if lo > hi:
        raise ValueError(f"empty z-window {zwindow}")
    return (lo, hi)


def expand_zfactors(factors, order: int, zwindow=None) -> ZSeries:
    """Multiply out a list of ZFactors to a ZSeries sound at `order`.

    At most one factor may be "open" (reciprocal with q-free argument,
    such as 1/(z;q)_inf): its window is unbounded at every order, so it
    is folded lazily against the finite closed product, over the z-range
    the caller asks for.  `zwindow` is an int K for [-K, K] or an
    explicit (lo, hi) pair, and is required exactly when an open factor
    is present.
    """
    closed = ZSeries.unit(order)
    opens: list[ZFactor] = []
    # An open factor's tail has the widest z-range; multiplied in last,
    # it keeps the intermediate products small.
    for f in sorted(factors, key=lambda f: f.is_open):
        if f.is_open:
            # Split off the weight-zero geometric 1/(1 - mon z^e); the
            # q-shifted remainder of the product is an ordinary closed
            # reciprocal and joins the others.
            opens.append(f)
            f = ZFactor(f.mon * Monomial.q(f.basepow), f.zexp, f.basepow, -1)
        elif f.mon.qexp < 0:
            raise NotTruncatable(
                f"argument {f.mon.text()} has negative q-weight; its "
                "z-expansion never settles")
        closed = zmul(closed, _euler_zseries(f, order))
    if not opens:
        return closed
    if len(opens) > 1:
        raise NotTruncatable(
            f"{len(opens)} open factors leave every z-power at q-weight "
            "zero; no window is sound")
    if zwindow is None:
        raise NotTruncatable(
            "an open factor makes the z-window unbounded; pass zwindow")
    lo, hi = normalize_zwindow(zwindow)
    open_f = opens[0]
    folded: dict[int, Series] = {}
    for k in range(lo, hi + 1):
        acc = Series({}, order, 0)
        for a, s in closed.coeffs.items():
            d = k - a
            if d % open_f.zexp == 0 and d // open_f.zexp >= 0:
                acc = acc + s.mul_monomial(open_f.mon ** (d // open_f.zexp))
        folded[k] = acc
    return ZSeries(folded, order, bounds=(lo, hi))


@dataclass(frozen=True)
class ZSumSpec:
    """A one-index sum of summand(n) * z^(zsign * n), one z-power at a time.

    `spec` is the z-free summand; it may carry numerator factorials,
    because only single terms are ever evaluated.
    """

    spec: SumSpec
    zsign: int

    def coeff(self, k: int, order: int) -> Series:
        """[z^k]: the summand at n = zsign * k, or 0 outside the domain."""
        n = self.zsign * k
        if n < 0 and self.spec.domains[0] == "N":
            return Series.zero(order)
        return term_series(self.spec, (n,), order)


@dataclass(frozen=True)
class ZProductSpec:
    """z-carrying infinite factors times a z-free product."""

    zfactors: tuple[ZFactor, ...]
    rest: ProductSpec

    def expand(self, order: int, zwindow=None) -> ZSeries:
        zs = expand_zfactors(self.zfactors, order, zwindow)
        return zs.scale_series(expand_product_spec(self.rest, order))


# --------------------------------------------------------- per-z verification


def verify_zcoeff_identity(name: str, lhs_coeff, rhs: ZSeries, zwindow,
                           order: int) -> VerificationReport:
    """Compare a z-indexed family of coefficients against a ZSeries.

    `lhs_coeff` maps a z-exponent to the left side's coefficient Series.
    Each pair is compared termwise up to `order`; the first discrepancy
    (tagged with its z-power) turns the report into a mismatch.
    """
    lo, hi = normalize_zwindow(zwindow)
    for k in range(lo, hi + 1):
        lhs = lhs_coeff(k)
        rhs_k = rhs.extract(k)
        for side, s in (("lhs", lhs), ("rhs", rhs_k)):
            if s.order < order:
                return VerificationReport(
                    name, order, "error",
                    error=f"{side} at z^{k} only sound to order {s.order}")
        diff = find_first_mismatch(lhs, rhs_k, order, zexp=k)
        if diff is not None:
            return VerificationReport(
                name, order, "mismatch", first_mismatch=diff,
                details={"zwindow": [lo, hi]})
    return VerificationReport(name, order, "pass",
                              details={"zwindow": [lo, hi],
                                       "zcoeffs_checked": hi - lo + 1})


# ------------------------------------------------------------ the main replay


# The double sum with its exponent in the form the pairing below produces,
# and the z-free prefactor of the constant term; the replay lowers both.
PAIRED_SUM = ("sum(i in Z, j in Z; x^i * y^j "
              "* q^(binom(i, 2) + binom(j + 1, 2) + binom(j - i, 2)) "
              "/ poch(x*q; q; i) / poch(y*q; q; j))")
PREFACTOR = "poch(q; q; inf) / poch(x*q; q; inf) / poch(y*q; q; inf)"


@dataclass
class MainProof:
    """Outcome of the constant-term replay of the double-sum identity.

    `constant_term` is the product side assembled from [z^0] of the
    paired triple products and `paired_sum` evaluates `PAIRED_SUM`, the
    very spec of the catalog's `main` statement; the replay raises
    unless they agree coefficientwise up to `order`.
    """

    order: int
    constant_term: Series
    paired_sum: Series


def prove_main_theorem(order: int = 24) -> MainProof:
    """Replay the constant-term proof of the bilateral double-sum identity.

    Steps, in the order the argument runs:

    1. lower `PAIRED_SUM` and check that it is the same exact spec as the
       left side of the catalog's `main` statement, whose exponent is
       i^2 - ij + j^2; this holds at every order, so the sum is
       evaluated once;
    2. pair the triple products in z for the companions x and 1/y (the
       latter is exactly the z -> q/z image of the companion y), extract
       the z-constant term, and multiply by the z-free `PREFACTOR`;
    3. evaluate the double sum and demand it agrees with the constant
       term coefficientwise up to `order`.
    """
    from . import catalog, speclang  # both import this module at load time

    try:
        paired, prefactor = (
            speclang.lower_expression(speclang.parse_expression(text))[0]
            for text in (PAIRED_SUM, PREFACTOR))
    except (speclang.ParseError, speclang.LoweringError) as exc:
        raise ProofReplayError(
            f"paired sum vs direct sum: {type(exc).__name__}: {exc}") from None
    if paired != catalog.get_identity("main").lowered.lhs:
        raise ProofReplayError(
            "paired sum vs direct sum: the paired sum and the stated one "
            "lower to different specs")

    pair = zmul(jtp_zseries(Monomial.var("x"), order),
                jtp_zseries(Monomial.var("y", -1), order))
    constant_term = expand_product_spec(prefactor, order) * pair.extract(0)
    paired_sum = eval_sum(paired, order)
    diff = find_first_mismatch(constant_term, paired_sum, order)
    if diff is not None:
        mono = " ".join(f"{v}^{k}" for v, k in diff["exponents"].items())
        raise ProofReplayError(
            f"constant term vs paired sum: first differing monomial {mono}: "
            f"{diff['lhs']} != {diff['rhs']}")
    return MainProof(order, constant_term, paired_sum)
