"""Constant-term engine: Laurent expansion in an auxiliary variable z.

z is a formal variable of `Series`, like x or y.  Every z-carrying
Pochhammer symbol of a bilateral product side expands to a series in z
by Euler's series, as every infinite factor with formal variables does
(`qfactorial.infinite_factor`), the kernel multiplies them out, and
`zcoeffs` reads off single z-powers.
Pairing two Jacobi triple products and extracting the constant term
replays the double-sum product formula mechanically; `prove_main_theorem`
runs that replay end to end.  It reads the sum it proves from statement
text, the catalog's `main` entry, and checks it against `PAIRED_SUM`, the
same sum with its exponent in paired form.

The z-window is the truncation: a series sound to order N holds every
term of q-weight at most N at every z-power, and the kernel's product
order already allows for coefficients of negative q-valuation.  Only an
open factor such as 1/(z; q)_inf puts every z-power at q-weight zero; it
is folded over a z-window the caller names, and what comes out is the
mapping k -> [z^k] over that window, not a series that a product could
take for the whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qfactorial import (
    NotTruncatable,
    ProductSpec,
    expand_product_spec,
    infinite_factor,
)
from .qring import Monomial, NotInvertible, QSeriesError, Series
from .report import VerificationReport, find_first_mismatch
from .summation import SumSpec, eval_sum, term_series

Z = "z"  # the auxiliary variable


class ProofReplayError(QSeriesError):
    """Two expansion routes that must agree produced different series."""


def binom2(n: int) -> int:
    """n(n-1)/2, nonnegative for every integer n."""
    return n * (n - 1) // 2


def zcoeffs(s: Series, ks=None):
    """Yield (k, [z^k] s) for each k of `ks`, or of the z-powers s holds,
    each built at its turn and sound to the order of s."""
    rows: dict[int, list] = {}
    for key in s.terms:
        rows.setdefault(dict(key[1]).get(Z, 0), []).append(key)
    for k in rows if ks is None else ks:
        terms = {(qe, tuple(p for p in vk if p[0] != Z)): s.terms[qe, vk]
                 for qe, vk in rows.get(k, ())}
        yield k, Series(terms, s.order, s.floor)


def zmul(f: Series, g: Series) -> Series:
    """The kernel's product, named apart so the z layer's can be timed."""
    return f * g


# ------------------------------------------------------ Jacobi triple product


def jtp_zseries(m: Monomial, order: int) -> Series:
    """The triple product (q, m*z, q/(m*z); q)_inf as a series in z.

    The coefficient of z^n is exactly (-1)^n q^binom(n,2) m^n; the
    series keeps every n whose q-weight binom(n,2) fits under `order`,
    which is symmetric apart from the extra n=1 entry at weight zero.
    """
    if m.coeff not in (1, -1):
        raise NotInvertible(
            f"companion monomial coefficient {m.coeff} is not a unit")
    if m.qexp != 0:
        raise NotTruncatable(
            "fold the companion's q-power into the z-substitution; a "
            "q-carrying companion leaves z-powers below the order")
    terms = {}
    for n, step in ((0, 1), (-1, -1)):
        while binom2(n) <= order:
            mono = (Monomial(-1 if n % 2 else 1, binom2(n)) * m ** n
                    * Monomial.var(Z, n))
            terms[mono.key()] = mono.coeff
            n += step
    return Series(terms, order)


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
        q-weight, so no truncation in q bounds its z-powers; the factor
        must be folded over an explicitly requested window instead.
        """
        return self.expo == -1 and self.mon.qexp == 0


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


def expand_zfactors(factors, order: int, zwindow=None,
                    rest: Series | None = None) -> Series | dict[int, Series]:
    """ZFactors times the z-free series `rest`, sound to `order`.

    At most one factor may be "open" (reciprocal with q-free argument,
    such as 1/(z;q)_inf): its z-powers are unbounded at every order, so
    it is folded into the product of the others over `zwindow`, an int K
    for [-K, K] or a (lo, hi) pair, and the result is the mapping
    k -> [z^k] for k in that range.
    """
    closed = Series.one(order)
    opens: list[ZFactor] = []
    for f in factors:
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
        closed = zmul(closed, infinite_factor(
            f.mon * Monomial.var(Z, f.zexp), f.basepow, f.expo, order))
    if rest is not None:
        closed = closed * rest
    if not opens:
        return closed
    if len(opens) > 1:
        raise NotTruncatable(
            f"{len(opens)} open factors leave every z-power at q-weight "
            "zero; no window is sound")
    if zwindow is None:
        raise NotTruncatable(
            "an open factor makes the z-window unbounded; pass zwindow")
    return _fold(opens[0], closed, *normalize_zwindow(zwindow))


def _fold(f: ZFactor, closed: Series, lo: int, hi: int) -> dict[int, Series]:
    """F_k = [z^k] of closed / (1 - mon z^e) for k = lo..hi.

    F_k = C_k + mon F_(k-e), swept in the direction of e; the first |e|
    F_k of the sweep sum their tail mon^t C_(k-te) directly.  Each C_k
    enters one F_k, so there is at most one add per z-power of C."""
    e, mon = f.zexp, f.mon
    c = dict(zcoeffs(closed))
    out: dict[int, Series] = {}
    for k in range(lo, hi + 1) if e > 0 else range(hi, lo - 1, -1):
        prev = out.get(k - e)
        if prev is None:
            acc = Series.zero(closed.order)
            for a, s in c.items():
                t, r = divmod(k - a, e)
                if r == 0 and t >= 0:
                    acc = acc + s.mul_monomial(mon ** t)
        else:
            acc = prev.mul_monomial(mon)
            if k in c:
                acc = c[k] + acc
        out[k] = acc
    return out


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

    def expand(self, order: int, zwindow=None) -> Series | dict[int, Series]:
        return expand_zfactors(self.zfactors, order, zwindow,
                               expand_product_spec(self.rest, order))


# --------------------------------------------------------- per-z verification


def verify_zcoeff_identity(name: str, lhs_coeff, rhs, zwindow,
                           order: int) -> VerificationReport:
    """Compare a z-indexed family of coefficients against a series in z.

    `lhs_coeff` maps a z-exponent to the left side's coefficient Series,
    and `rhs` is a series in z or, as `expand_zfactors` gives it for an
    open factor, the mapping k -> [z^k], which must hold every k of the
    window.  Each pair is compared termwise up to `order`; the first
    discrepancy (tagged with its z-power) turns the report into a mismatch.
    """
    lo, hi = normalize_zwindow(zwindow)
    window = range(lo, hi + 1)
    rows = (zcoeffs(rhs, window) if isinstance(rhs, Series)
            else ((k, rhs[k]) for k in window))
    for k, rhs_k in rows:
        lhs = lhs_coeff(k)
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

    [(_, ct)] = zcoeffs(zmul(jtp_zseries(Monomial.var("x"), order),
                             jtp_zseries(Monomial.var("y", -1), order)), [0])
    constant_term = expand_product_spec(prefactor, order) * ct
    paired_sum = eval_sum(paired, order)
    diff = find_first_mismatch(constant_term, paired_sum, order)
    if diff is not None:
        mono = " ".join(f"{v}^{k}" for v, k in diff["exponents"].items())
        raise ProofReplayError(
            f"constant term vs paired sum: first differing monomial {mono}: "
            f"{diff['lhs']} != {diff['rhs']}")
    return MainProof(order, constant_term, paired_sum)
