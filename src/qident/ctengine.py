"""Constant-term engine: Laurent expansion in an auxiliary variable z.

z is a formal variable of `Series`, like x or y, and a statement in z
lowers to the kernel's own specs: a one-index `SumSpec` whose summand
carries z^n or z^(-n), and a `ProductSpec` whose z-carrying factors hold
z in their arguments.  `expand_zfactors` expands such a product side on
the path of every product side (`qfactorial.expand_closed`), with z one
more formal variable: its factors cancel, telescope and pair into theta
series there, and what is left expands by Euler's series.  The z layer
keeps only its own refusals and the fold of an open factor, and
`zcoeffs` reads off single z-powers.  `sum_zcoeff` gives [z^k] of the
sum side, one summand each.
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

from dataclasses import dataclass, replace
from typing import Callable

from .qfactorial import (
    INF,
    NotTruncatable,
    ProductSpec,
    closed_factors,
    expand_closed,
    expand_product_spec,
    theta,
)
from .qring import Monomial, NotInvertible, QSeriesError, Series
from .report import VerificationReport, find_first_mismatch
from .speclang import (
    LoweringError,
    ParseError,
    lower_expression,
    parse_expression,
)
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
    """The kernel's product, named apart so that its one caller, the
    replay of `prove_main_theorem`, can be timed."""
    return f * g


# ------------------------------------------------------ Jacobi triple product


def jtp_zseries(m: Monomial, order: int) -> Series:
    """The triple product (q, m*z, q/(m*z); q)_inf as a series in z.

    The coefficient of z^n is exactly (-1)^n q^binom(n,2) m^n; the
    series keeps every n whose q-weight binom(n,2) fits under `order`,
    which is symmetric apart from the extra n=1 entry at weight zero.
    It is `qfactorial.theta` at a = m*z, the expander of product sides.
    """
    if m.coeff not in (1, -1):
        raise NotInvertible(
            f"companion monomial coefficient {m.coeff} is not a unit")
    if m.qexp != 0:
        raise NotTruncatable(
            "fold the companion's q-power into the z-substitution; a "
            "q-carrying companion leaves z-powers below the order")
    return theta(m * Monomial.var(Z), 1, order)


# ------------------------------------------------------- statements in z


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


def _split_z(arg: Monomial) -> tuple[Monomial, int]:
    """(mon, e) with arg = mon * z^e; e is 0 for a z-free argument."""
    free = tuple(v for v in arg.vars if v[0] != Z)
    return Monomial(arg.coeff, arg.qexp, free), dict(arg.vars).get(Z, 0)


def expand_zfactors(spec: ProductSpec, order: int,
                    zwindow=None) -> Series | dict[int, Series]:
    """The product side `spec` of a statement in z, sound to `order`.

    The z-free factors and the prefactor are checked first, so their
    refusals win.  Each z-carrying factor (a z^e; q^b)_inf^expo is |expo|
    factors (a z^e; q^b)_inf^(+-1), in statement order.  At most one of
    them may be "open" (reciprocal with q-free argument, such as
    1/(z;q)_inf): its z-powers are unbounded at every order, so it is
    folded into the product of the others over `zwindow`, an int K for
    [-K, K] or a (lo, hi) pair, and the result is the mapping
    k -> [z^k] for k in that range.  The closed factors, z-free or not,
    expand together on the path of every product side
    (`qfactorial.expand_closed`).
    """
    finite, infinite = closed_factors(ProductSpec(
        tuple(f for f in spec.factors if Z not in dict(f.arg.vars)),
        spec.prefactor), order)
    opens: list[Monomial] = []
    for f in spec.factors:
        mon, e = _split_z(f.arg)
        if not e:
            continue
        if f.count is not INF:
            raise ValueError(f"({f.arg.text()}; q^{f.basepow})_{f.count} "
                             "carries z but is not an infinite product")
        expo = 1 if f.expo > 0 else -1
        for _ in range(abs(f.expo)):
            arg = f.arg
            if expo < 0 and mon.qexp == 0:
                # Split off the weight-zero geometric 1/(1 - mon z^e); the
                # q-shifted remainder of the product is an ordinary closed
                # reciprocal and joins the others.
                opens.append(arg)
                arg = arg * Monomial.q(f.basepow)
            elif mon.qexp < 0:
                raise NotTruncatable(
                    f"argument {mon.text()} has negative q-weight; its "
                    "z-expansion never settles")
            infinite.append((arg, f.basepow, expo))
    closed = expand_closed(spec.prefactor, finite, infinite, order)
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


def _fold(arg: Monomial, closed: Series, lo: int,
          hi: int) -> dict[int, Series]:
    """F_k = [z^k] of closed / (1 - arg) for k = lo..hi, arg = mon z^e.

    F_k = C_k + mon F_(k-e), swept in the direction of e; the first |e|
    F_k of the sweep sum their tail mon^t C_(k-te) directly.  Each C_k
    enters one F_k, so there is at most one add per z-power of C."""
    mon, e = _split_z(arg)
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


def sum_zcoeff(spec: SumSpec, order: int) -> Callable[[int], Series]:
    """k -> [z^k] of the one-index sum `spec` of a statement in z.

    The summand carries z^n or z^(-n), so [z^k] is the summand at
    n = +-k, or 0 outside the domain.  z leaves the spec once, here, and
    each k evaluates one term, so numerator factorials are allowed.
    """
    [(_, (zsign,))] = [w for w in spec.varweights if w[0] == Z]
    free = replace(spec, varweights=tuple(w for w in spec.varweights
                                          if w[0] != Z))

    def coeff(k: int) -> Series:
        n = zsign * k
        if n < 0 and free.domains[0] == "N":
            return Series.zero(order)
        return term_series(free, (n,), order)

    return coeff


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
    from . import catalog  # imports this module at load time

    try:
        paired, prefactor = (lower_expression(parse_expression(text))[0]
                             for text in (PAIRED_SUM, PREFACTOR))
    except (ParseError, LoweringError) as exc:
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
