"""Curated corpus of verifiable identities with parameterized builders.

Every entry is defined by its statement text alone: a builder writes both
sides in the statement language (families with a variable number of
indices spell their sums out with f-strings), and `get_identity` parses
them and lowers the tree through `validate_identity`, the same path a
statement file takes.  Entries whose statement declares ``z`` (the kernel
lemmas of the constant-term proof) lower to the same `SumSpec` and
`ProductSpec` types, with z a formal variable, and are compared one
z-power at a time over a default z-window the registry keeps.
`verify_identity` checks any lowered statement, from the catalog or from
a file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .ctengine import expand_zfactors, sum_zcoeff, verify_zcoeff_identity
from .qfactorial import NotTruncatable, expand_product_spec
from .qring import QSeriesError
from .report import VerificationReport, compare_series
from .speclang import (
    Expr,
    Group,
    IdentityAST,
    IntAtom,
    LoweredIdentity,
    MonoPow,
    Mul,
    PochCall,
    SumCall,
    parse_expression,
    serialize_identity,
    validate_identity,
)
from .summation import SumSpec, enumerate_support, eval_sum_over, rescale_sum


class UnknownKey(Exception):
    """No catalog entry under that key."""


class ParamOutOfRange(Exception):
    """A parameter is missing, unexpected, or outside its valid range."""


# ------------------------------------------------------------- entry objects


@dataclass(eq=False)
class Identity:
    key: str
    params: tuple[tuple[str, int], ...]
    ast: IdentityAST
    lowered: LoweredIdentity
    zwindow: tuple[int, int] | None = None        # default, statements in z

    @property
    def name(self) -> str:
        return self.ast.name

    @property
    def text(self) -> str:
        return serialize_identity(self.ast)

    @property
    def details(self) -> dict:
        """Leading details of a report: the key and any parameters."""
        out: dict = {"key": self.key}
        if self.params:
            out["params"] = dict(self.params)
        return out


@dataclass(frozen=True)
class ParamSpec:
    name: str
    lo: int
    hi: int | None = None           # inclusive upper bound, None = unbounded
    upper_param: str | None = None  # bound given by another parameter


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    summary: str
    provenance: str
    params: tuple[ParamSpec, ...]
    defaults: tuple[tuple[tuple[str, int], ...], ...]
    builder: Callable = field(compare=False)      # params -> (vars, lhs, rhs)
    zwindow: tuple[int, int] | None = None

    @property
    def mode(self) -> str:
        return "series" if self.zwindow is None else "zcoeff"


def _name_for(key: str, params) -> str:
    bits = "".join(f"_{n}{v}" for n, v in params)
    return key.replace("-", "_") + bits


# ------------------------------------------------------------------ builders


_DOUBLE_PRODUCT = ("poch(-q; q^2; inf) * poch(-q; q^2; inf) "
                   "* poch(q^2; q^2; inf) / poch(q; q; inf)")


def _build_rr(shift: int, moduli: tuple[int, int]):
    a, b = moduli
    return ((), f"sum(n >= 0; q^(n^2 + {shift}*n) / poch(q; q; n))",
            f"1 / poch(q^{a}; q^5; inf) / poch(q^{b}; q^5; inf)")


def _build_staircase(k: int, i: int, last_base: int):
    """N_1^2 + .. + N_{k-1}^2 + N_i + .. + N_{k-1} over n_1..n_{k-1},
    where N_j = n_j + .. + n_{k-1}."""
    names = [f"n{t}" for t in range(1, k)]
    tails = [" + ".join(names[j:]) for j in range(k - 1)]
    quad = " + ".join([f"({s})^2" for s in tails]
                      + [f"({s})" for s in tails[i - 1:]])
    dens = [f"poch(q; q; {nm})" for nm in names]
    if last_base == 2:
        dens[-1] = f"poch(q^2; q^2; {names[-1]})"
    decls = ", ".join(f"{nm} >= 0" for nm in names)
    m = 2 * k + 1 if last_base == 1 else 2 * k
    return ((), f"sum({decls}; q^({quad}) / {' / '.join(dens)})",
            f"poch(q^{i}; q^{m}; inf) * poch(q^{m - i}; q^{m}; inf) "
            f"* poch(q^{m}; q^{m}; inf) / poch(q; q; inf)")


def _build_main():
    return (("x", "y"),
            "sum(i in Z, j in Z; x^i * y^j * q^(i^2 - i*j + j^2) "
            "/ poch(x*q; q; i) / poch(y*q; q; j))",
            "poch(q; q; inf) * poch(-x*y*q; q^2; inf) "
            "* poch(-x^(-1)*y^(-1)*q; q^2; inf) * poch(q^2; q^2; inf) "
            "/ poch(x*q; q; inf) / poch(y*q; q; inf)")


def _build_cor_double():
    return ((), "sum(i >= 0, j >= 0; q^(i^2 - i*j + j^2) "
                "/ poch(q; q; i) / poch(q; q; j))", _DOUBLE_PRODUCT)


def _build_cor_triple():
    return ((), "sum(i >= 0, j >= 0, k >= 0; q^(i^2 + j^2 + k^2 + i*k + j*k) "
                "/ poch(q; q; i) / poch(q; q; j) / poch(q; q; k))",
            _DOUBLE_PRODUCT)


def _build_cor_multi(ell: int):
    names = [f"n{t}" for t in range(1, ell + 1)]

    def tail(first: int) -> str:
        return " + ".join(names[first - 1:])

    u, v = f"n1 + {tail(3)}", f"n2 + {tail(3)}"
    quad = [f"({u})^2 - ({u})*({v}) + ({v})^2"]
    quad += [f"(n1 + {tail(t)})*(n2 + {tail(t)})" for t in range(4, ell + 1)]
    quad.append("n1*n2")
    decls = ", ".join(f"{nm} >= 0" for nm in names)
    dens = " / ".join(f"poch(q; q; {nm})" for nm in names)
    return ((), f"sum({decls}; q^({' + '.join(quad)}) / {dens})",
            _DOUBLE_PRODUCT)


def _cao_wang_quad(a: int) -> str:
    return f"binom(i, 2) + binom(j + 1, 2) + {a}*binom(j - i, 2)"


def _build_cao_wang(a: int):
    return (("u",),
            f"sum(i >= 0, j >= 0; u^(i - j) * q^({_cao_wang_quad(a)}) "
            "/ poch(q; q; i) / poch(q; q; j))",
            f"poch(-u*q^{a}; q^{a + 1}; inf) * poch(-u^(-1)*q; q^{a + 1}; inf) "
            f"* poch(q^{a + 1}; q^{a + 1}; inf) / poch(q; q; inf)")


def _build_remark_ua1():
    return ((), f"sum(i >= 0, j >= 0; q^({_cao_wang_quad(1)}) "
                "/ poch(q; q; i) / poch(q; q; j))", _DOUBLE_PRODUCT)


def _build_andrews_p20(i: int, j: int):
    return ((), f"1 / poch(q; q; {i}) / poch(q; q; {j})",
            f"sum(k >= 0; q^(k^2 - {i + j}*k + {i * j}) / poch(q; q; k) "
            f"/ poch(q; q; {i} - k) / poch(q; q; {j} - k))")


def _build_q_binomial():
    return (("a", "z"), "sum(k >= 0; poch(a; q; k) * z^k / poch(q; q; k))",
            "poch(a*z; q; inf) / poch(z; q; inf)")


def _build_1psi1(m: int):
    return (("a", "z"),
            f"sum(k in Z; poch(a; q; k) * z^k / poch(q^{m}; q; k))",
            "poch(q; q; inf) * poch(a*z; q; inf) "
            f"* poch(a^(-1)*z^(-1)*q; q; inf) * poch(a^(-1)*q^{m}; q; inf) "
            f"/ poch(q^{m}; q; inf) / poch(z; q; inf) "
            f"/ poch(a^(-1)*z^(-1)*q^{m}; q; inf) / poch(a^(-1)*q; q; inf)")


def _build_bilateral_euler(m: int):
    return (("z",),
            "sum(k in Z; (-1)^k * z^k * q^(binom(k, 2)) "
            f"/ poch(q^{m}; q; k))",
            "poch(q; q; inf) * poch(z; q; inf) * poch(z^(-1)*q; q; inf) "
            f"/ poch(q^{m}; q; inf) / poch(z^(-1)*q^{m}; q; inf)")


def _build_circle_x():
    return (("x", "z"),
            "sum(i in Z; (-1)^i * x^i * z^i * q^(binom(i, 2)) "
            "/ poch(x*q; q; i))",
            "poch(q; q; inf) * poch(x*z; q; inf) "
            "* poch(x^(-1)*z^(-1)*q; q; inf) "
            "/ poch(x*q; q; inf) / poch(z^(-1)*q; q; inf)")


def _build_circle_y():
    return (("y", "z"),
            "sum(j in Z; (-1)^j * y^j * z^(-j) * q^(binom(j + 1, 2)) "
            "/ poch(y*q; q; j))",
            "poch(q; q; inf) * poch(y*z^(-1)*q; q; inf) "
            "* poch(y^(-1)*z; q; inf) / poch(y*q; q; inf) / poch(z; q; inf)")


# ------------------------------------------------------------------ registry


def _instances(*dicts) -> tuple:
    return tuple(tuple(sorted(d.items())) for d in dicts)


def _span(lo_k=2, hi_k=4):
    out = []
    for k in range(lo_k, hi_k + 1):
        for i in range(1, k + 1):
            out.append({"i": i, "k": k})
    return out


_REGISTRY: dict[str, CatalogEntry] = {}


def _register(key, summary, provenance, params, defaults, builder,
              zwindow=None):
    _REGISTRY[key] = CatalogEntry(key, summary, provenance, tuple(params),
                                  _instances(*defaults), builder, zwindow)


_register(
    "rr1", "single sum q^(n^2)/(q;q)_n against the modulus-5 product",
    "classical Rogers-Ramanujan pair", (), [{}],
    lambda: _build_rr(0, (1, 4)))
_register(
    "rr2", "single sum q^(n^2+n)/(q;q)_n against the modulus-5 product",
    "classical Rogers-Ramanujan pair", (), [{}],
    lambda: _build_rr(1, (2, 3)))
_register(
    "andrews-gordon",
    "odd-modulus staircase family in k-1 unilateral indices",
    "Andrews-Gordon family",
    (ParamSpec("k", 2), ParamSpec("i", 1, upper_param="k")),
    _span(),
    lambda k, i: _build_staircase(k, i, 1))
_register(
    "bressoud",
    "even-modulus staircase family ending in a base-q^2 factor",
    "Bressoud even-modulus family",
    (ParamSpec("k", 2), ParamSpec("i", 1, upper_param="k")),
    _span(),
    lambda k, i: _build_staircase(k, i, 2))
_register(
    "ramanujan-1psi1",
    "bilateral z-series with numerator parameter a and b = q^m",
    "bilateral series summation with b = q^m",
    (ParamSpec("m", 1),),
    [{"m": 1}, {"m": 2}, {"m": 3}],
    _build_1psi1, (-5, 5))
_register(
    "q-binomial", "unilateral z-series (a;q)_k z^k/(q;q)_k",
    "classical q-binomial theorem", (), [{}],
    _build_q_binomial, (0, 6))
_register(
    "cao-wang",
    "double sum with weight u^(i-j) and modulus a+1 product side",
    "two-parameter double-sum family",
    (ParamSpec("a", 1),),
    [{"a": 1}, {"a": 2}, {"a": 3}],
    _build_cao_wang)
_register(
    "main",
    "bilateral double sum with hexagonal exponent i^2-ij+j^2",
    "bilateral double-sum product identity", (), [{}],
    _build_main)
_register(
    "cor-double", "unilateral double sum with exponent i^2-ij+j^2",
    "x = y = 1 slice of the bilateral double sum", (), [{}],
    _build_cor_double)
_register(
    "cor-triple", "unilateral triple sum with the same product side",
    "triple-sum companion of the double sum", (), [{}],
    _build_cor_triple)
_register(
    "cor-multi", "ell-fold unilateral sum with the same product side",
    "multi-sum companion family",
    (ParamSpec("ell", 4),),
    [{"ell": 4}, {"ell": 5}],
    _build_cor_multi)
_register(
    "bilateral-euler",
    "signed bilateral z-series over (q^m;q)_k, one z-power at a time",
    "signed bilateral expansion over (q^m; q)_k",
    (ParamSpec("m", 1),),
    [{"m": 1}, {"m": 2}, {"m": 3}],
    _build_bilateral_euler, (-4, 4))
_register(
    "circle-x", "bilateral kernel factor carrying x and z",
    "kernel factor for the constant-term replay", (), [{}],
    _build_circle_x, (-4, 4))
_register(
    "circle-y", "bilateral kernel factor carrying y and 1/z",
    "kernel factor for the constant-term replay", (), [{}],
    _build_circle_y, (-4, 4))
_register(
    "andrews-p20",
    "finite splitting of 1/((q;q)_i (q;q)_j) into a k-sum",
    "finite splitting lemma for factorial denominators",
    (ParamSpec("i", 0), ParamSpec("j", 0)),
    [{"i": 4, "j": 5}],
    _build_andrews_p20)
_register(
    "remark-ua1",
    "u = a = 1 slice of the two-parameter double-sum family",
    "specialization remark for the two-parameter family", (), [{}],
    _build_remark_ua1)


# ----------------------------------------------------------------- public API


def list_identities() -> list[dict]:
    """Stable, registration-ordered inventory of catalog entries."""
    out = []
    for entry in _REGISTRY.values():
        params = [{"name": p.name, "min": p.lo,
                   "max": p.upper_param or p.hi}
                  for p in entry.params]
        out.append({"key": entry.key, "summary": entry.summary,
                    "provenance": entry.provenance, "mode": entry.mode,
                    "params": params,
                    "defaults": [dict(d) for d in entry.defaults]})
    return out


def default_instances() -> list[tuple[str, dict]]:
    """Every entry with its default parameter choices, in catalog order."""
    out = []
    for entry in _REGISTRY.values():
        for inst in entry.defaults:
            out.append((entry.key, dict(inst)))
    return out


def get_identity(key: str, **params) -> Identity:
    entry = _REGISTRY.get(key)
    if entry is None:
        raise UnknownKey(f"no identity under key {key!r}; see list_identities()")
    expected = [p.name for p in entry.params]
    extra = sorted(set(params) - set(expected))
    if extra:
        raise ParamOutOfRange(
            f"{key} does not take parameter(s) {', '.join(extra)}")
    missing = sorted(set(expected) - set(params))
    if missing:
        raise ParamOutOfRange(
            f"{key} needs parameter(s) {', '.join(missing)}")
    for p in entry.params:
        v = params[p.name]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParamOutOfRange(f"{key}: {p.name} must be an integer")
        hi = params[p.upper_param] if p.upper_param else p.hi
        if v < p.lo or (hi is not None and v > hi):
            top = hi if hi is not None else "inf"
            raise ParamOutOfRange(
                f"{key}: {p.name}={v} outside [{p.lo}, {top}]")
    inst = tuple(sorted(params.items()))
    vars_, lhs, rhs = entry.builder(**params)
    ast = IdentityAST(_name_for(key, inst), vars_, (),
                      parse_expression(lhs), parse_expression(rhs))
    return Identity(key, inst, ast, validate_identity(ast), entry.zwindow)


def specialize_to_one(ident: Identity, names) -> Identity:
    """Set formal variables to 1 at the statement level and re-lower.

    Bilateral sums may collapse to unilateral ones this way: vanishing
    reciprocals (q;q)_n with n < 0 kill the new negative terms.
    """
    names = set(names)
    if ident.zwindow is not None:
        raise ValueError("can only specialize series-mode identities")

    def walk_expr(e: Expr) -> Expr:
        return Expr(tuple((s, walk_mul(m)) for s, m in e.addends))

    def walk_mul(m: Mul) -> Mul:
        out = []
        for op, f in m.factors:
            g = walk_factor(f)
            if g is not None:
                out.append((op, g))
        if not out:
            out = [(1, IntAtom(1))]
        if out[0][0] < 0:
            out.insert(0, (1, IntAtom(1)))
        return Mul(tuple(out))

    def walk_factor(f):
        if isinstance(f, MonoPow):
            return None if f.name in names else f
        if isinstance(f, PochCall):
            arg = tuple((n, e) for n, e in f.arg if n not in names)
            return PochCall(arg, f.base, f.count, f.coeff)
        if isinstance(f, SumCall):
            return SumCall(f.decls, walk_expr(f.body))
        if isinstance(f, Group):
            return Group(walk_expr(f.inner), f.exp)
        return f

    ast = IdentityAST(
        ident.ast.name + "_at_" + "_".join(f"{n}1" for n in sorted(names)),
        tuple(v for v in ident.ast.vars if v not in names),
        ident.ast.params, walk_expr(ident.ast.lhs), walk_expr(ident.ast.rhs))
    return Identity(ident.key, ident.params, ast, validate_identity(ast))


def _expand(side, order: int, d: int):
    """One side in base q^(1/d) to q-order order * d, plus its support."""
    if isinstance(side, SumSpec):
        sup = enumerate_support(side, order)
        series = eval_sum_over(rescale_sum(side, d), sup.points, order * d)
        return series, {"points": len(sup.points),
                        "shells": sup.shells_scanned}
    series = expand_product_spec(side, order)
    return (series.rescale_base(d) if d > 1 else series), None


def verify_identity(lowered: LoweredIdentity, order: int, details: dict,
                    zwindow=None) -> VerificationReport:
    """Check a lowered statement coefficientwise up to `order`.

    The report's details start with `details` (a catalog entry's key and
    params, or a source file).  A statement in z is compared one z-power
    at a time over `zwindow`, an int K for [-K, K] or a (lo, hi) pair,
    and is an error without one.
    """
    details = dict(details)
    d = lowered.rescale
    if d > 1:
        details["qpow_denominator"] = d
    start = time.perf_counter()
    try:
        if "z" in lowered.vars:
            if zwindow is None:
                raise NotTruncatable(
                    "a statement in z needs a z-window; pass zwindow "
                    "(--zwindow K or LO,HI)")
            report = verify_zcoeff_identity(
                lowered.name, sum_zcoeff(lowered.lhs, order),
                expand_zfactors(lowered.rhs, order, zwindow), zwindow, order)
            report.details = {**details, **report.details}
        else:
            lhs, sup_l = _expand(lowered.lhs, order, d)
            rhs, sup_r = _expand(lowered.rhs, order, d)
            support = {side: s for side, s
                       in (("lhs", sup_l), ("rhs", sup_r)) if s}
            if support:
                details["support"] = support
            report = compare_series(lowered.name, lhs, rhs, order * d,
                                    details=details)
            if report.passed:
                try:
                    report.details["qcoeffs"] = lhs.qcoeffs(
                        min(order * d, 12))
                except ValueError:
                    pass        # formal variables present; no linear preview
    except (QSeriesError, RecursionError, MemoryError) as exc:
        report = VerificationReport(lowered.name, order, "error",
                                    error=f"{type(exc).__name__}: {exc}",
                                    details=details)
    report.elapsed = time.perf_counter() - start
    return report
