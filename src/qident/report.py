"""Verification outcome records shared by the engines and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

from .qring import Series


def _exponent_vector(qexp: int, vars, zexp: int | None = None) -> dict:
    out = {"q": qexp}
    for name, e in vars:
        out[name] = e
    if zexp is not None:
        out["z"] = zexp
    return out


def find_first_mismatch(lhs: Series, rhs: Series, order: int,
                        zexp: int | None = None) -> dict | None:
    """First differing coefficient up to `order` in canonical term order.

    Returns {"exponents": {...}, "lhs": c1, "rhs": c2} or None when the
    two series agree on every term with q-exponent <= order.  Equal
    series, the common case, are told apart by one dict comparison; only
    unequal ones pay for the sorted scan.
    """
    left = {k: c for k, c in lhs.terms.items() if k[0] <= order}
    right = {k: c for k, c in rhs.terms.items() if k[0] <= order}
    if left == right:
        return None
    for qe, vk in sorted(left.keys() | right.keys()):
        a = left.get((qe, vk), 0)
        b = right.get((qe, vk), 0)
        if a != b:
            return {"exponents": _exponent_vector(qe, vk, zexp),
                    "lhs": a, "rhs": b}
    return None


@dataclass
class VerificationReport:
    """One verified identity: status plus enough detail to debug a failure."""

    name: str
    order: int
    status: str                # "pass" | "mismatch" | "error"
    first_mismatch: dict | None = None
    error: str | None = None
    elapsed: float = 0.0
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.status == "mismatch") != (self.first_mismatch is not None):
            raise ValueError("mismatch status and first_mismatch must agree")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_record(self, with_elapsed: bool = True) -> dict:
        rec = {"name": self.name, "order": self.order, "status": self.status}
        if self.first_mismatch is not None:
            rec["first_mismatch"] = self.first_mismatch
        if self.error is not None:
            rec["error"] = self.error
        if self.details:
            rec["details"] = self.details
        if with_elapsed:
            rec["elapsed"] = round(self.elapsed, 6)
        return rec


def compare_series(name: str, lhs: Series, rhs: Series, order: int,
                   details: dict | None = None) -> VerificationReport:
    """Coefficientwise comparison up to `order` as a report."""
    for side, s in (("lhs", lhs), ("rhs", rhs)):
        if s.order < order:
            return VerificationReport(
                name, order, "error",
                error=f"{side} only expanded to order {s.order} < {order}")
    diff = find_first_mismatch(lhs, rhs, order)
    if diff is None:
        return VerificationReport(name, order, "pass",
                                  details=dict(details or {}))
    return VerificationReport(name, order, "mismatch", first_mismatch=diff,
                              details=dict(details or {}))
