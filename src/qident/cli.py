"""Command-line front end.

Machine-readable results go to stdout as JSON lines (one object per
identity or expansion); a short human transcript goes to stderr.  Runs
are deterministic: two invocations with the same arguments produce
byte-identical stdout, except for the "elapsed" timing fields, which
`--no-timing` drops.

Exit status: 0 when everything passed, 1 when some identity failed its
coefficient check, 2 for usage, parse, lowering, or evaluation errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

from .catalog import (
    ParamOutOfRange,
    UnknownKey,
    default_instances,
    get_identity,
    list_identities,
    verify_identity,
)
from .ctengine import normalize_zwindow, prove_main_theorem
from .qfactorial import expand_product_spec
from .qring import QSeriesError
from .report import VerificationReport
from .speclang import (
    LoweringError,
    ParseError,
    lower_expression,
    parse_expression,
    parse_file,
    validate_identity,
)
from .summation import SumSpec, eval_sum_scaled

_EXIT = {"pass": 0, "mismatch": 1, "error": 2}
_RUNTIME_ERRORS = (QSeriesError, RecursionError, MemoryError)


def _err(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _poly_text(coeffs: list[int]) -> str:
    pieces = []
    for e, c in enumerate(coeffs):
        if not c:
            continue
        mono = "1" if e == 0 else ("q" if e == 1 else f"q^{e}")
        mag = abs(c)
        body = mono if mag == 1 and e > 0 else (
            str(mag) if e == 0 else f"{mag}*{mono}")
        pieces.append((("+ " if c > 0 else "- ") if pieces
                       else ("" if c > 0 else "-")) + body)
    return " ".join(pieces) if pieces else "0"


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def _log(line: str) -> None:
    print(line, file=sys.stderr)


def _error(message: str) -> int:
    """Emit a bare error record; the exit status for it."""
    _emit({"status": "error", "error": message})
    _log(f"[error] {message}")
    return 2


def _human(report: VerificationReport, timing: bool = True) -> str:
    mark = {"pass": "pass", "mismatch": "FAIL", "error": "error"}
    took = f", {report.elapsed:.3f}s" if timing else ""
    line = (f"[{mark[report.status]:>5}] {report.name} "
            f"(order {report.order}{took})")
    if report.first_mismatch is not None:
        e = report.first_mismatch["exponents"]
        mono = "*".join(f"{v}^{k}" for v, k in e.items())
        line += (f"  first difference at {mono}: "
                 f"{report.first_mismatch['lhs']} != "
                 f"{report.first_mismatch['rhs']}")
    elif report.error:
        line += f"  {report.error}"
    elif "qcoeffs" in report.details:
        tail = " + ..." if report.order > len(report.details["qcoeffs"]) - 1 \
            else ""
        line += f"  both sides = {_poly_text(report.details['qcoeffs'])}{tail}"
    return line


def _parse_params(text: str) -> dict:
    out: dict[str, int] = {}
    for piece in filter(None, (p.strip() for p in text.split(","))):
        name, eq, value = piece.partition("=")
        name = name.strip()
        try:
            if not eq or not name:
                raise ValueError
            value = int(value)
        except ValueError:
            raise ValueError(
                f"bad parameter {piece!r}; expected NAME=INTEGER") from None
        if name in out:
            raise ValueError(f"parameter {name!r} given twice")
        out[name] = value
    return out


def _parse_zwindow(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    if "," in text:
        lo, hi = text.split(",", 1)
        return normalize_zwindow((int(lo), int(hi)))
    return normalize_zwindow(int(text))


# ------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    reports: list[VerificationReport] = []
    if args.catalog and args.file:
        return _error("choose either --catalog or a file, not both")
    try:
        zwindow = _parse_zwindow(args.zwindow)
    except ValueError as exc:
        return _error(f"bad --zwindow {args.zwindow!r}: {exc}")
    if args.param and (args.file or args.catalog == "all"):
        return _error("--param only applies to a single catalog key")
    if args.catalog:
        if args.catalog == "all":
            targets = default_instances()
        else:
            targets = [(args.catalog, _parse_params(args.param))]
        for key, params in targets:
            try:
                ident = get_identity(key, **params)
            except (UnknownKey, ParamOutOfRange) as exc:
                reports.append(VerificationReport(
                    key, args.order, "error", error=_err(exc)))
                continue
            reports.append(verify_identity(
                ident.lowered, args.order, ident.details,
                zwindow=ident.zwindow if zwindow is None else zwindow))
    elif args.file:
        text = Path(args.file).read_text()
        try:
            asts = parse_file(text)
        except ParseError as exc:
            reports.append(VerificationReport(
                Path(args.file).name, args.order, "error", error=_err(exc)))
            asts = []
        for ast in asts:
            try:
                lowered = validate_identity(ast)
            except LoweringError as exc:
                reports.append(VerificationReport(
                    ast.name, args.order, "error", error=_err(exc)))
                continue
            reports.append(verify_identity(lowered, args.order,
                                           {"source": args.file},
                                           zwindow=zwindow))
    else:
        return _error("nothing to verify: give --catalog KEY or an identity "
                      "file")

    code = 0
    for report in reports:
        _emit(report.to_record(with_elapsed=not args.no_timing))
        _log(_human(report, timing=not args.no_timing))
        code = max(code, _EXIT[report.status])
    counts = {s: sum(1 for r in reports if r.status == s)
              for s in ("pass", "mismatch", "error")}
    _log(f"{counts['pass']} passed, {counts['mismatch']} failed, "
         f"{counts['error']} errors")
    return code


# ------------------------------------------------------------------- expand


def cmd_expand(args) -> int:
    try:
        is_file = Path(args.expr).is_file()
    except OSError:  # e.g. expression text too long for a file name
        is_file = False
    source = Path(args.expr).read_text() if is_file else args.expr
    try:
        spec, d = lower_expression(parse_expression(source))
    except (ParseError, LoweringError) as exc:
        return _error(_err(exc))
    try:
        if isinstance(spec, SumSpec):
            series = eval_sum_scaled(spec, args.order)[0]
        else:
            series = expand_product_spec(spec, args.order)
    except _RUNTIME_ERRORS as exc:
        return _error(_err(exc))

    record: dict = {"status": "ok", "order": args.order, "exact": series.exact,
                    "series": series.to_text()}
    if d > 1:
        record["qpow_denominator"] = d
    try:
        record["qcoeffs"] = series.qcoeffs()
        shown = _poly_text(record["qcoeffs"])
    except ValueError:
        shown = record["series"]
    _emit(record)
    _log(f"[   ok] expanded to order {args.order}: {shown}")
    return 0


# --------------------------------------------------------------- prove-main


def cmd_prove_main(args) -> int:
    start = time.perf_counter()
    try:
        prove_main_theorem(args.order)
        report = VerificationReport(
            "main-replay", args.order, "pass",
            details={"stages": ["constant term vs paired sum",
                                "paired sum vs direct sum"]})
    except _RUNTIME_ERRORS as exc:
        report = VerificationReport("main-replay", args.order, "error",
                                    error=_err(exc))
    report.elapsed = time.perf_counter() - start
    _emit(report.to_record(with_elapsed=not args.no_timing))
    _log(_human(report, timing=not args.no_timing))
    return _EXIT[report.status]


# --------------------------------------------------------------------- list


def cmd_list(args) -> int:
    for row in list_identities():
        _emit(row)
        params = ", ".join(
            f"{p['name']} >= {p['min']}"
            + (f" (<= {p['max']})" if p["max"] is not None else "")
            for p in row["params"]) or "-"
        _log(f"{row['key']:18s} [{row['mode']:6s}] params: {params:28s} "
             f"{row['summary']}")
    return 0


# --------------------------------------------------------------------- main


class UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2;
    its subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qident",
        description="verify q-series identities coefficient by coefficient")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check identities up to a q-order")
    v.add_argument("file", nargs="?", metavar="FILE",
                   help="identity file; alternative to --catalog")
    v.add_argument("--catalog", metavar="KEY",
                   help="catalog key, or 'all' for every default instance")
    v.add_argument("--param", default="", metavar="NAME=INT[,..]",
                   help="parameters for the catalog key, e.g. k=3,i=2")
    v.add_argument("--order", type=int, default=32,
                   help="truncation order (default 32)")
    v.add_argument("--zwindow", metavar="K|LO,HI",
                   help="z-powers to check for per-coefficient identities")
    v.add_argument("--no-timing", action="store_true",
                   help="omit elapsed times for byte-stable output")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("expand", help="expand one expression as a q-series")
    e.add_argument("expr", metavar="EXPR|FILE",
                   help="expression text such as '1 / poch(q; q; inf)', "
                        "or a file containing one")
    e.add_argument("--order", type=int, default=32)
    e.set_defaults(func=cmd_expand)

    p = sub.add_parser("prove-main",
                       help="replay the constant-term proof of the bilateral "
                            "double-sum identity")
    p.add_argument("--order", type=int, default=24)
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_prove_main)

    ls = sub.add_parser("list", help="print the identity catalog")
    ls.set_defaults(func=cmd_list)
    return parser


def _join_zwindow(argv: list[str]) -> list[str]:
    """Rewrite `--zwindow -2,3` as `--zwindow=-2,3`: argparse takes a value
    that starts with '-' and is not a plain negative number for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--zwindow" and re.fullmatch(r"-\d+,-?\d+", arg):
            out[-1] = f"--zwindow={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_join_zwindow(argv))
    except UsageError as exc:
        return _error(str(exc))
    if getattr(args, "order", 0) < 0:
        return _error(f"--order must be >= 0, got {args.order}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _error(_err(exc))


if __name__ == "__main__":
    sys.exit(main())
