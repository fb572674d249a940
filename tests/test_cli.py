"""Driver behaviour: exit codes, JSON report stream, determinism.

Everything runs in-process through main(argv); stdout carries one JSON
object per line and stderr the human transcript, so capsys sees both.
"""

import json
from pathlib import Path

import pytest

from qident import catalog, cli, ctengine, qfactorial, qring
from qident.catalog import default_instances, get_identity
from qident.cli import main
from qident.qring import NotInvertible

GOLDEN = Path(__file__).parent / "data" / "verify_catalog_all_order10.jsonl"
DENSE = Path(__file__).parent / "data" / "dense_order120.qid"
DENSE_GOLDEN = DENSE.parent / "verify_dense_order120.jsonl"
ZSTATEMENTS = DENSE.parent / "zstatements.qid"
ZGOLDEN = DENSE.parent / "verify_zstatements.jsonl"
MULTISUM = DENSE.parent / "multisum_order120.qid"
MULTISUM_GOLDEN = DENSE.parent / "verify_multisum_order120.jsonl"

BROKEN = """\
identity broken {
  lhs: sum(n >= 0; q^(n^2) / poch(q; q; n));
  rhs: 2 / poch(q; q^5; inf) / poch(q^4; q^5; inf);
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    return code, records, err


def count_convolutions(monkeypatch) -> dict:
    """Count qring._convolve calls from cold caches, and the products of
    their operand sizes, which bound the term pairs they visit."""
    qfactorial._RUNS.clear()
    seen = {"calls": 0, "pairs": 0}
    real = qring._convolve

    def counted(a, b, cap):
        seen["calls"] += 1
        seen["pairs"] += len(a) * len(b)
        return real(a, b, cap)

    monkeypatch.setattr(qring, "_convolve", counted)
    return seen


# ------------------------------------------------------------------- verify


def test_verify_catalog_pass_is_exit_zero(capsys):
    code, records, err = run(capsys, "verify", "--catalog", "rr1",
                             "--order", "6")
    assert code == 0
    assert len(records) == 1
    assert records[0]["status"] == "pass"
    assert records[0]["details"]["qcoeffs"] == [1, 1, 1, 1, 2, 2, 3]
    assert "both sides = 1 + q + q^2 + q^3 + 2*q^4 + 2*q^5 + 3*q^6" in err


def test_verify_catalog_with_params(capsys):
    code, records, _ = run(capsys, "verify", "--catalog", "andrews-gordon",
                           "--param", "k=3,i=1", "--order", "20")
    assert code == 0
    assert records[0]["details"]["params"] == {"i": 1, "k": 3}
    assert records[0]["details"]["support"]["lhs"]["points"] > 0


def test_verify_mismatch_file_is_exit_one(capsys, tmp_path):
    path = tmp_path / "broken.qid"
    path.write_text(BROKEN)
    code, records, err = run(capsys, "verify", str(path), "--order", "8")
    assert code == 1
    assert records[0]["status"] == "mismatch"
    assert records[0]["first_mismatch"] == {
        "exponents": {"q": 0}, "lhs": 1, "rhs": 2}
    assert "first difference at q^0: 1 != 2" in err


def test_verify_multiblock_file(capsys, tmp_path):
    path = tmp_path / "two.qid"
    path.write_text(
        "identity a { lhs: sum(n >= 0; q^(n^2) / poch(q; q; n)); "
        "rhs: 1 / poch(q; q^5; inf) / poch(q^4; q^5; inf); }\n"
        "identity b { lhs: sum(k in Z; (-1)^k * q^(3/2*k^2 - 1/2*k)); "
        "rhs: poch(q; q; inf); }\n")
    code, records, _ = run(capsys, "verify", str(path), "--order", "18")
    assert code == 0
    assert [r["name"] for r in records] == ["a", "b"]
    # the signed bilateral sum collapses to sparse unit coefficients
    assert set(records[1]["details"]["qcoeffs"]) <= {-1, 0, 1}


def test_verify_parse_error_is_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.qid"
    path.write_text("identity x { lhs: q^; rhs: q; }")
    code, records, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert records[0]["status"] == "error"
    assert records[0]["error"].startswith("ParseError:")


DEEP = "(" * 300 + "q" + ")" * 300


def test_verify_deeply_nested_statement_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.qid"
    path.write_text(f"identity deep {{ lhs: {DEEP}; rhs: q; }}")
    code, records, _ = run(capsys, "verify", str(path), "--order", "4")
    assert code == 2
    assert len(records) == 1
    assert records[0]["status"] == "error"
    assert records[0]["error"].startswith("ParseError:")


def test_verify_lowering_error_is_exit_two(capsys, tmp_path):
    path = tmp_path / "numer.qid"
    path.write_text("identity x { vars: a; "
                    "lhs: sum(k >= 0; poch(a; q; k) * q^k); "
                    "rhs: poch(q; q; inf); }")
    code, records, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert records[0]["error"].startswith("LoweringError:")


def test_verify_unknown_key_and_bad_params(capsys):
    code, records, _ = run(capsys, "verify", "--catalog", "rr9")
    assert code == 2
    assert records[0]["error"].startswith("UnknownKey:")

    code, records, _ = run(capsys, "verify", "--catalog", "cao-wang",
                           "--param", "a=0")
    assert code == 2
    assert records[0]["error"].startswith("ParamOutOfRange:")

    assert main(["verify", "--catalog", "cao-wang", "--param", "a=x"]) == 2
    capsys.readouterr()


def test_verify_bad_param_text_is_an_error_record(capsys):
    code, records, _ = run(capsys, "verify", "--catalog", "cao-wang",
                           "--param", "a=x")
    assert code == 2
    assert records == [{
        "status": "error",
        "error": "ValueError: bad parameter 'a=x'; expected NAME=INTEGER"}]


def test_verify_repeated_param_is_an_error_record(capsys):
    code, records, _ = run(capsys, "verify", "--catalog", "cao-wang",
                           "--param", "a=1,a=2")
    assert code == 2
    assert records == [{"status": "error",
                        "error": "ValueError: parameter 'a' given twice"}]


def test_verify_missing_file_is_an_error_record(capsys, tmp_path):
    code, records, _ = run(capsys, "verify", str(tmp_path / "absent.qid"))
    assert code == 2
    assert len(records) == 1
    assert records[0]["status"] == "error"
    assert records[0]["error"].startswith("FileNotFoundError:")
    assert "absent.qid" in records[0]["error"]


def test_verify_zwindow_flag(capsys):
    code, records, _ = run(capsys, "verify", "--catalog", "bilateral-euler",
                           "--param", "m=1", "--order", "10",
                           "--zwindow", "3")
    assert code == 0
    assert records[0]["details"]["zwindow"] == [-3, 3]

    code, records, _ = run(capsys, "verify", "--catalog", "q-binomial",
                           "--order", "10", "--zwindow", "0,4")
    assert code == 0
    assert records[0]["details"]["zwindow"] == [0, 4]


def test_verify_zwindow_with_a_negative_lower_end(capsys):
    """`--zwindow -2,3` is the window, not an unknown option."""
    assert main(["verify", "--catalog", "q-binomial", "--zwindow=-2,3",
                 "--order", "4", "--no-timing"]) == 0
    joined = capsys.readouterr().out
    assert main(["verify", "--catalog", "q-binomial", "--zwindow", "-2,3",
                 "--order", "4", "--no-timing"]) == 0
    spaced = capsys.readouterr().out
    assert spaced == joined
    assert json.loads(spaced)["details"]["zwindow"] == [-2, 3]


def test_verify_half_integral_binomial_exponent_gets_a_verdict(capsys, tmp_path):
    """q^(binom(n,2)/2) is fractional only at n = 2 mod 4; the base scale
    must see it before evaluating, not fail at the term."""
    path = tmp_path / "half.qid"
    path.write_text("identity half { "
                    "lhs: sum(n >= 0; q^(1/2*binom(n, 2)) / poch(q; q; n)); "
                    "rhs: 1 / poch(q; q; inf); }")
    code, records, _ = run(capsys, "verify", str(path), "--order", "6")
    assert code == 1
    assert records[0]["status"] == "mismatch"
    assert records[0]["details"]["qpow_denominator"] == 2
    assert records[0]["first_mismatch"] == {
        "exponents": {"q": 0}, "lhs": 2, "rhs": 1}


def test_verify_files_of_z_statements_need_a_zwindow(capsys, tmp_path):
    path = tmp_path / "circle.qid"
    path.write_text(get_identity("circle-x").text)
    code, records, _ = run(capsys, "verify", str(path), "--order", "8")
    assert code == 2
    assert records[0]["error"].startswith("NotTruncatable:")
    assert "z-window" in records[0]["error"]

    code, records, _ = run(capsys, "verify", str(path), "--order", "8",
                           "--zwindow", "3")
    assert code == 0
    assert records[0]["details"]["zwindow"] == [-3, 3]


def test_verify_far_vertex_passes(capsys):
    """The sum side of andrews-p20 has its support near n = min(i, j),
    far from the origin: n = 37..40 at i = j = 40."""
    code, records, _ = run(capsys, "verify", "--catalog", "andrews-p20",
                           "--param", "i=40,j=40", "--order", "10")
    assert code == 0
    assert records[0]["status"] == "pass"
    assert records[0]["details"]["support"]["rhs"] == {
        "points": 4, "shells": 41}


def test_verify_deep_factorials_build_only_to_the_order(capsys,
                                                        monkeypatch):
    """1/(q;q)_400 to order 10 needs its first ten binomials only, on
    the product side and in every term of the sum side alike."""
    seen = count_convolutions(monkeypatch)
    code, records, _ = run(capsys, "verify", "--catalog", "andrews-p20",
                           "--param", "i=400,j=400", "--order", "10")
    assert code == 0
    assert records[0]["status"] == "pass"
    assert records[0]["details"]["support"]["rhs"] == {
        "points": 4, "shells": 401}
    assert seen["calls"] <= 60 and seen["pairs"] <= 5000, seen


def test_verify_wide_zwindow_builds_numerators_only_to_the_order(
        capsys, monkeypatch):
    """[z^k] of the q-binomial sum holds (a;q)_k for k up to 80, and only
    its binomials of q-weight <= 4 reach the order."""
    seen = count_convolutions(monkeypatch)
    code, records, _ = run(capsys, "verify", "--catalog", "q-binomial",
                           "--zwindow", "80", "--order", "4")
    assert code == 0
    assert records[0]["details"]["zcoeffs_checked"] == 161
    assert seen["calls"] <= 600 and seen["pairs"] <= 20000, seen


def test_verify_deep_product_gets_a_verdict(capsys, tmp_path):
    path = tmp_path / "deep.qid"
    path.write_text("identity deep { lhs: poch(q; q; 1200); rhs: 1; }")
    code, records, _ = run(capsys, "verify", str(path), "--order", "10")
    assert code == 1
    assert records[0]["status"] == "mismatch"
    assert records[0]["first_mismatch"] == {
        "exponents": {"q": 1}, "lhs": -1, "rhs": 0}


@pytest.mark.parametrize("window", ["5,2", "abc", "-1"])
def test_verify_bad_zwindow_is_an_error_record(capsys, window):
    code, records, _ = run(capsys, "verify", "--catalog", "all",
                           f"--zwindow={window}", "--order", "4")
    assert code == 2
    assert len(records) == 1
    assert records[0]["status"] == "error"
    assert records[0]["error"].startswith(f"bad --zwindow {window!r}")


def test_verify_memory_error_is_an_error_record(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("out of memory")
    monkeypatch.setattr(catalog, "_expand", exhausted)
    code, records, _ = run(capsys, "verify", "--catalog", "rr1",
                           "--order", "4")
    assert code == 2
    assert records[0]["name"] == "rr1"
    assert records[0]["error"] == "MemoryError: out of memory"


@pytest.mark.parametrize("argv", [
    ["verify", "--catalog", "rr1"],
    ["expand", "1 / poch(q; q; inf)"],
    ["prove-main"],
])
def test_negative_order_is_an_error_record(capsys, argv):
    code, records, _ = run(capsys, *argv, "--order", "-1")
    assert code == 2
    assert records == [{"status": "error",
                        "error": "--order must be >= 0, got -1"}]


def test_verify_needs_a_target(capsys):
    code, records, err = run(capsys, "verify", "--order", "4")
    assert code == 2
    assert records == [{"status": "error", "error": "nothing to verify: "
                        "give --catalog KEY or an identity file"}]
    assert "nothing to verify" in err


@pytest.mark.parametrize("argv,message", [
    (["--catalog", "all", "--param", "k=2"],
     "--param only applies to a single catalog key"),
    (["--catalog", "rr1", "identities.qid"],
     "choose either --catalog or a file, not both"),
    (["identities.qid", "--param", "k=3"],
     "--param only applies to a single catalog key"),
], ids=["param-with-all", "catalog-with-file", "param-with-file"])
def test_verify_usage_errors_are_error_records(capsys, argv, message):
    code, records, _ = run(capsys, "verify", *argv, "--order", "4")
    assert code == 2
    assert records == [{"status": "error", "error": message}]


@pytest.mark.parametrize("argv,message", [
    (["verify", "--catalog", "rr1", "--order", "x"],
     "qident verify: argument --order: invalid int value: 'x'"),
    (["prove-main", "--grid", "3"],
     "qident: unrecognized arguments: --grid 3"),
], ids=["bad-int", "unknown-flag"])
def test_argparse_usage_errors_are_error_records(capsys, argv, message):
    code, records, err = run(capsys, *argv)
    assert code == 2
    assert records == [{"status": "error", "error": message}]
    assert message in err


# ------------------------------------------------------------------- expand


def test_expand_partition_series(capsys):
    code, records, err = run(capsys, "expand", "1 / poch(q; q; inf)",
                             "--order", "5")
    assert code == 0
    assert records[0]["qcoeffs"] == [1, 1, 2, 3, 5, 7]
    assert "1 + q + 2*q^2 + 3*q^3 + 5*q^4 + 7*q^5" in err


def test_expand_finite_product(capsys):
    code, records, _ = run(capsys, "expand", "poch(q; q; 3)", "--order", "6")
    assert code == 0
    assert records[0]["qcoeffs"] == [1, -1, -1, 0, 1, 1, -1]


def test_expand_sum_expression(capsys):
    code, records, _ = run(capsys, "expand",
                           "sum(n >= 0; q^(n^2) / poch(q; q; n))",
                           "--order", "6")
    assert code == 0
    assert records[0]["qcoeffs"] == [1, 1, 1, 1, 2, 2, 3]


def test_expand_half_integral_exponents_report_their_base(capsys):
    """A genuinely half-integral theta sum comes back in base q^(1/2),
    flagged by qpow_denominator; coefficient k sits at (k^2/2) * 2."""
    code, records, _ = run(capsys, "expand", "sum(k in Z; (-1)^k * q^(1/2*k^2))",
                           "--order", "5")
    assert code == 0
    assert records[0]["qpow_denominator"] == 2
    assert records[0]["qcoeffs"][:10] == [1, -2, 0, 0, 2, 0, 0, 0, 0, -2]


def test_expand_binomial_half_exponents_report_their_base(capsys):
    """binom(n,2)/2 is integral at n = 0, 1 but not at n = 2: the base
    scale must come from the whole lattice, not from the unit vectors."""
    code, records, _ = run(capsys, "expand", "sum(n >= 0; q^(1/2*binom(n, 2)))",
                           "--order", "4")
    assert code == 0
    assert records[0]["qpow_denominator"] == 2
    assert records[0]["qcoeffs"] == [2, 1, 0, 1, 0, 0, 1, 0, 0]


def test_expand_formal_variable_series(capsys):
    code, records, _ = run(capsys, "expand", "poch(x*q; q; 2)", "--order", "4")
    assert code == 0
    assert "qcoeffs" not in records[0]
    assert "x" in records[0]["series"]


def test_expand_parse_error_is_exit_two(capsys):
    code, records, _ = run(capsys, "expand", "(")
    assert code == 2
    assert records[0]["status"] == "error"
    assert records[0]["error"].startswith("ParseError:")


def test_expand_deeply_nested_expression_is_a_parse_error(capsys):
    code, records, _ = run(capsys, "expand", DEEP, "--order", "4")
    assert code == 2
    assert len(records) == 1
    assert records[0]["status"] == "error"
    assert records[0]["error"].startswith("ParseError:")


def test_expand_text_too_long_for_a_file_name(capsys):
    """Probing a 300-byte text as a path fails with ENAMETOOLONG; the text
    is then an expression: (1 - q^2)^20 to order 4."""
    expr = " * ".join(["poch(q^2; q; 1)"] * 20)
    assert len(expr.encode()) > 255 and "/" not in expr
    code, records, _ = run(capsys, "expand", expr, "--order", "4")
    assert code == 0
    assert records[0]["status"] == "ok"
    assert records[0]["qcoeffs"] == [1, 0, -20, 0, 190]


def test_expand_skewed_theta_keeps_its_far_terms(capsys):
    """Only the points (3j, j) lie below the order, with empty shells
    between them; q^9 comes from (+-9, +-3)."""
    code, records, err = run(capsys, "expand",
                             "sum(i in Z, j in Z; q^(50*(i-3*j)^2 + j^2))",
                             "--order", "12")
    assert code == 0
    assert records[0]["qcoeffs"] == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0]
    assert "1 + 2*q + 2*q^4 + 2*q^9" in err


def test_expand_refuses_an_unbounded_region(capsys):
    """At n = -m the term has valuation m^2 - 3m(m+1)/2 + m = -m(m+1)/2."""
    code, records, _ = run(capsys, "expand",
                           "sum(n in Z; q^(n^2) / poch(q; q^3; n))",
                           "--order", "6")
    assert code == 2
    assert records[0]["status"] == "error"
    assert "indefinite" in records[0]["error"]
    assert "region n <= -1" in records[0]["error"]


def test_expand_deep_product_gives_the_pentagonal_coefficients(capsys):
    """(q;q)_1200 agrees with (q;q)_inf below q^1201: Euler's pentagonal
    numbers 1, 2, 5 carry the signs."""
    code, records, _ = run(capsys, "expand", "poch(q; q; 1200)",
                           "--order", "5")
    assert code == 0
    assert records[0]["status"] == "ok"
    assert records[0]["qcoeffs"] == [1, -1, -1, 0, 0, 1]


def test_expand_huge_power_is_a_zero_record(capsys):
    """The power of q is formed in closed form, not by repeated
    multiplication, and lies far above the order."""
    code, records, _ = run(capsys, "expand", "q^(1000000000)",
                           "--order", "5")
    assert code == 0
    assert records == [{"status": "ok", "order": 5, "exact": False,
                        "series": "0", "qcoeffs": [0] * 6}]


def test_expand_memory_error_is_an_error_record(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("out of memory")
    monkeypatch.setattr(cli, "expand_product_spec", exhausted)
    code, records, _ = run(capsys, "expand", "poch(q; q; inf)")
    assert code == 2
    assert records == [{"status": "error",
                        "error": "MemoryError: out of memory"}]


def test_expand_from_file(capsys, tmp_path):
    path = tmp_path / "expr.txt"
    path.write_text("1 / poch(q; q; inf)\n")
    code, records, _ = run(capsys, "expand", str(path), "--order", "3")
    assert code == 0
    assert records[0]["qcoeffs"] == [1, 1, 2, 3]


# --------------------------------------------------------------- prove-main


def test_prove_main_small_order(capsys):
    code, records, _ = run(capsys, "prove-main", "--order", "12",
                           "--no-timing")
    assert code == 0
    assert records == [{"name": "main-replay", "order": 12, "status": "pass",
                        "details": {"stages": [
                            "constant term vs paired sum",
                            "paired sum vs direct sum"]}}]


def test_prove_main_paired_sum_that_does_not_lower_is_an_error_record(
        capsys, monkeypatch):
    """The paired form plus i has no certified support: its LoweringError
    comes out as a replay error record, not as a traceback."""
    tail = "binom(j - i, 2)"
    monkeypatch.setattr(ctengine, "PAIRED_SUM",
                        ctengine.PAIRED_SUM.replace(tail, tail + " + i"))
    code, records, _ = run(capsys, "prove-main", "--order", "4")
    assert code == 2
    assert len(records) == 1
    assert records[0]["status"] == "error"
    assert records[0]["error"].startswith(
        "ProofReplayError: paired sum vs direct sum: LoweringError")


@pytest.mark.parametrize("exc", [NotInvertible("zero series has no inverse"),
                                 RecursionError("too deep"),
                                 MemoryError("out of memory")])
def test_prove_main_runtime_errors_are_error_records(capsys, monkeypatch, exc):
    def failing(order):
        raise exc
    monkeypatch.setattr(cli, "prove_main_theorem", failing)
    code, records, _ = run(capsys, "prove-main", "--order", "4")
    assert code == 2
    assert records[0]["name"] == "main-replay"
    assert records[0]["error"] == f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------- list


def test_list_prints_the_whole_catalog(capsys):
    code, records, err = run(capsys, "list")
    assert code == 0
    assert len(records) == 16
    assert records[0]["key"] == "rr1"
    assert all("summary" in r and "mode" in r for r in records)
    assert "rr1" in err


# ------------------------------------------------------------- determinism


def test_reports_are_byte_identical_without_timing(capsys):
    argv = ["verify", "--catalog", "cor-double", "--order", "16",
            "--no-timing"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    assert "elapsed" not in first


def test_timing_field_is_the_only_difference(capsys):
    argv = ["verify", "--catalog", "rr2", "--order", "12"]
    main(argv)
    one = json.loads(capsys.readouterr().out)
    main(argv)
    two = json.loads(capsys.readouterr().out)
    one.pop("elapsed")
    two.pop("elapsed")
    assert one == two


def test_catalog_output_matches_the_golden_records(capsys):
    """`verify --catalog all --no-timing` stdout is a byte-stable
    contract.  The fixture's `shells` values are those of the certified
    support enumeration; the rest was captured before the z statements
    were lowered from their text."""
    assert main(["verify", "--catalog", "all", "--order", "10",
                 "--no-timing"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_dense_statements_match_the_golden_records(capsys, monkeypatch):
    """Long dense pure-q series at order 120, which take the packed product
    path: Rogers-Ramanujan, Euler's pentagonal theorem, the double and
    triple sums, and andrews-p20 at i = 68, j = 52, whose coefficients
    reach 2^45.  The records were made before the packed path existed."""
    packed = []
    real = qring._packed_product
    monkeypatch.setattr(qring, "_packed_product",
                        lambda *args: packed.append(1) or real(*args))
    monkeypatch.chdir(DENSE.parent)
    assert main(["verify", DENSE.name, "--order", "120", "--no-timing"]) == 0
    assert capsys.readouterr().out == DENSE_GOLDEN.read_text()
    assert packed


def test_z_statements_match_the_golden_records(capsys, monkeypatch):
    """Statements in z over an asymmetric window: two that pass, one that
    mismatches at q^1 z^1, and two that the z expansion refuses (two open
    factors, an argument of negative q-weight).  The order-10 catalog
    golden holds passes only."""
    monkeypatch.chdir(ZSTATEMENTS.parent)
    assert main(["verify", ZSTATEMENTS.name, "--zwindow", "-3,4",
                 "--order", "12", "--no-timing"]) == 2
    assert capsys.readouterr().out == ZGOLDEN.read_text()


def test_multi_index_statements_match_the_golden_records(capsys, monkeypatch):
    """Bressoud k = 3 and 4 and Andrews-Gordon k = 4, sums of two and
    three indices, a planted false pairing of two-index sums, an
    indefinite form and a vanishing reciprocal, at order 120.  The
    records were made while every point was still evaluated in
    Fractions."""
    monkeypatch.chdir(MULTISUM.parent)
    assert main(["verify", MULTISUM.name, "--order", "120",
                 "--no-timing"]) == 2
    assert capsys.readouterr().out == MULTISUM_GOLDEN.read_text()


@pytest.mark.parametrize("argv,golden", [
    (["prove-main", "--order", "32"], "prove_main_order32.jsonl"),
    (["verify", "--catalog", "main", "--order", "24"],
     "verify_catalog_main_order24.jsonl"),
])
def test_main_sum_outputs_match_the_golden_records(capsys, argv, golden):
    """The bilateral double sum of `main`, summed over hundreds of support
    points: the replay's record and the verify record with its support
    points and shells, both made while the sum was still evaluated one
    point at a time."""
    assert main([*argv, "--no-timing"]) == 0
    assert capsys.readouterr().out == (GOLDEN.parent / golden).read_text()


def test_statement_files_verify_like_the_catalog(capsys, tmp_path):
    """Each catalog statement, saved as text, gets the verdict of
    `verify --catalog` (the golden records, checked above)."""
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    instances = default_instances()
    assert len(golden) == len(instances)
    for n, ((key, params), want) in enumerate(zip(instances, golden)):
        ident = get_identity(key, **params)
        path = tmp_path / f"s{n}.qid"
        path.write_text(ident.text)
        argv = ["verify", str(path), "--order", "10"]
        if ident.zwindow is not None:
            argv.append("--zwindow=%d,%d" % ident.zwindow)
        _, (got,), _ = run(capsys, *argv)
        assert got["name"] == want["name"]
        assert (got["status"], got.get("first_mismatch")) == \
            (want["status"], want.get("first_mismatch")), (key, params)
