"""The identity corpus: builders, parameter checks, and cross-identities.

Many entries are known specializations of one another; those reductions
are checked here numerically (same truncated coefficients) or, where the
normalizer makes two statements literally identical, structurally.
"""

from pathlib import Path

import pytest

from qident.catalog import (
    Identity,
    ParamOutOfRange,
    UnknownKey,
    default_instances,
    get_identity,
    list_identities,
    specialize_to_one,
    verify_identity,
)
from qident.ctengine import sum_zcoeff
from qident.qfactorial import ProductSpec, expand_product_spec
from qident.speclang import ParseError, parse_identity, serialize_identity, \
    tokenize, validate_identity
from qident.summation import SumSpec, eval_sum

ALL_KEYS = [
    "rr1", "rr2", "andrews-gordon", "bressoud", "ramanujan-1psi1",
    "q-binomial", "cao-wang", "main", "cor-double", "cor-triple",
    "cor-multi", "bilateral-euler", "circle-x", "circle-y", "andrews-p20",
    "remark-ua1",
]


def lhs_series(ident: Identity, order: int):
    return eval_sum(ident.lowered.lhs, order)


def verify(ident: Identity, order: int, zwindow=None):
    return verify_identity(
        ident.lowered, order, ident.details,
        zwindow=ident.zwindow if zwindow is None else zwindow)


# ----------------------------------------------------------------- inventory


def test_inventory_lists_every_entry_in_registration_order():
    inv = list_identities()
    assert [row["key"] for row in inv] == ALL_KEYS
    for row in inv:
        assert row["mode"] in ("series", "zcoeff")
        assert row["summary"]
        assert row["provenance"]
        assert row["defaults"], f"{row['key']} has no default instances"


def test_default_instances_cover_parameter_grids():
    insts = dict.fromkeys(k for k, _ in default_instances())
    assert list(insts) == ALL_KEYS
    staircase = [p for k, p in default_instances() if k == "andrews-gordon"]
    assert staircase == [{"i": i, "k": k}
                         for k in (2, 3, 4) for i in range(1, k + 1)]


def test_unknown_key_is_rejected():
    with pytest.raises(UnknownKey, match="no identity"):
        get_identity("rr3")


@pytest.mark.parametrize("key,params", [
    ("main", {"k": 1}),                      # takes no parameters
    ("andrews-gordon", {"k": 3}),            # i missing
    ("andrews-gordon", {"k": 1, "i": 1}),    # k below the family floor
    ("andrews-gordon", {"k": 3, "i": 0}),
    ("andrews-gordon", {"k": 3, "i": 4}),    # i > k
    ("bressoud", {"k": 2, "i": 3}),
    ("ramanujan-1psi1", {"m": 0}),
    ("cao-wang", {"a": 0}),
    ("cor-multi", {"ell": 3}),
    ("andrews-p20", {"i": -1, "j": 2}),
    ("andrews-p20", {"i": True, "j": 2}),    # bools are not parameters
])
def test_bad_parameters_are_rejected(key, params):
    with pytest.raises(ParamOutOfRange):
        get_identity(key, **params)


def test_instantiated_names_embed_parameters():
    assert get_identity("andrews-gordon", k=3, i=2).name == \
        "andrews_gordon_i2_k3"
    assert get_identity("rr1").name == "rr1"


# ------------------------------------------------------------ verifications


@pytest.mark.parametrize("key,params,order", [
    ("rr1", {}, 40),
    ("rr2", {}, 40),
    ("andrews-gordon", {"k": 3, "i": 1}, 24),
    ("bressoud", {"k": 3, "i": 2}, 24),
    ("cao-wang", {"a": 2}, 20),
    ("main", {}, 14),
    ("cor-double", {}, 24),
    ("cor-triple", {}, 20),
    ("cor-multi", {"ell": 4}, 16),
    ("andrews-p20", {"i": 3, "j": 5}, 20),
    ("remark-ua1", {}, 24),
])
def test_series_entries_verify(key, params, order):
    report = verify(get_identity(key, **params), order)
    assert report.status == "pass", report.to_record()
    assert report.details["key"] == key


@pytest.mark.parametrize("key,params", [
    ("q-binomial", {}),
    ("ramanujan-1psi1", {"m": 1}),
    ("ramanujan-1psi1", {"m": 3}),
    ("bilateral-euler", {"m": 2}),
    ("circle-x", {}),
    ("circle-y", {}),
])
def test_zcoeff_entries_verify(key, params):
    report = verify(get_identity(key, **params), 14)
    assert report.status == "pass", report.to_record()
    assert report.details["zcoeffs_checked"] >= 5


def test_zwindow_override_lands_in_the_report():
    report = verify(get_identity("bilateral-euler", m=1), 10,
                    zwindow=(-2, 3))
    assert report.status == "pass"
    assert report.details["zwindow"] == [-2, 3]


def test_reports_carry_parameters():
    rec = verify(get_identity("cao-wang", a=1), 12).to_record(
        with_elapsed=False)
    assert rec["details"]["params"] == {"a": 1}
    assert "elapsed" not in rec


# --------------------------------------------------------------- reductions


def test_staircase_k2_is_the_classical_single_sum_pair():
    """The two-index family at depth k=2 has one summation index; its
    i=1 member matches the shifted single sum and i=2 the unshifted one."""
    order = 40
    assert lhs_series(get_identity("andrews-gordon", k=2, i=1), order).terms \
        == lhs_series(get_identity("rr2"), order).terms
    assert lhs_series(get_identity("andrews-gordon", k=2, i=2), order).terms \
        == lhs_series(get_identity("rr1"), order).terms


def test_rr1_low_coefficients():
    assert lhs_series(get_identity("rr1"), 6).qcoeffs() == \
        [1, 1, 1, 1, 2, 2, 3]


def test_double_sum_low_coefficients():
    got = lhs_series(get_identity("cor-double"), 10).qcoeffs()
    assert got == [1, 3, 4, 7, 13, 19, 29, 43, 62, 90, 126]


def test_main_specialized_at_one_collapses_to_the_double_sum():
    special = specialize_to_one(get_identity("main"), ["x", "y"])
    assert special.name == "main_at_x1_y1"
    assert special.ast.vars == ()
    order = 24
    assert lhs_series(special, order).terms == \
        lhs_series(get_identity("cor-double"), order).terms
    assert verify(special, order).status == "pass"


def test_specialize_refuses_zcoeff_entries():
    with pytest.raises(ValueError, match="series-mode"):
        specialize_to_one(get_identity("q-binomial"), ["a"])


def test_remark_normalizes_onto_the_double_sum():
    """Its exponent arrives as three binomial-shaped halves; the
    normalizer must fold them to the hexagonal form exactly."""
    ua1 = get_identity("remark-ua1")
    cd = get_identity("cor-double")
    assert ua1.lowered.lhs == cd.lowered.lhs
    assert ua1.lowered.rhs == cd.lowered.rhs
    assert "q^(i^2 - i*j + j^2)" in ua1.text


def test_cao_wang_at_a1_shares_the_double_sum_lhs():
    special = specialize_to_one(get_identity("cao-wang", a=1), ["u"])
    order = 24
    assert lhs_series(special, order).terms == \
        lhs_series(get_identity("cor-double"), order).terms


def test_double_triple_and_multi_sums_agree():
    order = 20
    want = lhs_series(get_identity("cor-double"), order).terms
    assert lhs_series(get_identity("cor-triple"), order).terms == want
    assert lhs_series(get_identity("cor-multi", ell=4), order).terms == want
    assert lhs_series(get_identity("cor-multi", ell=5), 14).terms == \
        lhs_series(get_identity("cor-double"), 14).terms


def test_1psi1_at_m1_reduces_to_the_q_binomial_family():
    order = 16
    psi = sum_zcoeff(get_identity("ramanujan-1psi1", m=1).lowered.lhs, order)
    qb = sum_zcoeff(get_identity("q-binomial").lowered.lhs, order)
    for k in range(-4, 7):
        assert psi(k).terms == qb(k).terms


# ------------------------------------------------------------ text corpus


def corpus_texts():
    return [(key, params, get_identity(key, **params).text)
            for key, params in default_instances()]


def test_every_statement_round_trips_byte_identically():
    for key, params, text in corpus_texts():
        assert serialize_identity(parse_identity(text)) == text, (key, params)


def test_series_statements_relower_to_the_same_specs():
    for key, params in default_instances():
        ident = get_identity(key, **params)
        if ident.zwindow is not None:
            continue
        lowered = validate_identity(parse_identity(ident.text))
        assert lowered == ident.lowered, key


def test_zcoeff_statement_texts_lower_to_their_verified_specs():
    """Statements in z lower from their text alone: [z^k] of the left
    side is one summand, numerator factorials included, and the right
    side is a product with z-carrying factors."""
    for key, params in default_instances():
        ident = get_identity(key, **params)
        if ident.zwindow is None:
            continue
        lowered = validate_identity(parse_identity(ident.text))
        assert lowered == ident.lowered, key
        assert isinstance(lowered.lhs, SumSpec), key
        assert isinstance(lowered.rhs, ProductSpec), key
        assert any("z" in dict(f.arg.vars) for f in lowered.rhs.factors), key
    psi = get_identity("ramanujan-1psi1", m=2).lowered
    assert psi.lhs.numers and dict(psi.lhs.varweights)["z"] == (1,)
    assert dict(get_identity("circle-y").lowered.lhs.varweights)["z"] == (-1,)


def test_corpus_mutations_fail_close_to_the_edit():
    """Across the whole corpus, deleting any single token either leaves a
    parseable statement (rare: redundant signs) or raises within two
    tokens of the hole.  At least fifty deletions must raise."""
    raising = 0
    for key, params, text in corpus_texts()[:8]:
        toks = tokenize(text)
        for k, tok in enumerate(toks[:-1]):
            mutated = (text[:tok.offset] + " "
                       + text[tok.offset + len(tok.text):])
            try:
                parse_identity(mutated)
            except ParseError as err:
                raising += 1
                edge = toks[min(k + 2, len(toks) - 1)]
                bound = (edge.line, edge.col + len(edge.text))
                assert (err.line, err.col) <= bound, (
                    f"{key}: deleting {tok.text!r} reported "
                    f"{(err.line, err.col)}, past {bound}")
    assert raising >= 50


CATALOG_TEXTS = Path(__file__).parent / "data" / "catalog_texts.txt"


def pinned_instances():
    """The instances whose canonical text catalog_texts.txt holds: every
    parameterless entry, then each family over a grid wider than its
    defaults."""
    out = [(row["key"], {}) for row in list_identities() if not row["params"]]
    for key in ("andrews-gordon", "bressoud"):
        out += [(key, {"k": k, "i": i})
                for k in range(2, 8) for i in range(1, k + 1)]
    for key in ("ramanujan-1psi1", "bilateral-euler"):
        out += [(key, {"m": m}) for m in range(1, 7)]
    out += [("cao-wang", {"a": a}) for a in range(1, 7)]
    out += [("cor-multi", {"ell": ell}) for ell in range(4, 9)]
    out += [("andrews-p20", {"i": i, "j": j})
            for i in (0, 1, 4, 9) for j in (0, 1, 4, 9)]
    return out


def pinned_texts() -> str:
    return "\n".join(get_identity(key, **params).text
                     for key, params in pinned_instances())


def test_catalog_texts_match_the_pinned_file_byte_for_byte():
    assert pinned_texts() == CATALOG_TEXTS.read_text()


def test_statement_text_is_useful_as_a_file():
    text = get_identity("bressoud", k=2, i=1).text
    assert text.startswith("identity bressoud_i1_k2 {")
    assert "poch(q^2; q^2; " in text          # the even-base final factor
    assert text.endswith("}\n")


# --------------------------------------------------------------- evaluation


def test_series_product_sides_expand_like_their_specs():
    ident = get_identity("rr1")
    got = expand_product_spec(ident.lowered.rhs, 6).qcoeffs()
    assert got == [1, 1, 1, 1, 2, 2, 3]
