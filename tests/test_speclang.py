"""Statement-format tests: lexing, parsing, canonical output, lowering."""

import ast as pyast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qident
from qident import speclang
from qident.catalog import default_instances, get_identity
from qident.qfactorial import INF, FactorSpec, ProductSpec, expand_product_spec
from qident.qring import Monomial
from qident.speclang import (
    ExpPoly,
    IdentityAST,
    IntAtom,
    LoweringError,
    MonoPow,
    Mul,
    ParseError,
    PochCall,
    SumCall,
    Expr,
    Group,
    parse_expression,
    parse_file,
    parse_identity,
    serialize_identity,
    tokenize,
    validate_identity,
)
from qident.summation import (
    AffineForm,
    DenomFactor,
    QuadForm,
    SumSpec,
    eval_sum,
    make_sum_spec,
)

RR1_TEXT = ("identity rr1 { lhs: sum(n >= 0; q^(n^2) / poch(q; q; n)); "
            "rhs: 1 / poch(q; q^5; inf) / poch(q^4; q^5; inf); }")

MAIN_TEXT = (
    "identity main {\n"
    "  vars: x, y;\n"
    "  lhs: sum(i in Z, j in Z; x^i * y^j * q^(i^2 - i*j + j^2)"
    " / poch(x*q; q; i) / poch(y*q; q; j));\n"
    "  rhs: poch(q; q; inf) * poch(-x*y*q; q^2; inf)"
    " * poch(-x^(-1)*y^(-1)*q; q^2; inf) * poch(q^2; q^2; inf)"
    " / poch(x*q; q; inf) / poch(y*q; q; inf);\n"
    "}\n")

CATALOG_TEXTS = Path(__file__).parent / "data" / "catalog_texts.txt"


def one(poly_or_atom):
    """Wrap a single factor as a full expression tree."""
    return Expr(((1, Mul(((1, poly_or_atom),))),))


# ------------------------------------------------------------------- parsing


def test_single_sum_product_identity_parses():
    ast = parse_identity(RR1_TEXT)
    assert ast.name == "rr1"
    assert ast.vars == ()
    assert ast.params == ()
    (sign, mul), = ast.lhs.addends
    assert sign == 1
    (op, summ), = mul.factors
    assert isinstance(summ, SumCall)
    assert summ.decls == (("n", "N"),)
    rhs_ops = [op for op, _ in ast.rhs.addends[0][1].factors]
    assert rhs_ops == [1, -1, -1]
    assert ast.rhs.addends[0][1].factors[0][1] == IntAtom(1)


def test_whitespace_and_comments_do_not_matter():
    spaced = RR1_TEXT.replace("{", "{\n  # classical single-sum statement\n")
    spaced = spaced.replace(" / ", "\n    /\n  ")
    assert parse_identity(spaced) == parse_identity(RR1_TEXT)


def test_bilateral_declaration_and_signs_parse():
    text = ("identity t { vars: z; lhs: sum(k in Z; (-1)^k * z^k *"
            " q^(binom(k, 2)) / poch(q^2; q; k)); rhs: 1; }")
    ast = parse_identity(text)
    summ = ast.lhs.addends[0][1].factors[0][1]
    assert summ.decls == (("k", "Z"),)
    sign_factor = summ.body.addends[0][1].factors[0][1]
    assert sign_factor.exp == ExpPoly.var("k")


def test_a_name_that_repeats_in_a_key_is_merged():
    n = ExpPoly.var("n")
    assert ExpPoly({(("n", 1), ("n", 1)): 1}) == n ** 2
    assert ExpPoly({(("n", 1), ("m", 2), ("n", -1)): 3}) == (
        ExpPoly.var("m") ** 2).scale(3)
    assert ExpPoly({(("n", 1), ("n", -1)): 2}) == ExpPoly.const(2)
    assert ExpPoly({(("m", 1), ("n", 0)): 1}) == ExpPoly.var("m")


def test_binom_sugar_expands_to_halved_quadratic():
    a = parse_identity("identity a { lhs: q^(binom(n, 2)); rhs: 1; }")
    b = parse_identity(
        "identity a { lhs: q^(1/2*n^2 - 1/2*n); rhs: 1; }")
    assert a == b
    poly = a.lhs.addends[0][1].factors[0][1].exp
    assert poly.terms[(("n", 2),)] == Fraction(1, 2)


def test_cubic_exponent_is_rejected_at_parse_time():
    with pytest.raises(ParseError) as err:
        parse_identity("identity bad { lhs: q^(n^3); rhs: 1; }")
    assert "degree" in err.value.message
    assert err.value.line == 1
    assert err.value.col == RR1_TEXT.find("^") or err.value.col > 0


def test_degree_overflow_from_products_is_rejected():
    with pytest.raises(ParseError):
        parse_identity("identity bad { lhs: q^(n^2*m); rhs: 1; }")


def test_reserved_words_cannot_name_things():
    with pytest.raises(ParseError):
        parse_identity("identity sum { lhs: 1; rhs: 1; }")
    with pytest.raises(ParseError):
        parse_identity("identity a { vars: poch; lhs: 1; rhs: 1; }")


def test_unknown_character_is_located():
    with pytest.raises(ParseError) as err:
        parse_identity("identity a {\n  lhs: q @ 1; rhs: 1; }")
    assert (err.value.line, err.value.col) == (2, 10)


def test_unilateral_bound_must_be_zero():
    with pytest.raises(ParseError):
        parse_identity("identity a { lhs: sum(n >= 1; q^n); rhs: 1; }")


def test_truncated_file_reports_last_line():
    with pytest.raises(ParseError) as err:
        parse_identity("identity a { lhs: 1; rhs: 1;")
    assert err.value.line == 1
    assert err.value.col <= len("identity a { lhs: 1; rhs: 1;")


def test_trailing_garbage_is_rejected():
    with pytest.raises(ParseError):
        parse_identity(RR1_TEXT + " identity")
    assert len(parse_file(RR1_TEXT + "\n" + RR1_TEXT)) == 2


def test_exponent_division_needs_a_constant():
    with pytest.raises(ParseError):
        parse_identity("identity a { lhs: q^(n/m); rhs: 1; }")


def test_every_token_deletion_is_caught_at_or_before_the_gap():
    """Dropping any one token leaves text the parser rejects, and the
    reported position never points past the hole (at worst the token
    immediately after it)."""
    toks = tokenize(RR1_TEXT)
    assert toks[-1].kind == "EOF"
    for k, tok in enumerate(toks[:-1]):
        mutated = (RR1_TEXT[:tok.offset] + " "
                   + RR1_TEXT[tok.offset + len(tok.text):])
        edge = toks[min(k + 2, len(toks) - 1)]
        bound = (edge.line, edge.col + len(edge.text))
        with pytest.raises(ParseError) as err:
            parse_identity(mutated)
        assert (err.value.line, err.value.col) <= bound, (
            f"deleting {tok.text!r} at col {tok.col} reported "
            f"col {err.value.col}")


# ------------------------------------------- the lexer against a char loop


def loop_tokenize(text: str) -> list[tuple]:
    """The character-by-character lexer that `tokenize` replaced, kept as
    its reference: tokens as (kind, text, line, col, offset) tuples."""
    out = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
        elif ch.isspace():
            col, i = col + 1, i + 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("INT", text[i:j], line, col, i))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("NAME", text[i:j], line, col, i))
            col += j - i
            i = j
        elif ch == ">" and i + 1 < n and text[i + 1] == "=":
            out.append(("PUNCT", ">=", line, col, i))
            col += 2
            i += 2
        elif ch in "{}();:,+-*/^=":
            out.append(("PUNCT", ch, line, col, i))
            col += 1
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(("EOF", "", line, col, n))
    return out


def lexed(lexer, text: str):
    """The tokens as tuples, or the (line, col) of the ParseError."""
    try:
        return [tuple(tok) for tok in lexer(text)]
    except ParseError as err:
        return (err.line, err.col)


def non_ascii_digit(ch: str) -> bool:
    return ch.isdigit() and not "0" <= ch <= "9"


STATEMENT_PIECES = st.sampled_from([
    "identity", "vars", "params", "lhs", "rhs", "sum", "poch", "inf", "binom",
    "in", "Z", "q", "x", "n_1", "_k", "é", "λ2", "0", "7", "42", "007",
    *"{}();:,+-*/^=", ">=", ">", " ", "  ", "\t", "\n", "\r", "\x0b",
    "\u00a0", "\u2028", "\u3000", "# note", "#", "@", "$", "!", "<", ".",
    "\u00bd", "\u2167", "\ufeff"])
STRAY = st.characters().filter(lambda ch: not non_ascii_digit(ch))


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.one_of(STATEMENT_PIECES, STRAY), max_size=40))
def test_tokenize_matches_the_character_loop(pieces):
    """Same tokens (kind, text, line, col, offset), or a ParseError at
    the same place.  Texts with a digit other than 0-9 are excluded: the
    loop read them into INT tokens that int() could not parse, or read
    Arabic-Indic digits as numbers; `tokenize` refuses them."""
    text = "".join(pieces)
    assert lexed(tokenize, text) == lexed(loop_tokenize, text)


def test_tokenize_matches_the_character_loop_on_the_catalog_texts():
    texts = CATALOG_TEXTS.read_text()
    assert lexed(tokenize, texts) == lexed(loop_tokenize, texts)
    assert lexed(tokenize, texts + "# end") == lexed(loop_tokenize,
                                                     texts + "# end")


def test_every_bmp_character_lexes_in_its_old_class():
    """For each code point of the Basic Multilingual Plane: whether it
    starts a name, continues one, and is a blank between two names
    agrees with the character loop's str.isalpha / isalnum / isspace."""
    def classes(lexer, ch):
        between = lexed(lexer, f"a{ch}b")
        return (lexed(lexer, ch) == [("NAME", ch, 1, 1, 0),
                                      ("EOF", "", 1, 2, 1)],
                lexed(lexer, "a" + ch)[0] == ("NAME", "a" + ch, 1, 1, 0),
                isinstance(between, list) and between[1] == ("NAME", "b", 1,
                                                             3, 2))

    differ = [hex(cp) for cp in range(0x10000)
              if classes(tokenize, chr(cp)) != classes(loop_tokenize, chr(cp))]
    assert differ == []


@pytest.mark.parametrize("text, col", [
    ("q^\u00b2", 3),                       # superscript two
    ("poch(q; q; \u0663)", 12),            # Arabic-Indic three
    ("q^(1\u0663)", 5),                    # an ASCII run stops at 0-9
    ("q^(n + \uff11)", 8),                 # fullwidth one
])
def test_a_digit_outside_0_to_9_is_a_located_parse_error(text, col):
    """The loop made an INT token of such digits: int() raised
    ValueError on '²', and read '٣' as 3."""
    with pytest.raises(ParseError) as err:
        parse_expression(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert "digits 0-9" in err.value.message


def test_names_may_still_hold_any_digit_after_their_first_letter():
    assert [t.text for t in tokenize("x\u00b2 n\u0663")[:2]] == [
        "x\u00b2", "n\u0663"]


# ------------------------------------------ exponents against a Fraction form


class FractionExpPoly:
    """The all-Fraction exponent polynomial that `ExpPoly` replaced, kept
    as its reference: every coefficient a Fraction, every result built
    and normalized through the constructor."""

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(sorted(key))] = clean.get(tuple(sorted(key)), 0) + c
        self.terms = {k: c for k, c in clean.items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return FractionExpPoly(terms)

    def __neg__(self):
        return FractionExpPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r):
        r = Fraction(r)
        return FractionExpPoly({k: r * c for k, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                merged = {}
                for n, e in (*k1, *k2):
                    merged[n] = merged.get(n, 0) + e
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, 0) + c1 * c2
        return FractionExpPoly(out)

    def __pow__(self, n):
        out = FractionExpPoly({(): 1})
        for _ in range(n):
            out = out * self
        return out

    def binom2(self):
        return (self * self - self).scale(Fraction(1, 2))

    def substitute(self, bindings):
        out = FractionExpPoly()
        for k, c in self.terms.items():
            piece = FractionExpPoly({(): c})
            for n, e in k:
                if n in bindings:
                    piece = piece.scale(Fraction(bindings[n]) ** e)
                else:
                    piece = piece * FractionExpPoly({((n, e),): 1})
            out = out + piece
        return out

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    text = ExpPoly.text


EXP_KEYS = st.sampled_from([(), (("n", 1),), (("m", 1),), (("n", 2),),
                            (("m", 1), ("n", 1)), (("k", 1),)])
EXP_COEFFS = st.one_of(st.integers(-6, 6),
                       st.builds(Fraction, st.integers(-6, 6),
                                 st.integers(1, 4)))
EXP_TERMS = st.dictionaries(EXP_KEYS, EXP_COEFFS, max_size=4)


def agree(poly: ExpPoly, ref: FractionExpPoly) -> None:
    assert poly.terms == ref.terms
    assert hash(poly) == hash(ref)
    assert poly.text() == ref.text()
    assert all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in poly.terms.values())


@settings(max_examples=400, deadline=None)
@given(EXP_TERMS, EXP_TERMS, st.integers(0, 3), EXP_COEFFS,
       st.dictionaries(st.sampled_from("nmk"), EXP_COEFFS, max_size=2))
def test_exponent_algebra_matches_the_fraction_form(a, b, power, r, bindings):
    """+, -, *, **, binom2, scale and substitute agree with the
    all-Fraction form in their terms, hash and text, and keep each
    integral coefficient an int."""
    pa, pb = ExpPoly(a), ExpPoly(b)
    ra, rb = FractionExpPoly(a), FractionExpPoly(b)
    agree(pa, ra)
    agree(pa + pb, ra + rb)
    agree(pa - pb, ra - rb)
    agree(pa * pb, ra * rb)
    agree(pa ** power, ra ** power)
    agree(pa.binom2(), ra.binom2())
    agree(pa.scale(r), ra.scale(r))
    agree(pa.substitute(bindings), ra.substitute(bindings))


def exponent_polys(node):
    """Every ExpPoly in an AST, depth first."""
    if isinstance(node, ExpPoly):
        yield node
    elif isinstance(node, (MonoPow, PochCall, SumCall, Group, Mul, Expr)):
        for value in vars(node).values():
            yield from exponent_polys(value)
    elif isinstance(node, tuple):
        for item in node:
            yield from exponent_polys(item)


def test_catalog_exponents_hold_integral_coefficients_as_ints():
    polys = [poly for key, params in default_instances()
             for side in (get_identity(key, **params).ast.lhs,
                          get_identity(key, **params).ast.rhs)
             for poly in exponent_polys(side)]
    assert len(polys) > 100
    assert any(type(c) is Fraction for p in polys for c in p.terms.values())
    assert all(type(c) is (int if c.denominator == 1 else Fraction)
               for p in polys for c in p.terms.values())


def numbers(obj, seen=None):
    """Every number reachable from `obj` through containers, instance
    attributes (cached ones included) and slots."""
    seen = set() if seen is None else seen
    if isinstance(obj, (int, float, Fraction)):
        yield obj
        return
    if obj is None or isinstance(obj, str) or id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = [*obj, *obj.values()]
    elif isinstance(obj, (tuple, list, set, frozenset)):
        items = obj
    else:
        items = [*getattr(obj, "__dict__", {}).values(),
                 *(getattr(obj, name) for name in getattr(obj, "__slots__", ()))]
    for item in items:
        yield from numbers(item, seen)


def test_exponent_division_stays_exact():
    poly = parse_expression("q^(n^2/2 + n/(2/3) + 4/2)").addends[0][1] \
        .factors[0][1].exp
    assert poly.terms == {(("n", 2),): Fraction(1, 2),
                          (("n", 1),): Fraction(3, 2), (): 2}
    assert type(poly.terms[()]) is int


def test_the_catalog_statement_path_holds_no_float():
    """From text to the certified support plans of every default
    instance, every number is an int or a Fraction: the LDL^T pivots of
    the certificate are exact, and no division in an exponent floats."""
    found = [x for key, params in default_instances()
             for ident in [get_identity(key, **params)]
             for x in numbers((ident.ast, ident.lowered))]
    assert any(type(x) is Fraction and x.denominator > 1 for x in found)
    assert not [x for x in found if type(x) not in (int, bool, Fraction)]


# ------------------------------------------------------- canonical rendering


def test_serialize_is_a_fixed_point():
    for text in (RR1_TEXT, MAIN_TEXT):
        once = serialize_identity(parse_identity(text))
        assert serialize_identity(parse_identity(once)) == once


def test_parse_inverts_serialize_on_trees():
    ast = parse_identity(MAIN_TEXT)
    assert parse_identity(serialize_identity(ast)) == ast


def test_canonical_form_orders_monomials_and_terms():
    text = ("identity a { lhs: poch(q*x; q; i); "
            "rhs: q^(j^2 + i^2 - i*j); }")
    out = serialize_identity(parse_identity(text))
    assert "poch(x*q; q; i)" in out
    assert "q^(i^2 - i*j + j^2)" in out


def test_params_section_round_trips():
    text = ("identity a {\n  params: m=2, s=-1;\n  lhs: q^m;\n"
            "  rhs: q^2;\n}\n")
    ast = parse_identity(text)
    assert ast.params == (("m", 2), ("s", -1))
    assert serialize_identity(ast) == text


# ------------------------------------------------------------------ lowering


def test_single_sum_lowers_to_the_expected_spec():
    lowered = validate_identity(parse_identity(RR1_TEXT))
    expected = make_sum_spec(
        1, "N",
        QuadForm(((Fraction(2),),), (Fraction(0),), Fraction(0)),
        None, {},
        (DenomFactor(Monomial.q(), 1, AffineForm.make([1])),))
    assert lowered.lhs == expected
    assert lowered.rescale == 1
    assert lowered.rhs == ProductSpec((
        FactorSpec(Monomial.q(), 5, INF, -1),
        FactorSpec(Monomial.q(4), 5, INF, -1)))


def test_lowered_sides_agree_numerically():
    lowered = validate_identity(parse_identity(RR1_TEXT))
    lhs = eval_sum(lowered.lhs, 16)
    rhs = expand_product_spec(lowered.rhs, 16)
    assert lhs.qcoeffs() == rhs.qcoeffs()
    assert lhs.qcoeffs(6) == [1, 1, 1, 1, 2, 2, 3]


def test_bilateral_double_sum_lowers_with_weights_and_denominators():
    lowered = validate_identity(parse_identity(MAIN_TEXT))
    spec = lowered.lhs
    assert spec.domains == ("Z", "Z")
    assert spec.varweights == (("x", (1, 0)), ("y", (0, 1)))
    assert spec.quad.A == ((Fraction(2), Fraction(-1)),
                           (Fraction(-1), Fraction(2)))
    assert [d.arg for d in spec.denoms] == [
        Monomial.var("x", qexp=1), Monomial.var("y", qexp=1)]
    assert lowered.rhs.prefactor == Monomial.unit()
    assert lowered.rhs.factors[1] == FactorSpec(
        Monomial(-1, 1, (("x", 1), ("y", 1))), 2, INF, 1)


def test_sign_factor_becomes_a_sign_form():
    text = ("identity a { lhs: sum(k >= 0; (-1)^k * q^(k^2)"
            " / poch(q; q; k)); rhs: 1; }")
    spec = validate_identity(parse_identity(text)).lhs
    assert spec.signform == AffineForm.make([1])


def test_indefinite_bilateral_form_is_refused():
    text = ("identity bad { lhs: sum(i in Z, j in Z; q^(i*j)"
            " / poch(q; q; i) / poch(q; q; j)); rhs: 1; }")
    with pytest.raises(LoweringError) as err:
        validate_identity(parse_identity(text))
    assert "indefinite" in str(err.value)


def test_numerator_pochhammer_inside_a_sum_is_refused():
    text = ("identity bad { lhs: sum(k >= 0; poch(a; q; k) * q^k);"
            " rhs: 1; }")
    with pytest.raises(LoweringError) as err:
        validate_identity(parse_identity(text))
    assert "numerator" in str(err.value)


NO_INVERSE = [
    ("sum(n >= 0; q^(n^2) / poch(q^(-3); q; n))",
     "1/poch(q^(-3); q; n) divides by 1 - 1*q^0 at subscript 4 and above, "
     "which the domain reaches: zero series has no inverse"),
    ("sum(n >= 0; x^n * q^(n^2) / poch(x*q^(-3); q; n))",
     "1/poch(x*q^(-3); q; n) divides by 1 - 1*q^0*x^1 at subscript 4 and "
     "above, which the domain reaches: lowest q-level (q^0) holds 2 "
     "monomials; need a single unit monomial"),
    ("sum(n in Z; q^(n^2) / poch(-q^(-2); q^2; -n))",
     "1/poch(-q^(-2); q^2; -n) divides by 1 - -1*q^0 at subscript 2 and "
     "above, which the domain reaches: leading coefficient 2 is not a unit"),
    # 1/(q; q)_n is zero where -n >= 4, and excuses nothing
    ("sum(n in Z; q^(n^2) / poch(q; q; n) / poch(-q^(-3); q; -n))",
     "1/poch(-q^(-3); q; -n) divides by 1 - -1*q^0 at subscript 4 and "
     "above, which the domain reaches: leading coefficient 2 is not a unit"),
    ("sum(i >= 0, j >= 0; q^(i^2 + j^2) / poch(-x*q^(-2); q; 4 - i + j))",
     "1/poch(-x*q^(-2); q; -i + j + 4) divides by 1 - -1*q^0*x^1 at "
     "subscript 3 and above, which the domain reaches: lowest q-level (q^0) "
     "holds 2 monomials; need a single unit monomial"),
]


@pytest.mark.parametrize("lhs,text", NO_INVERSE)
def test_a_sum_reaching_a_binomial_with_no_inverse_is_refused(lhs, text):
    """A denominator at a subscript past its binomial of q-weight 0 with
    no inverse, wherever the domain reaches it, whatever the order."""
    with pytest.raises(LoweringError) as err:
        validate_identity(parse_identity(
            f"identity bad {{ vars: x; lhs: {lhs}; rhs: 1; }}"))
    assert str(err.value) == text


def test_a_z_sum_reaching_a_numerator_with_no_inverse_is_refused():
    """(-q^2; q)_k at k <= -2 is 1/((1 + q^k) ... (1 + 1))."""
    text = ("identity bad { vars: z; lhs: sum(k in Z; poch(-q^2; q; k) * z^k"
            " / poch(q; q; k)); rhs: poch(z; q; inf); }")
    with pytest.raises(LoweringError) as err:
        validate_identity(parse_identity(text))
    assert str(err.value) == (
        "poch(-q^2; q; k) divides by 1 - -1*q^0 at subscript -2 and below, "
        "which the domain reaches: leading coefficient 2 is not a unit")


@pytest.mark.parametrize("lhs", [
    "sum(n >= 0; q^(n^2) / poch(q^(-3); q; 3 - n))",
    "sum(n >= 0; q^(n^2) / poch(-q^(-3); q; 3 - n))",
    "sum(n in Z; q^(n^2) / poch(-q^2; q; n))"])
def test_a_sum_short_of_its_binomial_with_no_inverse_lowers(lhs):
    """The binomial of q-weight 0 with no inverse is never divided by: a
    subscript of at most 3 takes in no binomial past the third, and the
    1 + 1 of (-q^2; q)_n, at n = -2, is a factor of the numerator that
    1/(-q^2; q)_n is for n < 0."""
    validate_identity(parse_identity(f"identity ok {{ lhs: {lhs}; rhs: 1; }}"))


def test_infinite_product_inside_a_sum_is_refused():
    text = ("identity bad { lhs: sum(k >= 0; q^k / poch(q; q; inf));"
            " rhs: 1; }")
    with pytest.raises(LoweringError):
        validate_identity(parse_identity(text))


def test_variable_exponent_with_constant_part_is_refused():
    text = ("identity bad { lhs: sum(i >= 0; x^(i + 1) * q^(i^2));"
            " rhs: 1; }")
    with pytest.raises(LoweringError):
        validate_identity(parse_identity(text))


def test_sum_with_a_prefactor_is_refused():
    text = ("identity bad { lhs: q * sum(n >= 0; q^(n^2)); rhs: 1; }")
    with pytest.raises(LoweringError):
        validate_identity(parse_identity(text))


def test_additive_side_is_refused():
    with pytest.raises(LoweringError):
        validate_identity(
            parse_identity("identity bad { lhs: 1 + q; rhs: 1; }"))


def test_half_integral_exponents_report_their_clearing_factor():
    text = ("identity a { lhs: sum(n >= 0; q^(1/2*n^2) / poch(q; q; n));"
            " rhs: 1; }")
    lowered = validate_identity(parse_identity(text))
    assert lowered.rescale == 2
    binomial = ("identity b { lhs: sum(n >= 0; q^(binom(n, 2))"
                " / poch(q; q; n)); rhs: 1; }")
    assert validate_identity(parse_identity(binomial)).rescale == 1
    # integral at n = 0 and 1, half-integral at n = 2
    halved = binomial.replace("q^(binom(n, 2))", "q^(1/2*binom(n, 2))")
    assert validate_identity(parse_identity(halved)).rescale == 2


def test_params_substitute_into_both_sides():
    text = ("identity a { params: m=2; lhs: sum(k >= 0; q^(m*k)"
            " / poch(q; q; k + m)); rhs: q^m * poch(q^2; q; m); }")
    lowered = validate_identity(parse_identity(text))
    assert lowered.lhs.quad.B == (Fraction(2),)
    assert lowered.lhs.denoms[0].count == AffineForm.make([1], 2)
    assert lowered.rhs.prefactor == Monomial.q(2)
    assert lowered.rhs.factors[0] == FactorSpec(Monomial.q(2), 1, 2, 1)


def test_pochhammer_powers_lower_to_repeated_factors():
    text = ("identity a { lhs: poch(-q; q^2; inf)^2 * poch(q^2; q^2; inf);"
            " rhs: 1; }")
    lowered = validate_identity(parse_identity(text))
    assert lowered.lhs.factors[0] == FactorSpec(
        Monomial(-1, 1, ()), 2, INF, 2)


# ------------------------------------------------------------------ layering


def test_every_statement_lowers_to_sum_and_product_specs():
    """Catalog instances and every statement under tests/data that
    lowers, statements in z included, lower to the kernel's own specs."""
    lowered = [get_identity(key, **params).lowered
               for key, params in default_instances()]
    for path in sorted((Path(__file__).parent / "data").glob("*.qid")):
        for tree in parse_file(path.read_text()):
            try:
                lowered.append(validate_identity(tree))
            except LoweringError:
                pass
    assert any("z" in ident.vars for ident in lowered)
    for ident in lowered:
        for side in (ident.lhs, ident.rhs):
            assert type(side) in (SumSpec, ProductSpec), ident.name


def test_speclang_imports_nothing_from_the_constant_term_engine():
    tree = pyast.parse(Path(speclang.__file__).read_text())
    named = []
    for node in pyast.walk(tree):
        if isinstance(node, pyast.ImportFrom):
            named.append(node.module or "")
        if isinstance(node, (pyast.Import, pyast.ImportFrom)):
            named += [alias.name for alias in node.names]
    assert named and not any("ctengine" in n for n in named)


def test_public_names_resolve_and_stay_sorted():
    names = qident.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(qident, name), name
