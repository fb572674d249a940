"""Statement files for identities: lexer, parser, canonical writer, lowering.

The format is deliberately small: one or more ``identity`` blocks, each
with optional ``vars``/``params`` sections and an ``lhs``/``rhs`` pair of
expressions built from integers, named monomials, ``poch(arg; base; n)``
symbols and ``sum(decls; body)`` nodes.  ``#`` starts a line comment and
whitespace never matters.  ``serialize_identity`` emits a canonical
rendering that parses back to an equal tree and is a byte-level fixed
point, which is what the round-trip tests pin down.

Parsing is purely syntactic; ``validate_identity`` lowers the tree onto
the evaluation types, `SumSpec` and `ProductSpec`, and is where
divisions, domains and truncatability get checked.  A statement that
declares ``z`` lowers onto the same types: z stays a formal variable,
with its weight in the sum's ``varweights`` and in the arguments of the
product's factors, and the checks here ensure that the constant-term
engine can read the two sides one z-power at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .qfactorial import INF, FactorSpec, ProductSpec, no_inverse_at
from .qring import Monomial
from .summation import (
    AffineForm,
    DenomFactor,
    QuadForm,
    SumSpec,
    UnboundedSupport,
    certify_support,
    make_sum_spec,
)


class ParseError(Exception):
    """Syntax violation, located at a line and column of the source text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class LoweringError(Exception):
    """Structurally valid text that does not describe an evaluable identity."""


RESERVED = frozenset(
    ["identity", "vars", "params", "lhs", "rhs", "sum", "poch", "inf",
     "binom", "in", "Z"])


# ----------------------------------------------------------------- exponents


def _frac_text(f: int | Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _exact(c):
    """The rational `c` as an int when it is integral, else a Fraction."""
    if type(c) is not int:
        c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


class ExpPoly:
    """Polynomial exponent with rational coefficients in named symbols.

    Keys are ``((name, power), ...)`` tuples sorted by name, each name
    once and no power 0 (the constructor merges a name that repeats and
    drops a power 0); the empty key is the constant term.  A coefficient
    is an int when it is integral and a Fraction otherwise, and no
    coefficient is zero, so that equality, the hash and the canonical
    text are stable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple, int | Fraction] = {}
        for key, c in (terms or {}).items():
            c = _exact(c)
            if c:
                key = tuple(key)
                if any(a >= b for (a, _), (b, _) in zip(key, key[1:])) or \
                        any(not e for _, e in key):
                    powers: dict[str, int] = {}
                    for name, e in key:
                        powers[name] = powers.get(name, 0) + e
                    key = tuple(sorted((n, e) for n, e in powers.items() if e))
                clean[key] = clean.get(key, 0) + c
        self.terms = {k: _exact(c) for k, c in clean.items() if c}

    @classmethod
    def _of(cls, terms: dict) -> "ExpPoly":
        """Wrap `terms`, whose keys are sorted and whose coefficients are
        already exact and nonzero."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def const(cls, c) -> "ExpPoly":
        c = _exact(c)
        return cls._of({(): c} if c else {})

    @classmethod
    def var(cls, name: str) -> "ExpPoly":
        return cls._of({((name, 1),): 1})

    @property
    def degree(self) -> int:
        return max((sum(e for _, e in k) for k in self.terms), default=0)

    @property
    def is_constant(self) -> bool:
        return all(not k for k in self.terms)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant:
            raise LoweringError(f"exponent {self.text()} is not constant")
        return self.terms.get((), 0)

    def names(self) -> set[str]:
        return {n for k in self.terms for n, _ in k}

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            c += terms.get(k, 0)
            if c:
                terms[k] = _exact(c)
            else:
                del terms[k]
        return ExpPoly._of(terms)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def scale(self, r) -> "ExpPoly":
        r = _exact(r)
        if not r:
            return ExpPoly()
        return ExpPoly._of({k: _exact(r * c) for k, c in self.terms.items()})

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        out: dict[tuple, int | Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if k1 and k2:
                    merged = dict(k1)
                    for n, e in k2:
                        merged[n] = merged.get(n, 0) + e
                    key = tuple(sorted(merged.items()))
                else:
                    key = k1 or k2
                out[key] = out.get(key, 0) + c1 * c2
        return ExpPoly._of({k: _exact(c) for k, c in out.items() if c})

    def __pow__(self, n: int) -> "ExpPoly":
        if self.is_constant:
            return ExpPoly.const(Fraction(self.constant_value()) ** n)
        out = _ONE_EXP
        for _ in range(n):
            out = out * self
        return out

    def binom2(self) -> "ExpPoly":
        """binom(self, 2) = (self^2 - self) / 2."""
        return (self * self - self).scale(Fraction(1, 2))

    def substitute(self, bindings) -> "ExpPoly":
        if not bindings:
            return self
        out: dict[tuple, int | Fraction] = {}
        for k, c in self.terms.items():
            rest = []
            for n, e in k:
                if n in bindings:
                    c = c * Fraction(bindings[n]) ** e
                else:
                    rest.append((n, e))
            key = tuple(rest)
            out[key] = out.get(key, 0) + c
        return ExpPoly._of({k: _exact(c) for k, c in out.items() if c})

    def _key(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, ExpPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self._key())

    def text(self) -> str:
        """Canonical rendering: graded terms, rationals as num/den."""
        if not self.terms:
            return "0"
        items = sorted(
            self.terms.items(),
            key=lambda kv: (-sum(e for _, e in kv[0]),
                            tuple((n, -e) for n, e in kv[0])))
        out = ""
        for key, c in items:
            mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in key)
            mag = _frac_text(abs(c))
            if not key:
                piece = mag
            elif abs(c) == 1:
                piece = mono
            else:
                piece = f"{mag}*{mono}"
            if not out:
                out = ("-" if c < 0 else "") + piece
            else:
                out += f" {'-' if c < 0 else '+'} {piece}"
        return out

    def __repr__(self):
        return f"ExpPoly({self.text()!r})"


_ONE_EXP = ExpPoly.const(1)


# ----------------------------------------------------------------------- AST


MonoKey = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class MonoPow:
    """A named base raised to a polynomial exponent, e.g. q^(n^2) or x^i."""

    name: str
    exp: ExpPoly


@dataclass(frozen=True)
class IntAtom:
    value: int


@dataclass(frozen=True)
class PochCall:
    """poch(coeff * arg; base; count); count None stands for `inf`."""

    arg: MonoKey
    base: MonoKey
    count: ExpPoly | None
    coeff: int = 1


@dataclass(frozen=True)
class SumCall:
    decls: tuple[tuple[str, str], ...]        # (index name, 'N' | 'Z')
    body: "Expr"


@dataclass(frozen=True)
class Group:
    inner: "Expr"
    exp: ExpPoly | None = None


@dataclass(frozen=True)
class Mul:
    factors: tuple[tuple[int, object], ...]   # (+1 for *, -1 for /)


@dataclass(frozen=True)
class Expr:
    addends: tuple[tuple[int, Mul], ...]      # (+1 for +, -1 for -)


@dataclass(frozen=True)
class IdentityAST:
    name: str
    vars: tuple[str, ...]
    params: tuple[tuple[str, int], ...]
    lhs: Expr
    rhs: Expr


# --------------------------------------------------------------------- lexer


class Token(NamedTuple):
    kind: str      # NAME | INT | PUNCT | EOF
    text: str
    line: int
    col: int
    offset: int


# One alternative per lexeme; `tokenize` dispatches on the group number.
# \s and \w match what str.isspace() and, with "_", str.isalnum() accept;
# a run of \w is a name only when it starts with a letter (isalpha()) or
# "_", and integers are ASCII, so any other digit starts no token.
_LEXICON = re.compile(r"""
    (\n)                            # 1: a line break
  | [^\S\n]+ | \#[^\n]*             # blanks and comments: no group
  | ([0-9]+)                        # 2: INT
  | (\w+)                           # 3: NAME
  | (>=|[{}();:,+\-*/^=])           # 4: PUNCT
  | (.)                             # 5: any other character
""", re.VERBOSE | re.DOTALL)
_KINDS = (None, None, "INT", "NAME", "PUNCT")


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    line, start = 1, 0          # the current line and its first offset
    new = tuple.__new__         # a Token without NamedTuple's Python __new__
    for m in _LEXICON.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        i = m.start()
        if group == 1:
            line, start = line + 1, i + 1
            continue
        if group == 5 or (group == 3 and not (text[i].isalpha()
                                              or text[i] == "_")):
            ch = text[i]
            why = ("; integers are written in the digits 0-9"
                   if ch.isdigit() else "")
            raise ParseError(f"unexpected character {ch!r}{why}",
                             line, i - start + 1)
        out.append(new(Token, (_KINDS[group], m[0], line, i - start + 1, i)))
    # a comment's characters take no columns, and only the last line's
    # comment can reach the end of the text
    end = text.find("#", start)
    out.append(Token("EOF", "", line, (len(text) if end < 0 else end)
                     - start + 1, len(text)))
    return out


# -------------------------------------------------------------------- parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.last = tokens[0]

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
            self.last = tok
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        if tok.kind == "EOF":
            # Report truncation at the last real token, not past the end.
            tok = self.last
        raise ParseError(message, tok.line, tok.col)

    def at_punct(self, *texts: str) -> bool:
        t = self.peek()
        return t.kind == "PUNCT" and t.text in texts

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            self.fail(f"expected {text!r}, found {self.peek().text!r}")
        return self.advance()

    def at_word(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "NAME" and t.text == word

    def expect_word(self, word: str) -> Token:
        if not self.at_word(word):
            self.fail(f"expected {word!r}, found {self.peek().text!r}")
        return self.advance()

    def expect_name(self, what: str) -> str:
        t = self.peek()
        if t.kind != "NAME":
            self.fail(f"expected {what}, found {t.text!r}")
        if t.text in RESERVED:
            self.fail(f"{t.text!r} is reserved and cannot name {what}")
        return self.advance().text

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "INT":
            self.fail(f"expected an integer, found {t.text!r}")
        return int(self.advance().text)

    # -- identities ---------------------------------------------------------

    def parse_file(self) -> list[IdentityAST]:
        out = [self.parse_identity_block()]
        while not self.peek().kind == "EOF":
            out.append(self.parse_identity_block())
        return out

    def parse_identity_block(self) -> IdentityAST:
        self.expect_word("identity")
        name = self.expect_name("an identity")
        self.expect_punct("{")
        vars_: tuple[str, ...] = ()
        params: tuple[tuple[str, int], ...] = ()
        if self.at_word("vars"):
            self.advance()
            self.expect_punct(":")
            names = [self.expect_name("a variable")]
            while self.at_punct(","):
                self.advance()
                names.append(self.expect_name("a variable"))
            self.expect_punct(";")
            vars_ = tuple(names)
        if self.at_word("params"):
            self.advance()
            self.expect_punct(":")
            bindings = [self._param_binding()]
            while self.at_punct(","):
                self.advance()
                bindings.append(self._param_binding())
            self.expect_punct(";")
            params = tuple(bindings)
        self.expect_word("lhs")
        self.expect_punct(":")
        lhs = self.parse_expr()
        self.expect_punct(";")
        self.expect_word("rhs")
        self.expect_punct(":")
        rhs = self.parse_expr()
        self.expect_punct(";")
        self.expect_punct("}")
        return IdentityAST(name, vars_, params, lhs, rhs)

    def _param_binding(self) -> tuple[str, int]:
        name = self.expect_name("a parameter")
        self.expect_punct("=")
        sign = 1
        if self.at_punct("-"):
            self.advance()
            sign = -1
        return (name, sign * self.expect_int())

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        sign = 1
        if self.at_punct("-"):
            self.advance()
            sign = -1
        addends = [(sign, self.parse_term())]
        while self.at_punct("+", "-"):
            op = 1 if self.advance().text == "+" else -1
            addends.append((op, self.parse_term()))
        return Expr(tuple(addends))

    def parse_term(self) -> Mul:
        factors = [(1, self.parse_factor())]
        while self.at_punct("*", "/"):
            op = 1 if self.advance().text == "*" else -1
            factors.append((op, self.parse_factor()))
        return Mul(tuple(factors))

    def parse_factor(self):
        atom = self.parse_atom()
        if not self.at_punct("^"):
            return atom
        self.advance()
        exp = self._caret_exponent()
        if isinstance(atom, MonoPow):
            return MonoPow(atom.name, exp)
        if isinstance(atom, IntAtom) and atom.value == 1:
            return atom
        if isinstance(atom, Group):
            return Group(atom.inner, exp)
        return Group(Expr(((1, Mul(((1, atom),))),)), exp)

    def _caret_exponent(self) -> ExpPoly:
        if self.at_punct("("):
            self.advance()
            poly = self.parse_iexpr()
            self.expect_punct(")")
            return poly
        t = self.peek()
        if t.kind == "INT":
            return ExpPoly.const(self.expect_int())
        if t.kind == "NAME" and t.text not in RESERVED:
            return ExpPoly.var(self.advance().text)
        self.fail(f"expected an exponent, found {t.text!r}")

    def parse_atom(self):
        t = self.peek()
        if t.kind == "INT":
            return IntAtom(self.expect_int())
        if self.at_word("poch"):
            return self.parse_poch()
        if self.at_word("sum"):
            return self.parse_sum()
        if t.kind == "NAME":
            if t.text in RESERVED:
                self.fail(f"{t.text!r} is reserved")
            return MonoPow(self.advance().text, _ONE_EXP)
        if self.at_punct("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_punct(")")
            return Group(inner)
        self.fail(f"expected a value, found {t.text!r}")

    def parse_poch(self) -> PochCall:
        self.expect_word("poch")
        self.expect_punct("(")
        coeff = 1
        if self.at_punct("-"):
            self.advance()
            coeff = -1
        arg = self.parse_monoexpr()
        self.expect_punct(";")
        base = self.parse_monoexpr()
        self.expect_punct(";")
        if self.at_word("inf"):
            self.advance()
            count = None
        else:
            count = self.parse_iexpr()
        self.expect_punct(")")
        return PochCall(arg, base, count, coeff)

    def parse_monoexpr(self) -> MonoKey:
        parts = [self._monofactor()]
        while self.at_punct("*"):
            self.advance()
            parts.append(self._monofactor())
        merged: dict[str, int] = {}
        for name, e in parts:
            merged[name] = merged.get(name, 0) + e
        return normalize_mono(merged)

    def _monofactor(self) -> tuple[str, int]:
        t = self.peek()
        if t.kind != "NAME" or (t.text in RESERVED):
            self.fail(f"expected a monomial name, found {t.text!r}")
        name = self.advance().text
        if not self.at_punct("^"):
            return (name, 1)
        self.advance()
        if self.at_punct("("):
            self.advance()
            sign = 1
            if self.at_punct("-"):
                self.advance()
                sign = -1
            e = sign * self.expect_int()
            self.expect_punct(")")
            return (name, e)
        return (name, self.expect_int())

    def parse_sum(self) -> SumCall:
        self.expect_word("sum")
        self.expect_punct("(")
        decls = [self._index_decl()]
        while self.at_punct(","):
            self.advance()
            decls.append(self._index_decl())
        self.expect_punct(";")
        body = self.parse_expr()
        self.expect_punct(")")
        return SumCall(tuple(decls), body)

    def _index_decl(self) -> tuple[str, str]:
        name = self.expect_name("an index")
        if self.at_punct(">="):
            self.advance()
            tok = self.peek()
            if tok.kind != "INT" or tok.text != "0":
                self.fail(f"expected 0 after '>=', found {tok.text!r}")
            self.advance()
            return (name, "N")
        if self.at_word("in"):
            self.advance()
            self.expect_word("Z")
            return (name, "Z")
        self.fail(f"expected '>= 0' or 'in Z', found {self.peek().text!r}")

    # -- exponent arithmetic -------------------------------------------------

    def _check_degree(self, degree: int, tok: Token) -> None:
        if degree > 2:
            raise ParseError(
                f"exponent degree {degree} exceeds 2", tok.line, tok.col)

    def parse_iexpr(self) -> ExpPoly:
        sign = 1
        if self.at_punct("-"):
            self.advance()
            sign = -1
        poly = self.parse_iterm()
        if sign < 0:
            poly = -poly
        while self.at_punct("+", "-"):
            op = self.advance().text
            rhs = self.parse_iterm()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def parse_iterm(self) -> ExpPoly:
        poly = self.parse_ifactor()
        while self.at_punct("*", "/"):
            tok = self.advance()
            rhs = self.parse_ifactor()
            if tok.text == "*":
                poly = poly * rhs
                self._check_degree(poly.degree, tok)
            else:
                if not rhs.is_constant or rhs.constant_value() == 0:
                    self.fail("division in exponents needs a nonzero constant",
                              tok)
                poly = poly.scale(Fraction(1, rhs.constant_value()))
        return poly

    def parse_ifactor(self) -> ExpPoly:
        poly = self.parse_iatom()
        if self.at_punct("^"):
            tok = self.advance()
            n = self.expect_int()
            # checked before the power is formed, which takes one `**`
            # for a constant and at most two products otherwise
            self._check_degree(poly.degree * n, tok)
            return poly ** n
        return poly

    def parse_iatom(self) -> ExpPoly:
        t = self.peek()
        if t.kind == "INT":
            return ExpPoly.const(self.expect_int())
        if self.at_word("binom"):
            tok = self.advance()
            self.expect_punct("(")
            inner = self.parse_iexpr()
            self.expect_punct(",")
            two = self.peek()
            if two.kind != "INT" or two.text != "2":
                self.fail(f"only binom(e, 2) is supported, found {two.text!r}")
            self.advance()
            self.expect_punct(")")
            poly = inner.binom2()
            self._check_degree(poly.degree, tok)
            return poly
        if t.kind == "NAME" and t.text not in RESERVED:
            return ExpPoly.var(self.advance().text)
        if self.at_punct("("):
            self.advance()
            poly = self.parse_iexpr()
            self.expect_punct(")")
            return poly
        self.fail(f"expected an exponent term, found {t.text!r}")


def normalize_mono(powers: dict[str, int]) -> MonoKey:
    """Sorted monomial key of `powers`, one per name, with q last and
    zero powers dropped."""
    return tuple(sorted(((n, e) for n, e in powers.items() if e),
                        key=lambda it: (it[0] == "q", it[0])))


def _parse_all(text: str, rule):
    """Apply the parser method `rule` to all of `text`.  Nesting deeper
    than the interpreter's stack is a ParseError at the token reached."""
    parser = _Parser(tokenize(text))
    try:
        out = rule(parser)
    except RecursionError:
        tok = parser.peek()
        raise ParseError("nesting too deep", tok.line, tok.col) from None
    trailing = parser.peek()
    if trailing.kind != "EOF":
        parser.fail(f"unexpected trailing {trailing.text!r}")
    return out


def parse_file(text: str) -> list[IdentityAST]:
    return _parse_all(text, _Parser.parse_file)


def parse_identity(text: str) -> IdentityAST:
    return _parse_all(text, _Parser.parse_identity_block)


def parse_expression(text: str) -> Expr:
    """One standalone side expression (a sum or a product), no block."""
    return _parse_all(text, _Parser.parse_expr)


# ---------------------------------------------------------------- serializer


def _mono_text(parts: MonoKey) -> str:
    pieces = []
    for name, e in parts:
        if e == 1:
            pieces.append(name)
        elif e >= 0:
            pieces.append(f"{name}^{e}")
        else:
            pieces.append(f"{name}^({e})")
    return "*".join(pieces) if pieces else "1"


def _exp_suffix(poly: ExpPoly) -> str:
    if poly == _ONE_EXP:
        return ""
    if poly.is_constant:
        c = poly.constant_value()
        if c.denominator == 1 and c >= 0:
            return f"^{c.numerator}"
    if len(poly.terms) == 1:
        ((key, c),) = poly.terms.items()
        if c == 1 and len(key) == 1 and key[0][1] == 1:
            return f"^{key[0][0]}"
    return f"^({poly.text()})"


def _factor_text(factor) -> str:
    if isinstance(factor, IntAtom):
        return str(factor.value)
    if isinstance(factor, MonoPow):
        return factor.name + _exp_suffix(factor.exp)
    if isinstance(factor, PochCall):
        sign = "-" if factor.coeff < 0 else ""
        count = "inf" if factor.count is None else factor.count.text()
        return (f"poch({sign}{_mono_text(factor.arg)}; "
                f"{_mono_text(factor.base)}; {count})")
    if isinstance(factor, SumCall):
        decls = ", ".join(f"{n} >= 0" if d == "N" else f"{n} in Z"
                          for n, d in factor.decls)
        return f"sum({decls}; {_expr_text(factor.body)})"
    if isinstance(factor, Group):
        out = f"({_expr_text(factor.inner)})"
        if factor.exp is not None:
            out += _exp_suffix(factor.exp) or "^1"
        return out
    raise TypeError(f"unknown factor {factor!r}")


def _mul_text(mul: Mul) -> str:
    out = ""
    for op, factor in mul.factors:
        if not out:
            if op < 0:
                out = "1 / " + _factor_text(factor)
            else:
                out = _factor_text(factor)
        else:
            out += f" {'*' if op > 0 else '/'} {_factor_text(factor)}"
    return out


def _expr_text(expr: Expr) -> str:
    out = ""
    for sign, mul in expr.addends:
        if not out:
            out = ("-" if sign < 0 else "") + _mul_text(mul)
        else:
            out += f" {'+' if sign > 0 else '-'} {_mul_text(mul)}"
    return out


def serialize_identity(ast: IdentityAST) -> str:
    lines = [f"identity {ast.name} {{"]
    if ast.vars:
        lines.append("  vars: " + ", ".join(ast.vars) + ";")
    if ast.params:
        lines.append("  params: "
                     + ", ".join(f"{n}={v}" for n, v in ast.params) + ";")
    lines.append(f"  lhs: {_expr_text(ast.lhs)};")
    lines.append(f"  rhs: {_expr_text(ast.rhs)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ lowering


@dataclass(frozen=True)
class LoweredIdentity:
    """An identity lowered to evaluation specs.

    A statement that declares ``z`` lowers to a one-index `SumSpec` left
    side whose summand carries z^n or z^(-n), and a `ProductSpec` right
    side whose factors carrying z are infinite; the two are compared one
    z-power at a time.

    ``rescale`` is 1 when both sides live in integer q-powers; otherwise
    it is the least d for which substituting q^(1/d) -> q clears every
    exponent (callers must then expand at d times the order).
    """

    name: str
    vars: tuple[str, ...]
    lhs: SumSpec | ProductSpec
    rhs: SumSpec | ProductSpec
    rescale: int = 1


def _unwrap_factors(mul: Mul):
    """Flatten harmless grouping so plain products lower uniformly."""
    out = []
    for op, factor in mul.factors:
        if isinstance(factor, Group) and factor.exp is None:
            inner = factor.inner
            if len(inner.addends) == 1 and inner.addends[0][0] == 1:
                for iop, ifac in _unwrap_factors(inner.addends[0][1]):
                    out.append((op * iop, ifac))
                continue
        out.append((op, factor))
    return out


def _single_term(expr: Expr, what: str) -> Mul:
    if len(expr.addends) != 1:
        raise LoweringError(f"{what} must be a single product, not a sum of "
                            f"{len(expr.addends)} terms")
    sign, mul = expr.addends[0]
    if sign < 0:
        raise LoweringError(f"{what} must not carry an overall sign")
    return mul


def _monomial_from_key(parts: MonoKey, coeff: int = 1) -> Monomial:
    qexp = 0
    vars_: list[tuple[str, int]] = []
    for name, e in parts:
        if name == "q":
            qexp += e
        else:
            vars_.append((name, e))
    return Monomial(coeff, qexp, tuple(sorted(vars_)))


def _base_qexp(base: MonoKey) -> int:
    if len(base) != 1 or base[0][0] != "q" or base[0][1] < 1:
        raise LoweringError(
            f"Pochhammer base must be a positive power of q, got "
            f"{_mono_text(base)}")
    return base[0][1]


def _as_affine(poly: ExpPoly, indices: list[str], what: str) -> AffineForm:
    coeffs = [0] * len(indices)
    affine = True
    for key, c in poly.terms.items():
        if len(key) == 1 and key[0][1] == 1 and key[0][0] in indices:
            coeffs[indices.index(key[0][0])] = c
        elif key:
            affine = False
    for c in coeffs:
        if c.denominator != 1:
            raise LoweringError(f"{what} has non-integer coefficient {c}")
    const = poly.terms.get((), 0)
    if const.denominator != 1:
        raise LoweringError(f"{what} has non-integer constant {const}")
    if not affine:
        raise LoweringError(f"{what} must be affine in the sum indices, got "
                            f"{poly.text()}")
    return AffineForm.make(coeffs, const)


def _as_quadform(poly: ExpPoly, indices: list[str]) -> QuadForm:
    free = poly.names() - set(indices)
    if free:
        raise LoweringError(
            f"q-exponent mentions {sorted(free)} which are not sum indices")
    dim = len(indices)
    A = [[0] * dim for _ in range(dim)]
    B = [0] * dim
    C = 0
    for key, c in poly.terms.items():
        degree = sum(e for _, e in key)
        if degree == 0:
            C += c
        elif degree == 1:
            B[indices.index(key[0][0])] += c
        elif degree == 2:
            i, j = indices.index(key[0][0]), indices.index(key[-1][0])
            if i == j:
                A[i][i] += 2 * c
            else:
                A[i][j] += c
                A[j][i] += c
        else:
            raise LoweringError(f"q-exponent degree exceeds 2: {poly.text()}")
    return QuadForm(tuple(tuple(map(Fraction, row)) for row in A),
                    tuple(map(Fraction, B)), Fraction(C))


def _try_sign_base(factor) -> bool:
    """Recognize (-1) as a Group, the only non-monomial base allowed."""
    if not isinstance(factor, Group) or factor.exp is None:
        return False
    inner = factor.inner
    if len(inner.addends) != 1 or inner.addends[0][0] != -1:
        return False
    mul = inner.addends[0][1]
    return (len(mul.factors) == 1 and mul.factors[0][0] == 1
            and mul.factors[0][1] == IntAtom(1))


def _lower_sum(node: SumCall, formal: set[str], params: dict,
               one_point: bool = False) -> SumSpec:
    """Lower a sum node; `one_point` admits what single-term evaluation
    can take but support enumeration cannot (numerator factorials, any
    quadratic part)."""
    indices = [n for n, _ in node.decls]
    domains = "".join(d for _, d in node.decls)
    if len(set(indices)) != len(indices):
        raise LoweringError(f"duplicate sum index in {indices}")
    for n in indices:
        if n == "q" or n in formal or n in params:
            raise LoweringError(f"index {n!r} collides with another symbol")
    quad = ExpPoly()
    signform: AffineForm | None = None
    weights: dict[str, list[int]] = {}
    denoms: list[DenomFactor] = []
    numers: list[DenomFactor] = []
    for op, factor in _unwrap_factors(_single_term(node.body, "a summand")):
        if isinstance(factor, IntAtom):
            if factor.value != 1:
                raise LoweringError(
                    f"constant factor {factor.value} has no home in a sum")
        elif isinstance(factor, MonoPow):
            poly = factor.exp.substitute(params)
            if op < 0:
                poly = -poly
            if factor.name == "q":
                quad = quad + poly
            elif factor.name in indices:
                raise LoweringError(
                    f"sum index {factor.name!r} cannot be a base")
            else:
                aff = _as_affine(poly, indices,
                                 f"exponent of {factor.name!r}")
                if aff.const != 0:
                    raise LoweringError(
                        f"exponent of {factor.name!r} has constant part "
                        f"{aff.const}; fold it out of the sum")
                w = weights.setdefault(factor.name, [0] * len(indices))
                for i, c in enumerate(aff.coeffs):
                    w[i] += int(c)
        elif isinstance(factor, PochCall):
            if op > 0 and not one_point:
                raise LoweringError(
                    "Pochhammer factors in a summand numerator are not "
                    "lowerable; only reciprocals are")
            if factor.count is None:
                raise LoweringError(
                    "infinite products do not belong inside a sum")
            count = _as_affine(factor.count.substitute(params), indices,
                               "Pochhammer subscript")
            f = DenomFactor(_monomial_from_key(factor.arg, factor.coeff),
                            _base_qexp(factor.base), count)
            _check_reach(factor, op, f, domains)
            (numers if op > 0 else denoms).append(f)
        elif _try_sign_base(factor):
            aff = _as_affine(factor.exp.substitute(params), indices,
                             "sign exponent")
            signform = aff if signform is None else signform + aff
        elif isinstance(factor, SumCall):
            raise LoweringError("nested sums are not supported")
        else:
            raise LoweringError(f"cannot lower factor {_factor_text(factor)}")
    quadform = _as_quadform(quad.substitute(params), indices)
    spec = make_sum_spec(
        len(indices), domains, quadform, signform,
        {n: tuple(w) for n, w in weights.items() if any(w)}, denoms, numers)
    if not one_point:
        try:
            certify_support(spec, indices)
        except UnboundedSupport as exc:
            raise LoweringError(str(exc)) from None
    return spec


def _check_reach(poch: PochCall, op: int, f: DenomFactor,
                 domains: str) -> None:
    """Refuse a summand's factor that, at a subscript the domain reaches,
    divides by a binomial 1 - A of q-weight 0 with no inverse
    (`qfactorial.no_inverse_at`), 1 - 1 included.  A denominator
    (a; q^b)_L divides by 1 - a q^(bk) for 0 <= k < L, a numerator for
    L <= k < 0, and the supremum of L, or of -L, over the domain's box
    decides whether the domain reaches the k of q-weight 0.  Such a term
    has no series at any order, whether or not the support below the
    order holds it, and a zero factor beside it excuses nothing."""
    a = f.arg
    if not (stuck := no_inverse_at(a, f.basepow)):
        return
    k, why = stuck
    form, first = (f.count, k + 1) if op < 0 else (-f.count, -k)
    if first < 1:
        return
    if form.const >= first or any(c > 0 or (c and d == "Z")
                                  for c, d in zip(form.coeffs, domains)):
        raise LoweringError(
            f"{'1/' if op < 0 else ''}{_factor_text(poch)} divides by "
            f"1 - {Monomial(a.coeff, 0, a.vars).text()} at subscript "
            f"{k + 1 if op < 0 else k} and {'above' if op < 0 else 'below'}, "
            f"which the domain reaches: {why}")


def _poch_factor(poch: PochCall, params: dict, expo: int) -> FactorSpec:
    """A Pochhammer symbol outside a sum, raised to the power `expo`."""
    count = INF
    if poch.count is not None:
        cp = poch.count.substitute(params)
        if not cp.is_constant or cp.constant_value().denominator != 1:
            raise LoweringError(
                "Pochhammer subscripts outside a sum must be constant "
                "integers")
        count = int(cp.constant_value())
    return FactorSpec(_monomial_from_key(poch.arg, poch.coeff),
                      _base_qexp(poch.base), count, expo)


def _lower_product(factors, params: dict) -> ProductSpec:
    prefactor = Monomial.unit()
    out: list[FactorSpec] = []
    for op, factor in factors:
        if isinstance(factor, IntAtom):
            if factor.value == 0:
                raise LoweringError("a zero factor makes the side degenerate")
            if factor.value != 1:
                if op < 0:
                    raise LoweringError(
                        f"cannot divide by {factor.value}: coefficients "
                        "stay in the integers")
                prefactor = prefactor * Monomial(factor.value, 0, ())
        elif isinstance(factor, MonoPow):
            c = factor.exp.substitute(params)
            if not c.is_constant or c.constant_value().denominator != 1:
                raise LoweringError(
                    f"exponent of {factor.name!r} must be a constant integer "
                    "outside a sum")
            e = op * int(c.constant_value())
            base = (Monomial.q(1) if factor.name == "q"
                    else Monomial.var(factor.name))
            prefactor = prefactor * base ** e
        elif isinstance(factor, PochCall):
            out.append(_poch_factor(factor, params, op))
        elif isinstance(factor, Group) and factor.exp is not None:
            inner = _unwrap_factors(_single_term(factor.inner, "a grouped factor"))
            ep = factor.exp.substitute(params)
            if (len(inner) != 1 or inner[0][0] != 1
                    or not isinstance(inner[0][1], PochCall)
                    or not ep.is_constant
                    or ep.constant_value().denominator != 1
                    or ep.constant_value() == 0):
                raise LoweringError(
                    "only Pochhammer symbols take constant nonzero powers")
            out.append(_poch_factor(inner[0][1], params,
                                    op * int(ep.constant_value())))
        else:
            raise LoweringError(
                f"cannot lower factor {_factor_text(factor)} in a product")
    return ProductSpec(tuple(out), prefactor)


def _lower_side(expr: Expr, formal: set[str], params: dict,
                one_point: bool = False):
    factors = _unwrap_factors(_single_term(expr, "each side"))
    sums = [f for _, f in factors if isinstance(f, SumCall)]
    if sums:
        if len(factors) != 1 or factors[0][0] != 1:
            raise LoweringError(
                "a sum must stand alone on its side; prefactors are not "
                "supported")
        return _lower_sum(sums[0], formal, params, one_point)
    return _lower_product(factors, params)


def _base_scale(side) -> int:
    return side.base_scale() if isinstance(side, SumSpec) else 1


def _lower_zsum(expr: Expr, formal: set[str], params: dict) -> SumSpec:
    spec = _lower_side(expr, formal, params, one_point=True)
    if not isinstance(spec, SumSpec):
        raise LoweringError("a statement in z needs a sum on its left side")
    zweight = dict(spec.varweights).get("z")
    if spec.dim != 1 or zweight not in ((1,), (-1,)):
        raise LoweringError("a sum in z needs one index n and the z-power "
                            "z^n or z^(-n)")
    if any("z" in dict(f.arg.vars) for f in spec.denoms + spec.numers):
        raise LoweringError("z may only appear as z^n in a summand")
    if spec.base_scale() > 1:
        raise LoweringError("a statement in z needs integral q-exponents")
    return spec


def _lower_zproduct(expr: Expr, formal: set[str],
                    params: dict) -> ProductSpec:
    spec = _lower_side(expr, formal, params)
    if not isinstance(spec, ProductSpec):
        raise LoweringError("a statement in z needs a product on its right "
                            "side")
    if "z" in dict(spec.prefactor.vars):
        raise LoweringError("z may only appear inside Pochhammer symbols on "
                            "the product side")
    if any(f.count is not INF for f in spec.factors
           if "z" in dict(f.arg.vars)):
        raise LoweringError("a Pochhammer symbol carrying z must be an "
                            "infinite product")
    return spec


def validate_identity(ast: IdentityAST) -> LoweredIdentity:
    """Lower both sides onto evaluation specs, checking evaluability."""
    params = dict(ast.params)
    formal = set(ast.vars)
    if "z" in formal:
        return LoweredIdentity(ast.name, ast.vars,
                               _lower_zsum(ast.lhs, formal, params),
                               _lower_zproduct(ast.rhs, formal, params))
    lhs = _lower_side(ast.lhs, formal, params)
    rhs = _lower_side(ast.rhs, formal, params)
    rescale = lcm(_base_scale(lhs), _base_scale(rhs))
    return LoweredIdentity(ast.name, ast.vars, lhs, rhs, rescale)


def lower_expression(expr: Expr) -> tuple:
    """Evaluable spec for one standalone expression plus its base scale.

    Free names act as formal variables.  Returns (spec, d); as with
    LoweredIdentity, d > 1 means q in the returned spec stands for q^(1/d).
    """
    spec = _lower_side(expr, set(), {})
    return spec, _base_scale(spec)
