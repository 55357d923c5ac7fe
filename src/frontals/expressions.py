"""Univariate curve-component expression language.

Grammar (ASCII, whitespace insignificant)::

    expr     := term  (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ['^' exponent]
    atom     := NUMBER | 't' | FUNC '(' expr ')' | '(' expr ')'
    exponent := ['-'] INT | '(' ['-'] INT ['/' INT] ')'
    FUNC     := 'sin' | 'cos' | 'exp' | 'sqrt'

Precedence is pow > unary minus > mul/div > add/sub; mul, div, add and
sub associate to the left. Pow exponents are restricted to integer or
rational literals (rationals need parentheses: ``t^(1/2)``), which keeps
every expression evaluable over jets. The only variable is ``t``;
numeric parameters are substituted textually before parsing.

Division by zero and fractional powers of non-positive bases are runtime
evaluation errors, not parse errors: expressions like ``1/t`` are
legitimate away from 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import ConfigError, MathPreconditionError
from .jets import Jet, JetDomainError, constant, jet_div, jet_elem, jet_pow, variable

FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class ParseError(ConfigError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class EvalDomainError(MathPreconditionError):
    """Evaluation left the expression's domain; carries the subexpression."""

    def __init__(self, message: str, expr: "Expr"):
        self.expr = expr
        super().__init__(f"{message} in {to_source(expr)!r}")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Fraction


Expr = Union[Const, Var, Neg, Call, BinOp, Pow]


# ---------------------------------------------------------------------------
# Lexer


_NUMBER_START = set("0123456789")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | _NUMBER_START


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _NUMBER_START:
            j = i
            while j < n and source[j].isdigit():
                j += 1
            is_int = True
            if j < n and source[j] == ".":
                is_int = False
                j += 1
                if j >= n or not source[j].isdigit():
                    raise ParseError("malformed number", i, "digit after '.'")
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k >= n or not source[k].isdigit():
                    raise ParseError("malformed number", i, "exponent digits")
                is_int = False
                j = k
                while j < n and source[j].isdigit():
                    j += 1
            tokens.append(("num", source[i:j], i, is_int))
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < n and source[j] in _IDENT_CONT:
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], what)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], "end of input")
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self, in_parens: bool = False) -> Fraction:
        tok = self.peek()
        sign = 1
        if tok[0] == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok[0] == "(":
            self.advance()
            inner = self.exponent(in_parens=True)
            self.expect(")", "')'")
            return sign * inner
        if tok[0] == "num" and tok[3]:
            self.advance()
            numerator = int(tok[1])
            if in_parens and self.peek()[0] == "/":
                # a '/' inside the exponent's own parentheses forms a
                # rational literal; at top level pow binds only the integer
                self.advance()
                den = self.advance()
                if den[0] != "num" or not den[3]:
                    raise ParseError(f"unexpected token {den[1]!r}", den[2],
                                     "integer denominator")
                if int(den[1]) == 0:
                    raise ParseError("zero denominator in exponent", den[2])
                return Fraction(sign * numerator, int(den[1]))
            return Fraction(sign * numerator)
        raise ParseError(
            f"unexpected token {tok[1]!r}", tok[2],
            "integer or rational exponent literal",
        )

    def atom(self) -> Expr:
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return Const(float(tok[1]))
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            if name == "t":
                return Var()
            if name in FUNCTIONS:
                self.expect("(", "'(' after function name")
                arg = self.expr()
                self.expect(")", "')'")
                return Call(name, arg)
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        if tok[0] == "(":
            self.advance()
            e = self.expr()
            self.expect(")", "')'")
            return e
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], "an atom")


def parse(source: str) -> Expr:
    """Parse a component expression into an AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Printer

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(child: Expr, parent_prec: int, strict: bool) -> str:
    s = to_source(child)
    cp = _prec(child)
    if cp < parent_prec or (strict and cp == parent_prec):
        return f"({s})"
    return s


def to_source(e: Expr) -> str:
    """Print an AST back to source; ``parse(to_source(e))`` equals ``e``."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG, strict=False)
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, BinOp):
        prec = _prec(e)
        left = _wrap(e.left, prec, strict=False)
        right = _wrap(e.right, prec, strict=True)
        return f"{left} {e.op} {right}"
    if isinstance(e, Pow):
        base = _wrap(e.base, _PREC_POW, strict=True)
        exp = e.exponent
        if exp.denominator == 1:
            return f"{base}^{exp.numerator}"
        return f"{base}^({exp.numerator}/{exp.denominator})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation


def eval_jet(e: Expr, t0, order: int) -> Jet:
    """Evaluate as a jet of the given order about t0.

    The result equals the Taylor expansion of the expression's function
    at t0; order 0 gives its value, ``eval_jet(e, t, 0).value``.
    An array t0 gives a grid :class:`~frontals.jets.Jet` over all its
    points from one pass over the tree; a domain error at any point
    raises, with the same message as at that point alone. Overflow gives
    inf coefficients, without a warning.
    """
    with np.errstate(all="ignore"):
        return _eval_jet(e, np.asarray(t0, dtype=float), order)


def _eval_jet(e: Expr, t0: np.ndarray, order: int) -> Jet:
    if isinstance(e, Const):
        return constant(e.value, t0, order)
    if isinstance(e, Var):
        return variable(t0, order)
    if isinstance(e, Neg):
        return -_eval_jet(e.arg, t0, order)
    if isinstance(e, Call):
        a = _eval_jet(e.arg, t0, order)
        try:
            return jet_elem(e.fn, a)
        except JetDomainError as exc:
            raise EvalDomainError(str(exc), e) from exc
    if isinstance(e, BinOp):
        a = _eval_jet(e.left, t0, order)
        b = _eval_jet(e.right, t0, order)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        try:
            return jet_div(a, b)
        except JetDomainError as exc:
            raise EvalDomainError(str(exc), e) from exc
    if isinstance(e, Pow):
        a = _eval_jet(e.base, t0, order)
        try:
            return jet_pow(a, e.exponent)
        except JetDomainError as exc:
            raise EvalDomainError(str(exc), e) from exc
    raise TypeError(f"not an expression node: {e!r}")
