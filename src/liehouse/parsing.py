"""Text form of expressions.

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' integer)?
    base   := number | identifier | function '(' expr ')' | '(' expr ')'

Identifiers are the coordinates x, y, z, the model parameter names
(alpha1..alpha3, beta11, beta12, beta13, beta22, beta22p, beta32,
beta33, gamma11..gamma23), and E with its partials written E_x, E_xy,
E_xxy and so on (all x's before all y's).  Functions are tanh, exp,
sin, cos.  Numbers are nonnegative integers or decimal literals, read
exactly, of at most sys.get_int_max_str_digits() digits (4300 by
default); a longer one is a ParseError at its position, exponents
included.  Rationals are spelled with '/' as in 3/2.  Exponents may be
negative integers, e.g. x^-2; a zero base under a negative exponent is
a division by zero.  Parentheses and function calls nest at most
MAX_NESTING levels deep.

parse is the inverse of symbolic.to_text on canonical forms.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .symbolic import (
    Expr, FUNCTION_NAMES, PARAMETER_NAMES, VARIABLE_NAMES, as_expr,
    epartial, param, var, _func_expr,
)


# Each level costs the recursive descent five stack frames, so the bound
# keeps parse (and the kernel's walks over the nested arguments it
# builds) far below the interpreter's recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or vocabulary failure, annotated with the text position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))")

_EPARTIAL_NAME = re.compile(r"E_(x*)(y*)\Z")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = n - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = m.lastgroup
        token = m.group(kind)
        if kind == "num":
            # refused before int() or Fraction meets the interpreter's
            # limit on the digits of an integer string
            digits = len(token) - ("." in token)
            limit = sys.get_int_max_str_digits()
            if limit and digits > limit:
                raise ParseError(f"number literal of {digits} digits "
                                 f"exceeds the limit of {limit} digits",
                                 m.start(kind))
        tokens.append((kind, token, m.start(kind)))
        pos = m.end()
    return tokens


def _ident_to_expr(name: str, pos: int) -> Expr:
    if name in VARIABLE_NAMES:
        return var(name)
    if name in PARAMETER_NAMES:
        return param(name)
    if name == "E":
        return epartial(0, 0)
    m = _EPARTIAL_NAME.fullmatch(name)
    if m and (m.group(1) or m.group(2)):
        return epartial(len(m.group(1)), len(m.group(2)))
    raise ParseError(f"unknown identifier {name!r}", pos)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.take()
        if kind != "op" or text != op:
            shown = "end of input" if kind is None else repr(text)
            raise ParseError(f"expected {op!r}, found {shown}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected token {text!r}", pos)
        return e

    def expr(self) -> Expr:
        sign = 1
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.take()
            sign = -1 if text == "-" else 1
        out = self.term() * sign
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                nxt = self.term()
                out = out - nxt if text == "-" else out + nxt
            else:
                return out

    def term(self) -> Expr:
        out = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                nxt = self.factor()
                if text == "*":
                    out = out * nxt
                else:
                    if not nxt.terms:
                        _, _, pos = self.peek()
                        raise ParseError("division by zero", pos)
                    out = out / nxt
            else:
                return out

    def factor(self) -> Expr:
        base = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            n = self.integer()
            if n < 0 and not base.terms:
                _, _, pos = self.peek()
                raise ParseError("division by zero", pos)
            return base ** n
        return base

    def integer(self) -> int:
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.take()
            sign = -1
        kind, text, pos = self.take()
        if kind != "num" or "." in text:
            shown = "end of input" if kind is None else repr(text)
            raise ParseError(f"expected an integer exponent, found {shown}",
                             pos)
        return sign * int(text)

    def nested(self, pos: int) -> Expr:
        """The expression inside an opened parenthesis, through its ')'."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        inner = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return inner

    def base(self) -> Expr:
        kind, text, pos = self.take()
        if kind == "num":
            return as_expr(Fraction(text))
        if kind == "ident":
            if text in FUNCTION_NAMES:
                nk, nt, _ = self.peek()
                if nk == "op" and nt == "(":
                    self.take()
                    return _func_expr(text, self.nested(pos))
                raise ParseError(f"function {text!r} needs an argument list",
                                 pos)
            return _ident_to_expr(text, pos)
        if kind == "op" and text == "(":
            return self.nested(pos)
        shown = "end of input" if kind is None else repr(text)
        raise ParseError(f"expected a value, found {shown}", pos)


def parse(text: str) -> Expr:
    """Parse the expression grammar into a canonical expression."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text).parse()
