# Expression parser for advertisement attributes.
# Binary operators bind by exprs.PRECEDENCE and associate to the left; the
# unary operators ! - + bind tighter than any of them.
# Atoms: decimal numerics in ASCII digits, "quoted text",
# true/false/undefined/error, bare attribute references, OTHER.attr
# references, name(arg, ...) calls, parenthesized expressions. Keywords and
# references are case-insensitive.
# Parentheses, call argument lists and unary operators nest at most
# MAX_NESTING deep, so a parse stays far inside the interpreter's recursion
# limit and fails with ParseError instead.
# parse_expr keeps the trees of at most PARSE_MEMO_ENTRIES distinct sources,
# each at most PARSE_MEMO_CHARS long, so every reader of a repeated source
# (ads over the wire, journal replay, scenarios, ad files) shares one tree,
# and with it the code compiled on it. Trees are immutable, so sharing is
# safe. A longer source is parsed every time; one that does not parse is
# not kept.

from __future__ import annotations

import functools
import math
import re

from . import values
from .exprs import PRECEDENCE, AttrRef, Binary, Call, Expr, Literal, Scope, Unary


class ParseError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<op>\|\||&&|==|!=|<=|>=|[-+*/<>()!,.])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

MAX_NESTING = 64

PARSE_MEMO_ENTRIES = 1024
PARSE_MEMO_CHARS = 256

_CONSTANTS = {"true": values.TRUE, "false": values.FALSE,
              "undefined": values.UNDEFINED, "error": values.ERROR}
# the character after a backslash -> the character it stands for
_UNESCAPES = {escape[1]: c for c, escape in values.TEXT_ESCAPES.items()}


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _unescape(body: str, text: str, pos: int) -> str:
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            i += 1
            esc = body[i]
            if esc not in _UNESCAPES:
                raise ParseError(f"bad escape \\{esc}", _byte_offset(text, pos))
            out.append(_UNESCAPES[esc])
        else:
            out.append(c)
        i += 1
    return "".join(out)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character {text[pos]!r}", _byte_offset(text, pos))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def pop(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.pop()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}",
                             _byte_offset(self.text, pos))

    def nest(self, pos: int) -> None:
        """Enter one nesting level opened at `pos`; the caller leaves it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels",
                             _byte_offset(self.text, pos))

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Expr:
        e = self.binary()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing {val!r}", _byte_offset(self.text, pos))
        return e

    def binary(self, min_bp: int = 0) -> Expr:
        """The longest run of operands joined by operators that bind at least
        `min_bp`, grouped by PRECEDENCE."""
        e = self.unary()
        while True:
            kind, op, _ = self.peek()
            bp = PRECEDENCE.get(op) if kind == "op" else None
            if bp is None or bp < min_bp:
                return e
            self.pop()
            e = Binary(op, e, self.binary(bp + 1))

    def unary(self) -> Expr:
        kind, val, pos = self.peek()
        if kind == "op" and val in ("!", "-", "+"):
            self.pop()
            self.nest(pos)
            e = Unary(val, self.unary())
            self.depth -= 1
            return e
        return self.atom()

    def atom(self) -> Expr:
        kind, val, pos = self.pop()
        if kind == "number":
            try:
                if not any(c in val for c in ".eE"):
                    return Literal(values.integer(int(val)))
                if float(val) < math.inf:  # a non-finite Real has no source form
                    return Literal(values.real(float(val)))
            except ValueError:  # past the interpreter's limit on digits
                pass
            raise ParseError("numeric literal out of range", _byte_offset(self.text, pos))
        if kind == "string":
            return Literal(values.text(_unescape(val[1:-1], self.text, pos)))
        if kind == "op" and val == "(":
            self.nest(pos)
            e = self.binary()
            self.expect_op(")")
            self.depth -= 1
            return e
        if kind == "ident":
            lowered = val.lower()
            if lowered in _CONSTANTS:
                return Literal(_CONSTANTS[lowered])
            if lowered == "other" and self.peek()[:2] == ("op", "."):
                self.pop()
                nkind, nval, npos = self.pop()
                if nkind != "ident":
                    raise ParseError("expected attribute name after OTHER.",
                                     _byte_offset(self.text, npos))
                return AttrRef(Scope.OTHER, nval)
            if self.peek()[:2] == ("op", "("):
                self.nest(self.pop()[2])
                args: list[Expr] = []
                if self.peek()[:2] != ("op", ")"):
                    args.append(self.binary())
                    while self.peek()[:2] == ("op", ","):
                        self.pop()
                        args.append(self.binary())
                self.expect_op(")")
                self.depth -= 1
                return Call(val, tuple(args))
            return AttrRef(Scope.SELF, val)
        raise ParseError(f"unexpected {val or 'end of input'!r}", _byte_offset(self.text, pos))


@functools.lru_cache(maxsize=PARSE_MEMO_ENTRIES)
def _parse_shared(text: str) -> Expr:
    return _Parser(text).parse()


def parse_expr(text: str) -> Expr:
    """Parse expression source text into an expression tree. A source of at
    most PARSE_MEMO_CHARS characters gets the tree of an earlier parse of an
    equal source while the memo keeps it."""
    if len(text) <= PARSE_MEMO_CHARS:
        return _parse_shared(text)
    return _Parser(text).parse()
