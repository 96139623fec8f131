"""Expression trees for advertisements and job descriptions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

from .values import Value, ValueKind, format_value


class Scope(Enum):
    SELF = "self"
    OTHER = "other"


@dataclass(frozen=True)
class Literal:
    value: Value


@dataclass(frozen=True)
class AttrRef:
    scope: Scope
    name: str  # display form; resolution is case-insensitive


@dataclass(frozen=True)
class Unary:
    op: str  # one of ! - +
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / < <= > >= == != && ||
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn_name: str
    args: tuple["Expr", ...]


Expr = Union[Literal, AttrRef, Unary, Binary, Call]

# Binding powers, loosest to tightest. Unary operators bind above all of these.
PRECEDENCE = {
    "||": 10,
    "&&": 20,
    "==": 30, "!=": 30, "<": 30, "<=": 30, ">": 30, ">=": 30,
    "+": 40, "-": 40,
    "*": 50, "/": 50,
}
_UNARY_BP = 60


def _fmt(e: Expr, parent_bp: int) -> str:
    if isinstance(e, Literal):
        return format_value(e.value)
    if isinstance(e, AttrRef):
        return e.name if e.scope is Scope.SELF else f"OTHER.{e.name}"
    if isinstance(e, Call):
        return f"{e.fn_name}({', '.join(_fmt(a, 0) for a in e.args)})"
    if isinstance(e, Unary):
        inner = _fmt(e.operand, _UNARY_BP)
        s = f"{e.op}{inner}"
        return f"({s})" if parent_bp > _UNARY_BP else s
    bp = PRECEDENCE[e.op]
    # Same-precedence right children are parenthesized so a-(b-c) survives.
    s = f"{_fmt(e.left, bp)} {e.op} {_fmt(e.right, bp + 1)}"
    return f"({s})" if parent_bp > bp else s


def format_expr(e: Expr) -> str:
    """Render an expression back to parseable source text."""
    return _fmt(e, 0)


def references(expr: Expr) -> Iterator[Union[AttrRef, Call]]:
    """The attribute references and function calls in a tree, found
    without recursion."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (AttrRef, Call)):
            yield e
        if isinstance(e, Unary):
            stack.append(e.operand)
        elif isinstance(e, Binary):
            stack += (e.left, e.right)
        elif isinstance(e, Call):
            stack.extend(e.args)


def expr_key(expr: Expr) -> tuple:
    """A hashable image of an expression tree, built without recursion.

    Trees with equal images evaluate alike. Unlike `==` on the trees, it
    tells a Real 0.0 from -0.0, whose sign a Rank would report.
    """
    out = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Literal):
            v = e.value
            out.append((v.kind, v.data, math.copysign(1.0, v.data)
                        if v.kind is ValueKind.REAL else None))
        elif isinstance(e, AttrRef):
            out.append((e.scope, e.name))
        elif isinstance(e, Unary):
            out.append(("unary", e.op))
            stack.append(e.operand)
        elif isinstance(e, Binary):
            out.append(("binary", e.op))
            stack += (e.right, e.left)
        else:
            out.append(("call", e.fn_name, len(e.args)))
            stack.extend(reversed(e.args))
    return tuple(out)
