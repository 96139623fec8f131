"""Runtime values of the advertisement expression language.

A Value is exactly one of: Integer, Real, Text, Boolean, Undefined, Error.
Undefined and Error are in-band results, not exceptions: evaluation never
raises, it returns one of these instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ValueKind(Enum):
    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    BOOLEAN = "boolean"
    UNDEFINED = "undefined"
    ERROR = "error"


_NUMBERS = (ValueKind.INTEGER, ValueKind.REAL)


@dataclass(frozen=True)
class Value:
    kind: ValueKind
    data: object = None

    def is_numeric(self) -> bool:
        return self.kind in _NUMBERS

    def is_true(self) -> bool:
        return self.kind is ValueKind.BOOLEAN and self.data is True

    def as_real(self) -> float | None:
        """This number as a finite float, or None when it is not a number a
        Real can hold: not a number at all, an Integer past a Real's range,
        or a Real that is not finite.

        The one rule for numbers: the evaluator holds every number that an
        operator or a function call yields to it, and reads every operand it
        promotes to Real through it.
        """
        if self.kind not in _NUMBERS:
            return None
        try:
            x = float(self.data)  # type: ignore[arg-type]
        except OverflowError:
            return None
        return x if math.isfinite(x) else None

    def __repr__(self) -> str:
        if self.kind in (ValueKind.UNDEFINED, ValueKind.ERROR):
            return f"<{self.kind.value}>"
        return f"<{self.kind.value} {self.data!r}>"


UNDEFINED = Value(ValueKind.UNDEFINED)
ERROR = Value(ValueKind.ERROR)
TRUE = Value(ValueKind.BOOLEAN, True)
FALSE = Value(ValueKind.BOOLEAN, False)


def integer(n: int) -> Value:
    return Value(ValueKind.INTEGER, int(n))


def real(x: float) -> Value:
    return Value(ValueKind.REAL, float(x))


def text(s: str) -> Value:
    return Value(ValueKind.TEXT, s)


def boolean(b: bool) -> Value:
    return TRUE if b else FALSE


# each character that text escapes, and its escape; the parser reads it backwards
TEXT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def format_value(v: Value) -> str:
    """Source form of a literal value, parseable back by the expression parser."""
    if v.kind is ValueKind.INTEGER:
        return str(v.data)
    if v.kind is ValueKind.REAL:
        x = v.as_real()
        if x is None:
            return "error"  # non-finite reals have no source form
        return repr(x)
    if v.kind is ValueKind.TEXT:
        body = "".join(TEXT_ESCAPES.get(c, c) for c in v.data)  # type: ignore[union-attr]
        return f'"{body}"'
    if v.kind is ValueKind.BOOLEAN:
        return "true" if v.data else "false"
    if v.kind is ValueKind.UNDEFINED:
        return "undefined"
    return "error"
