"""Runtime values of the advertisement expression language.

A Value is exactly one of: Integer, Real, Text, Boolean, Undefined, Error.
Undefined and Error are in-band results, not exceptions: evaluation never
raises, it returns one of these instead.
"""

from __future__ import annotations

import math
from enum import Enum


class ValueKind(Enum):
    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    BOOLEAN = "boolean"
    UNDEFINED = "undefined"
    ERROR = "error"


# read once here: reading an enum member looks it up on its class each time
_INTEGER, _REAL, _TEXT = ValueKind.INTEGER, ValueKind.REAL, ValueKind.TEXT
_NUMBERS = (_INTEGER, _REAL)


class Value:
    """One value: its kind and its data (None for Undefined and Error).

    Immutable: assigning to a Value's fields, or deleting them, raises
    AttributeError. Two Values are equal when they are of one class and
    their (kind, data) pairs are equal, and a Value hashes as that pair, as
    a frozen dataclass of the two fields would. A Value is built by setting
    its two slots through their descriptors, at about half the cost of a
    frozen dataclass's two `object.__setattr__` calls: the evaluator builds
    one for every number it yields."""

    __slots__ = ("kind", "data")

    def __init__(self, kind: ValueKind, data: object = None) -> None:
        _set_kind(self, kind)
        _set_data(self, data)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"a Value is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.data) == (other.kind, other.data)

    def __hash__(self) -> int:
        return hash((self.kind, self.data))

    def __reduce__(self):  # copy and pickle build it anew, not by assigning
        return self.__class__, (self.kind, self.data)

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


_set_kind, _set_data = Value.kind.__set__, Value.data.__set__

UNDEFINED = Value(ValueKind.UNDEFINED)
ERROR = Value(ValueKind.ERROR)
TRUE = Value(ValueKind.BOOLEAN, True)
FALSE = Value(ValueKind.BOOLEAN, False)


def integer(n: int) -> Value:
    return Value(_INTEGER, int(n))


def real(x: float) -> Value:
    return Value(_REAL, float(x))


def text(s: str) -> Value:
    return Value(_TEXT, s)


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
