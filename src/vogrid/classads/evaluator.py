"""Three-valued evaluation of advertisement expressions.

Every evaluation yields exactly one Value; failures come back in-band as
Undefined or Error, never as exceptions. The rules:

- unresolved attribute reference -> Undefined; OTHER.x with no other ad
  -> Undefined; reference cycles across attributes -> Undefined
- arithmetic with a non-numeric operand -> Error; division by zero -> Error;
  Integer/Real promote to Real when mixed; / on two Integers truncates
  toward zero; an Integer too large to promote -> Error, in arithmetic and
  in comparisons alike; a Real result of arithmetic, unary minus or a
  function call that is not finite (an overflow to infinity, or NaN) -> Error
- comparisons with an Undefined operand -> Undefined, with an Error operand
  -> Error; mixed-type comparisons (other than numeric promotion) -> Error
- && and ||: a determined operand decides (false && x == false,
  true || x == true, for any x); otherwise Error absorbs, then Undefined;
  a non-boolean operand behaves as Error
- calls evaluate arguments strictly, then invoke the registered handler;
  unknown function, arity mismatch, or a raising handler -> Error
- a tree too deep for the interpreter's stack (a long chain of binary
  operators parses into one) -> Error
"""

from __future__ import annotations

import math
import operator

from . import values
from .exprs import AttrRef, Binary, Call, Expr, Literal, Scope, Unary
from .registry import FnRegistry
from .values import ERROR, FALSE, TRUE, UNDEFINED, Value, ValueKind


def evaluate(e: Expr, self_ad, other_ad, reg: FnRegistry, env=None) -> Value:
    """Evaluate e with attribute references resolved against the given ads."""
    try:
        return _eval(e, self_ad, other_ad, reg, env, frozenset())
    except RecursionError:
        return ERROR


def _eval(e: Expr, self_ad, other_ad, reg: FnRegistry, env, active: frozenset) -> Value:
    if isinstance(e, Literal):
        return e.value

    if isinstance(e, AttrRef):
        if e.scope is Scope.SELF:
            ad, new_self, new_other = self_ad, self_ad, other_ad
        else:
            # Resolving through OTHER swaps the scopes for the referenced
            # expression, so its own OTHER points back at us.
            ad, new_self, new_other = other_ad, other_ad, self_ad
        if ad is None:
            return UNDEFINED
        bound = ad.lookup(e.name)
        if bound is None:
            return UNDEFINED
        key = (id(ad), e.name.lower())
        if key in active:
            return UNDEFINED  # reference cycle: unresolvable
        return _eval(bound, new_self, new_other, reg, env, active | {key})

    if isinstance(e, Unary):
        return _unary(e.op, _eval(e.operand, self_ad, other_ad, reg, env, active))

    if isinstance(e, Binary):
        if e.op in ("&&", "||"):
            left = _eval(e.left, self_ad, other_ad, reg, env, active)
            decided = _decides(e.op, left)
            if decided is not None:
                return decided
            right = _eval(e.right, self_ad, other_ad, reg, env, active)
            return _logic(e.op, left, right)
        left = _eval(e.left, self_ad, other_ad, reg, env, active)
        right = _eval(e.right, self_ad, other_ad, reg, env, active)
        if e.op in ("+", "-", "*", "/"):
            return _arith(e.op, left, right)
        return _compare(e.op, left, right)

    if isinstance(e, Call):
        args = [_eval(a, self_ad, other_ad, reg, env, active) for a in e.args]
        entry = reg.lookup(e.fn_name)
        if entry is None:
            return ERROR
        arity, handler = entry
        if len(args) != arity:
            return ERROR
        try:
            result = handler(args, self_ad, other_ad, env)
        except Exception:
            return ERROR
        if not isinstance(result, Value):
            return ERROR
        if result.kind is ValueKind.REAL and not math.isfinite(result.data):
            return ERROR
        return result

    return ERROR


# -- logic --------------------------------------------------------------------

def _logic_class(v: Value) -> str:
    # Non-boolean operands of a logical operator behave as Error.
    if v.kind is ValueKind.BOOLEAN:
        return "T" if v.data else "F"
    if v.kind is ValueKind.UNDEFINED:
        return "U"
    return "E"


def _decides(op: str, v: Value) -> Value | None:
    c = _logic_class(v)
    if op == "&&" and c == "F":
        return FALSE
    if op == "||" and c == "T":
        return TRUE
    return None


def _logic(op: str, a: Value, b: Value) -> Value:
    ca, cb = _logic_class(a), _logic_class(b)
    if op == "&&":
        if "F" in (ca, cb):
            return FALSE
        if "E" in (ca, cb):
            return ERROR
        if "U" in (ca, cb):
            return UNDEFINED
        return TRUE
    if "T" in (ca, cb):
        return TRUE
    if "E" in (ca, cb):
        return ERROR
    if "U" in (ca, cb):
        return UNDEFINED
    return FALSE


# -- arithmetic ----------------------------------------------------------------

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _arith(op: str, a: Value, b: Value) -> Value:
    if not (a.is_numeric() and b.is_numeric()):
        return ERROR
    both_int = a.kind is ValueKind.INTEGER and b.kind is ValueKind.INTEGER
    if both_int:
        x, y = a.data, b.data
        if op != "/":
            return values.integer(_ARITH[op](x, y))
        if y == 0:
            return ERROR
        q = abs(x) // abs(y)  # truncation toward zero
        return values.integer(q if (x < 0) == (y < 0) else -q)
    try:
        x, y = a.as_real(), b.as_real()
    except OverflowError:  # an Integer too large for a Real
        return ERROR
    if op == "/" and y == 0.0:
        return ERROR
    r = _ARITH[op](x, y)
    return values.real(r) if math.isfinite(r) else ERROR


# -- comparison ----------------------------------------------------------------

_ORDERED = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}


def _compare(op: str, a: Value, b: Value) -> Value:
    if ValueKind.ERROR in (a.kind, b.kind):
        return ERROR
    if ValueKind.UNDEFINED in (a.kind, b.kind):
        return UNDEFINED
    if a.is_numeric() and b.is_numeric():
        try:
            x, y = a.as_real(), b.as_real()
        except OverflowError:  # an Integer too large for a Real
            return ERROR
        if op == "==":
            return values.boolean(x == y)
        if op == "!=":
            return values.boolean(x != y)
        return values.boolean(_ORDERED[op](x, y))
    if a.kind is not b.kind:
        return ERROR
    if a.kind is ValueKind.TEXT:
        if op == "==":
            return values.boolean(a.data == b.data)
        if op == "!=":
            return values.boolean(a.data != b.data)
        return values.boolean(_ORDERED[op](a.data, b.data))
    if a.kind is ValueKind.BOOLEAN:
        if op == "==":
            return values.boolean(a.data == b.data)
        if op == "!=":
            return values.boolean(a.data != b.data)
        return ERROR  # booleans are unordered
    return ERROR


# -- unary ---------------------------------------------------------------------

def _unary(op: str, v: Value) -> Value:
    if op == "!":
        c = _logic_class(v)
        if c == "T":
            return FALSE
        if c == "F":
            return TRUE
        if c == "U":
            return UNDEFINED
        return ERROR
    if not v.is_numeric():
        return ERROR
    if op == "+":
        return v
    if v.kind is ValueKind.INTEGER:
        return values.integer(-v.data)
    x = -v.as_real()
    return values.real(x) if math.isfinite(x) else ERROR
