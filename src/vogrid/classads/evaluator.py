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

How it runs: a tree is compiled, on its first evaluation, into nested
closures (one per node, each taking SELF, OTHER, the registry, the
environment and the attributes being resolved), and the closure is kept on
the tree, which is immutable. So a tree shared by many ads, such as a
scenario's default Rank or an expression the matchmaker parsed once for
many ads, is compiled once. The closures apply the rules above and nothing
else. A Literal is answered without compiling, and so is a reference to an
attribute bound to one. A tree too deep to compile is not kept, so it is
Error on every evaluation.
"""

from __future__ import annotations

import math
import operator

from . import values
from .exprs import AttrRef, Binary, Call, Expr, Literal, Scope, Unary
from .registry import FnRegistry
from .values import ERROR, FALSE, TRUE, UNDEFINED, Value, ValueKind

_NOTHING_ACTIVE: frozenset = frozenset()


def evaluate(e: Expr, self_ad, other_ad, reg: FnRegistry, env=None) -> Value:
    """Evaluate e with attribute references resolved against the given ads."""
    if type(e) is Literal:
        return e.value
    try:
        return _code(e)(self_ad, other_ad, reg, env, _NOTHING_ACTIVE)
    except RecursionError:
        return ERROR


# -- compilation ------------------------------------------------------------------
# A node compiles to code(self_ad, other_ad, reg, env, active) -> Value, where
# `active` holds the (ad, attribute) pairs being resolved, to detect cycles.

def _code(e: Expr):
    """The compiled code of e, compiled on its first use and kept on the tree."""
    try:
        return e._code  # type: ignore[union-attr]
    except AttributeError:
        code = _compile(e)
        object.__setattr__(e, "_code", code)  # a frozen node; not a field
        return code


def _compile(e: Expr):
    if type(e) is Literal:
        value = e.value
        return lambda self_ad, other_ad, reg, env, active: value
    if type(e) is AttrRef:
        return _compile_ref(e)
    if type(e) is Unary:
        op, operand = e.op, _compile(e.operand)
        return lambda self_ad, other_ad, reg, env, active: _unary(
            op, operand(self_ad, other_ad, reg, env, active))
    if type(e) is Binary:
        return _compile_binary(e)
    if type(e) is Call:
        return _compile_call(e)
    return lambda self_ad, other_ad, reg, env, active: ERROR


def _compile_ref(e: AttrRef):
    name = e.name.lower()
    swap = e.scope is Scope.OTHER

    def ref(self_ad, other_ad, reg, env, active):
        if swap:
            # Resolving through OTHER swaps the scopes for the referenced
            # expression, so its own OTHER points back at us.
            self_ad, other_ad = other_ad, self_ad
        if self_ad is None:
            return UNDEFINED
        bound = self_ad.lookup(name)
        if bound is None:
            return UNDEFINED
        if type(bound) is Literal:  # refers to nothing, so closes no cycle
            return bound.value
        key = (id(self_ad), name)
        if key in active:
            return UNDEFINED  # reference cycle: unresolvable
        return _code(bound)(self_ad, other_ad, reg, env, active | {key})
    return ref


def _compile_binary(e: Binary):
    op, left, right = e.op, _compile(e.left), _compile(e.right)
    if op in ("&&", "||"):
        def logic(self_ad, other_ad, reg, env, active):
            a = left(self_ad, other_ad, reg, env, active)
            decided = _decides(op, a)
            if decided is not None:
                return decided
            return _logic(op, a, right(self_ad, other_ad, reg, env, active))
        return logic
    apply = _arith if op in _ARITH else _compare

    def binary(self_ad, other_ad, reg, env, active):
        return apply(op, left(self_ad, other_ad, reg, env, active),
                     right(self_ad, other_ad, reg, env, active))
    return binary


def _compile_call(e: Call):
    fn_name, arg_codes = e.fn_name, tuple(_compile(a) for a in e.args)

    def call(self_ad, other_ad, reg, env, active):
        args = [a(self_ad, other_ad, reg, env, active) for a in arg_codes]
        entry = reg.lookup(fn_name)
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
    return call


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
