"""Three-valued evaluation of advertisement expressions.

Every evaluation yields exactly one Value; failures come back in-band as
Undefined or Error, never as exceptions. The rules:

- unresolved attribute reference -> Undefined; OTHER.x with no other ad
  -> Undefined; reference cycles across attributes -> Undefined
- one evaluation resolves at most MAX_REFERENCES references to bindings
  that are not literals; each reference past that -> Error. So an ad whose
  every attribute refers twice to the one before cannot make an evaluation
  cost two to the power of its length; a cycle is still Undefined.
- numbers: every number that an operator or a function call yields must be
  one a Real can hold, else Error: an Integer past a Real's range, or a
  Real that is not finite (an overflow to infinity, or NaN). So is every
  operand that a comparison or mixed arithmetic promotes to Real. Integer
  literals, and the Integer operands of Integer arithmetic, are exact at
  any size.
- arithmetic with a non-numeric operand -> Error; division by zero -> Error;
  Integer/Real promote to Real when mixed; / on two Integers truncates
  toward zero
- comparisons with an Error operand -> Error, else with an Undefined
  operand -> Undefined; numbers compare as Reals; text compares by code
  point; booleans have == and != but no order; any other pair -> Error
- && and ||: a determined operand decides (false && x == false,
  true || x == true, for any x); otherwise Error absorbs, then Undefined;
  a non-boolean operand behaves as Error
- calls evaluate arguments strictly, then invoke the registered handler;
  unknown function, arity mismatch, or a raising handler -> Error
- a tree too deep for the interpreter's stack (a long chain of binary
  operators parses into one) -> Error

Where each rule is stated: the rule for numbers is `Value.as_real` in
`values`; &&, || and ! read `_LOGIC`; the six comparisons read
`_COMPARISONS`; the four arithmetic operators read `_ARITH`; the escapes of
text are `values.TEXT_ESCAPES`, which the parser also reads.

How it runs: a tree is compiled, on its first evaluation, into nested
closures (one per node, each taking SELF, OTHER, the registry, the
environment and the evaluation's `_Resolving` state), and the closure is
kept on the tree, which is immutable. So a tree shared by many ads is
compiled once; `parse_expr` gives equal short sources one tree, such as a
scenario's default Rank or an ad that a site advertises again. The closures
apply the rules above and nothing else. A Literal is answered without
compiling, and so is a reference to an attribute bound to one. A tree too
deep to compile is not kept, so it is Error on every evaluation.
"""

from __future__ import annotations

import operator
from math import isfinite

from .exprs import AttrRef, Binary, Call, Expr, Literal, Scope, Unary
from .registry import FnRegistry
from .values import ERROR, FALSE, TRUE, UNDEFINED, Value, ValueKind, boolean

MAX_REFERENCES = 1000

# the kinds the operators test, read once here: reading an enum member costs
# an attribute lookup on its class at every node
_INTEGER, _REAL, _BOOLEAN = ValueKind.INTEGER, ValueKind.REAL, ValueKind.BOOLEAN
_UNDEFINED, _ERROR = ValueKind.UNDEFINED, ValueKind.ERROR


def evaluate(e: Expr, self_ad, other_ad, reg: FnRegistry, env=None) -> Value:
    """Evaluate e with attribute references resolved against the given ads."""
    if type(e) is Literal:
        return e.value
    active = _Resolving()
    active.left = MAX_REFERENCES
    try:
        return _code(e)(self_ad, other_ad, reg, env, active)
    except RecursionError:
        return ERROR


class _Resolving(set):
    """The (ad, attribute) pairs one evaluation is resolving, to detect
    cycles, and how many more references it may resolve (`left`)."""

    __slots__ = ("left",)


# -- compilation ------------------------------------------------------------------
# A node compiles to code(self_ad, other_ad, reg, env, active) -> Value, where
# `active` is the evaluation's _Resolving state.

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
        bound = self_ad._by_folded.get(name)  # `ClassAd.lookup`, name folded
        if bound is None:
            return UNDEFINED
        if type(bound) is Literal:  # refers to nothing, so closes no cycle
            return bound.value
        key = (id(self_ad), name)
        if key in active:
            return UNDEFINED  # reference cycle: unresolvable
        if not active.left:
            return ERROR  # past MAX_REFERENCES
        active.left -= 1
        active.add(key)
        value = _code(bound)(self_ad, other_ad, reg, env, active)
        active.discard(key)
        return value
    return ref


def _compile_binary(e: Binary):
    op, left, right = e.op, _compile(e.left), _compile(e.right)
    if op in _LOGIC:
        decisive, neutral = _LOGIC[op]

        def logic(self_ad, other_ad, reg, env, active):
            a = _truth(left(self_ad, other_ad, reg, env, active))
            if a is decisive:
                return a
            b = _truth(right(self_ad, other_ad, reg, env, active))
            # neither decides: Error absorbs, then Undefined, then neutral
            return b if b is decisive or b is ERROR or a is neutral else a
        return logic
    apply = _arith if op in _ARITH else _compare

    def binary(self_ad, other_ad, reg, env, active):
        return apply(op, left(self_ad, other_ad, reg, env, active),
                     right(self_ad, other_ad, reg, env, active))
    return binary


def _compile_call(e: Call):
    key, arg_codes = e.fn_name.lower(), tuple(_compile(a) for a in e.args)
    n = len(arg_codes)
    # two arguments, as fun(Dataset, OTHER.Station_ID) takes, are evaluated
    # into a list display: a comprehension would cost a call of its own
    first, second = arg_codes if n == 2 else (None, None)

    def call(self_ad, other_ad, reg, env, active):
        if n == 2:
            args = [first(self_ad, other_ad, reg, env, active),
                    second(self_ad, other_ad, reg, env, active)]
        else:
            args = [a(self_ad, other_ad, reg, env, active) for a in arg_codes]
        entry = reg._entries.get(key)  # `FnRegistry.lookup`, name folded
        if entry is None:
            return ERROR
        arity, handler = entry
        if arity != n:
            return ERROR
        try:
            result = handler(args, self_ad, other_ad, env)
        except Exception:
            return ERROR
        if not isinstance(result, Value):
            return ERROR
        if result.kind is _REAL and type(result.data) is float and isfinite(result.data):
            return result  # what `_held` gives, without its conversions
        return _held(result) if result.is_numeric() else result
    return call


def _held(number: Value) -> Value:
    """A number an operator or a function call yields, or Error when a Real
    cannot hold it."""
    return number if number.as_real() is not None else ERROR


# -- logic --------------------------------------------------------------------

# op -> (the operand truth that decides it, the one that leaves it to the other)
_LOGIC = {"&&": (FALSE, TRUE), "||": (TRUE, FALSE)}


def _truth(v: Value) -> Value:
    """v as TRUE, FALSE or UNDEFINED; anything else, as an operand of
    &&, || or !, is ERROR."""
    if v.kind is _BOOLEAN:
        return TRUE if v.data else FALSE
    return UNDEFINED if v.kind is _UNDEFINED else ERROR


def _not(v: Value) -> Value:
    """! swaps the two booleans, as each of && and || pairs them, and keeps
    Undefined and Error."""
    decisive, neutral = _LOGIC["&&"]
    t = _truth(v)
    return neutral if t is decisive else decisive if t is neutral else t


# -- arithmetic ----------------------------------------------------------------

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _arith(op: str, a: Value, b: Value) -> Value:
    if a.kind is _INTEGER and b.kind is _INTEGER:
        x, y = a.data, b.data
        if op != "/":
            return _held(Value(_INTEGER, _ARITH[op](x, y)))
        if y == 0:
            return ERROR
        q = abs(x) // abs(y)  # truncation toward zero
        return _held(Value(_INTEGER, q if (x < 0) == (y < 0) else -q))
    x, y = a.as_real(), b.as_real()
    if x is None or y is None or op == "/" and y == 0.0:
        return ERROR
    return _held(Value(_REAL, _ARITH[op](x, y)))


# -- comparison ----------------------------------------------------------------

_EQUALITY = (ValueKind.TEXT, _BOOLEAN)
_ORDER = (ValueKind.TEXT,)  # booleans are unordered

# op -> (its test, the kinds besides numbers whose values it compares)
_COMPARISONS = {"==": (operator.eq, _EQUALITY), "!=": (operator.ne, _EQUALITY),
                "<": (operator.lt, _ORDER), "<=": (operator.le, _ORDER),
                ">": (operator.gt, _ORDER), ">=": (operator.ge, _ORDER)}


def _compare(op: str, a: Value, b: Value) -> Value:
    if a.kind is _ERROR or b.kind is _ERROR:
        return ERROR
    if a.kind is _UNDEFINED or b.kind is _UNDEFINED:
        return UNDEFINED
    test, kinds = _COMPARISONS[op]
    if a.kind is b.kind and a.kind in kinds:
        return boolean(test(a.data, b.data))
    x, y = a.as_real(), b.as_real()
    if x is None or y is None:  # not two numbers a Real can hold
        return ERROR
    return boolean(test(x, y))


# -- unary ---------------------------------------------------------------------

_SIGNS = {"-": operator.neg, "+": operator.pos}


def _unary(op: str, v: Value) -> Value:
    if op == "!":
        return _not(v)
    if v.as_real() is None:  # so the result, of the same size, is not either
        return ERROR
    return Value(v.kind, _SIGNS[op](v.data))
