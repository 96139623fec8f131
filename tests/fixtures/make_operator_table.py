# Regenerates operator_table.json: every unary operator applied to every
# operand, and every comparison and arithmetic operator applied to every
# ordered pair of operands. The rules are written out by hand here, so the
# fixture does not depend on the package under test.
#
#   A number is held when a Real can hold it: a finite float, or an Integer
#   that converts to one. Every number an operator yields must be held, else
#   the result is error. Integer literals are exact at any size.
#
#   ! x: true <-> false, undefined stays undefined, anything else is error.
#   - x, + x: a held number keeps its kind; anything else is error.
#   a + - * / b: two Integers give the exact Integer, / truncating toward
#     zero; otherwise both must be held numbers, taken as Reals. Division by
#     zero, or a non-number operand, is error.
#   a == != < <= > >= b: error if either is error, else undefined if either
#     is undefined. Two held numbers compare as Reals; two texts by code
#     point; two booleans by == and != only. Anything else is error.
#
# A row is [op, operand index, result] or [index, op, index, result]; a
# result is [kind, data]. Run from this directory: python3 make_operator_table.py

import json
import math
import operator

BIG = "9" * 400

# source text -> (kind, data)
OPERANDS = {
    "true": ("boolean", True), "false": ("boolean", False),
    "undefined": ("undefined", None), "error": ("error", None),
    "0": ("integer", 0), "7": ("integer", 7), "-3": ("integer", -3),
    "2.5": ("real", 2.5), "0.0": ("real", 0.0),
    '"a"': ("text", "a"), '"b"': ("text", "b"), BIG: ("integer", int(BIG)),
}

ERROR = ("error", None)
UNDEFINED = ("undefined", None)
ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def as_real(v):
    """The held number v as a float, or None."""
    kind, data = v
    if kind not in ("integer", "real"):
        return None
    try:
        x = float(data)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def held(v):
    return v if as_real(v) is not None else ERROR


def unary(op, v):
    kind, data = v
    if op == "!":
        if kind == "boolean":
            return ("boolean", not data)
        return UNDEFINED if kind == "undefined" else ERROR
    if as_real(v) is None:
        return ERROR
    return (kind, -data if op == "-" else data)


def arith(op, a, b):
    if a[0] == "integer" and b[0] == "integer":
        x, y = a[1], b[1]
        if op != "/":
            return held(("integer", ARITH[op](x, y)))
        if y == 0:
            return ERROR
        q = abs(x) // abs(y)
        return held(("integer", q if (x < 0) == (y < 0) else -q))
    x, y = as_real(a), as_real(b)
    if x is None or y is None or (op == "/" and y == 0.0):
        return ERROR
    return held(("real", ARITH[op](x, y)))


def compare(op, a, b):
    if ERROR in (a, b):
        return ERROR
    if UNDEFINED in (a, b):
        return UNDEFINED
    x, y = as_real(a), as_real(b)
    if x is not None and y is not None:
        return ("boolean", COMPARE[op](x, y))
    if a[0] == b[0] == "text" or (a[0] == b[0] == "boolean" and op in ("==", "!=")):
        return ("boolean", COMPARE[op](a[1], b[1]))
    return ERROR


def main():
    sources = list(OPERANDS)
    values = [OPERANDS[s] for s in sources]
    rows = []
    for op in ("!", "-", "+"):
        rows += [[op, i, list(unary(op, v))] for i, v in enumerate(values)]
    for op in (*COMPARE, *ARITH):
        rule = compare if op in COMPARE else arith
        rows += [[i, op, j, list(rule(op, a, b))]
                 for i, a in enumerate(values) for j, b in enumerate(values)]
    with open("operator_table.json", "w", encoding="utf-8") as fh:
        fh.write('{"operands": ' + json.dumps(sources) + ',\n "rows": [\n')
        fh.write(",\n".join("  " + json.dumps(row) for row in rows))
        fh.write("\n]}\n")
    print(f"wrote {len(rows)} rows")


if __name__ == "__main__":
    main()
