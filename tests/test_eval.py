"""Expression evaluation semantics."""

import copy
import json
import math
import pickle
import time

import pytest

from vogrid.classads import (
    EMPTY_REGISTRY,
    AdKind,
    DuplicateFunction,
    FnRegistry,
    Value,
    ValueKind,
    boolean,
    evaluate,
    format_value,
    integer,
    parse_classad,
    parse_expr,
    real,
    symmetric_match,
    text,
)
from vogrid.classads import TRUE, FALSE, UNDEFINED, ERROR
from vogrid.classads.evaluator import MAX_REFERENCES

from conftest import BIG_PRODUCT, doubling_chain, fixture_path

EMPTY_AD = parse_classad("", AdKind.JOB)


def _ev(src, self_ad=None, other_ad=None, reg=None, env=None):
    ad = self_ad if self_ad is not None else EMPTY_AD
    return evaluate(parse_expr(src), ad, other_ad, reg or EMPTY_REGISTRY, env)


def test_logic_truth_table_fixture():
    table = json.loads(fixture_path("truth_table.json").read_text())
    rows = table["rows"]
    assert len(rows) == 72
    lookup = {"true": TRUE, "false": FALSE, "undefined": UNDEFINED,
              "error": ERROR, "0": integer(0), "1.5": real(1.5)}
    for row in rows:
        got = _ev(row["expr"])
        want = lookup[row["result"]]
        assert got == want, row["expr"]


def test_operator_table_fixture():
    table = json.loads(fixture_path("operator_table.json").read_text())
    operands = table["operands"]
    assert len(table["rows"]) == 3 * 12 + 10 * 12 * 12
    for row in table["rows"]:
        *picks, (kind, data) = row
        if len(picks) == 2:
            op, a = picks
            src = f"{op} {operands[a]}"
        else:
            a, op, b = picks
            src = f"{operands[a]} {op} {operands[b]}"
        got, want = _ev(src), Value(ValueKind(kind), data)
        assert got == want, src[:80]
        if kind == "real":  # == does not tell 0.0 from -0.0
            assert math.copysign(1.0, got.data) == math.copysign(1.0, data), src


def test_short_circuit_is_by_value_not_position():
    # a determined operand decides regardless of the other side
    assert _ev("false && error") == FALSE
    assert _ev("error && false") == FALSE
    assert _ev("true || undefined") == TRUE
    assert _ev("undefined || true") == TRUE
    # a non-boolean operand poisons like error even when it is falsy in Python
    assert _ev("0 && true") == ERROR
    assert _ev('"" || false') == ERROR


def test_integer_arithmetic():
    assert _ev("7 / 2") == integer(3)
    assert _ev("-7 / 2") == integer(-3)
    assert _ev("10 / 0") == ERROR
    assert _ev("2 + 3 * 4") == integer(14)


def test_mixed_arithmetic_promotes_to_real():
    assert _ev("1 + 2.5") == real(3.5)
    assert _ev("7 / 2.0") == real(3.5)
    assert _ev("10.0 / 0") == ERROR


def test_arithmetic_strictness():
    assert _ev("undefined + 1") == ERROR
    assert _ev("error * 2") == ERROR
    assert _ev('"a" + 1') == ERROR
    assert _ev('"a" + "b"') == ERROR
    assert _ev("true + true") == ERROR


def test_comparisons():
    assert _ev("1 < 2") == TRUE
    assert _ev("2.0 == 2") == TRUE
    assert _ev('"abc" < "abd"') == TRUE
    assert _ev('"A" == "a"') == FALSE
    assert _ev("true == true") == TRUE
    assert _ev("false != true") == TRUE
    # booleans have equality but no ordering
    assert _ev("true < false") == ERROR
    # cross-kind comparison is an error, not false
    assert _ev('1 == "1"') == ERROR
    assert _ev("true == 1") == ERROR
    # undefined propagates through comparison (it may become defined later)
    assert _ev("undefined == undefined") == UNDEFINED
    assert _ev("1 < undefined") == UNDEFINED
    assert _ev("error == error") == ERROR
    assert _ev("undefined == error") == ERROR


def test_unary_operators():
    assert _ev("!true") == FALSE
    assert _ev("!false") == TRUE
    assert _ev("!undefined") == UNDEFINED
    assert _ev("!error") == ERROR
    assert _ev("!1") == ERROR
    assert _ev("-3") == integer(-3)
    assert _ev("-2.5") == real(-2.5)
    assert _ev("+4") == integer(4)
    assert _ev('-"x"') == ERROR
    assert _ev("-undefined") == ERROR


def test_attribute_resolution():
    ad = parse_classad("Memory = 64\nTwice = Memory * 2\n", AdKind.RESOURCE)
    assert _ev("memory", self_ad=ad) == integer(64)
    assert _ev("Twice", self_ad=ad) == integer(128)
    assert _ev("Absent", self_ad=ad) == UNDEFINED


def test_other_scope():
    job = parse_classad('Dataset = "d"\nWant = OTHER.Memory\n', AdKind.JOB)
    res = parse_classad("Memory = 64\nNeed = OTHER.Dataset\n", AdKind.RESOURCE)
    assert _ev("Want", self_ad=job, other_ad=res) == integer(64)
    # inside the other ad, OTHER swings back to the original self
    assert _ev("OTHER.Need", self_ad=job, other_ad=res) == text("d")
    # without a counterpart every OTHER reference is undefined
    assert _ev("OTHER.Memory", self_ad=job) == UNDEFINED


def test_reference_cycle_is_undefined():
    ad = parse_classad("A = B\nB = A\nC = C\n", AdKind.JOB)
    assert _ev("A", self_ad=ad) == UNDEFINED
    assert _ev("C", self_ad=ad) == UNDEFINED
    # the cycle does not contaminate an unrelated attribute
    ad2 = parse_classad("A = A\nD = 9\n", AdKind.JOB)
    assert _ev("D", self_ad=ad2) == integer(9)


def test_cross_ad_cycle():
    job = parse_classad("A = OTHER.B\n", AdKind.JOB)
    res = parse_classad("B = OTHER.A\n", AdKind.RESOURCE)
    assert _ev("A", self_ad=job, other_ad=res) == UNDEFINED


def test_function_calls():
    reg = FnRegistry()
    reg.register("double", 1, lambda args, s, o, env: integer(args[0].data * 2), reads=())
    ad = parse_classad("X = double(21)\n", AdKind.JOB)
    assert _ev("X", self_ad=ad, reg=reg) == integer(42)


def test_function_call_failures():
    reg = FnRegistry()

    def boom(args, s, o, env):
        raise RuntimeError("no")

    reg.register("boom", 0, boom, reads=())
    reg.register("seven", 0, lambda args, s, o, env: 7, reads=())
    assert _ev("boom()", reg=reg) == ERROR
    assert _ev("seven()", reg=reg) == ERROR  # handler returned a non-Value
    assert _ev("missing(1)", reg=reg) == ERROR
    assert _ev("boom(1)", reg=reg) == ERROR  # arity mismatch, handler not run
    # a number a Real cannot hold is Error, whether arithmetic or a handler made it
    for name, x in (("inf", real(math.inf)), ("ninf", real(-math.inf)),
                    ("nan", real(math.nan)), ("huge", integer(10 ** 400))):
        reg.register(name, 0, lambda args, s, o, env, x=x: x, reads=())
        assert _ev(f"{name}()", reg=reg) == ERROR
    reg.register("half", 0, lambda args, s, o, env: real(0.5), reads=())
    assert _ev("half()", reg=reg) == real(0.5)


def test_function_sees_evaluated_args_and_scopes():
    seen = {}

    def probe(args, self_ad, other_ad, env):
        seen["args"] = args
        seen["other"] = other_ad
        seen["env"] = env
        return TRUE

    reg = FnRegistry()
    reg.register("probe", 1, probe, reads=())
    job = parse_classad("N = 2\nGo = probe(N + 1)\n", AdKind.JOB)
    res = parse_classad('Station_ID = "durin"\n', AdKind.RESOURCE)
    marker = object()
    assert _ev("Go", self_ad=job, other_ad=res, reg=reg, env=marker) == TRUE
    assert seen["args"] == [integer(3)]
    assert seen["other"] is res
    assert seen["env"] is marker


def test_duplicate_function_rejected():
    reg = FnRegistry()
    reg.register("f", 0, lambda args, s, o, env: TRUE, reads=())
    with pytest.raises(DuplicateFunction):
        reg.register("F", 0, lambda args, s, o, env: FALSE, reads=())


def test_a_function_registers_only_with_the_attributes_it_reads():
    reg = FnRegistry()
    with pytest.raises(TypeError):
        reg.register("f", 1, lambda args, s, o, env: TRUE)
    with pytest.raises(TypeError):  # one name is not a collection of names
        reg.register("f", 1, lambda args, s, o, env: TRUE, reads="OutputBytes")
    assert reg.lookup("f") is None and reg.reads == {}
    reg.register("F", 1, lambda args, s, o, env: TRUE, reads=["A", "OutputBytes"])
    assert reg.reads == {"f": ("a", "outputbytes")}


def test_symmetric_match():
    job = parse_classad(
        'Requirements = OTHER.Architecture == "Linux"\n', AdKind.JOB)
    res_ok = parse_classad(
        'Architecture = "Linux"\nRequirements = true\n', AdKind.RESOURCE)
    res_no = parse_classad(
        'Architecture = "OSF1"\n', AdKind.RESOURCE)
    res_picky = parse_classad(
        'Architecture = "Linux"\nRequirements = OTHER.Owner == "bob"\n',
        AdKind.RESOURCE)
    assert symmetric_match(job, res_ok) is True
    assert symmetric_match(job, res_no) is False
    assert symmetric_match(job, res_picky) is False
    # a missing Requirements on either side defaults to accept
    assert symmetric_match(EMPTY_AD, res_ok) is True
    # undefined requirement is not a match
    vague = parse_classad("Requirements = OTHER.NoSuch\n", AdKind.JOB)
    assert symmetric_match(vague, res_ok) is False


def test_value_helpers():
    assert boolean(True) == TRUE
    assert boolean(False) == FALSE
    assert integer(3).kind is ValueKind.INTEGER
    assert real(3.0).kind is ValueKind.REAL
    assert text("s").kind is ValueKind.TEXT
    assert integer(3) != real(3.0)
    assert Value(ValueKind.INTEGER, 3) == integer(3)


def test_a_value_is_immutable_equal_by_kind_and_data_and_hashes_as_its_pair():
    v = real(1.5)
    for name in ("kind", "data", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, integer(1))
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert (v.kind, v.data) == (ValueKind.REAL, 1.5)
    # equal when of one class, with the same kind and equal data
    assert v == Value(ValueKind.REAL, 1.5) and not v != Value(ValueKind.REAL, 1.5)
    assert integer(1) != real(1.0) and integer(1) != boolean(True)
    assert real(1.5) != real(2.5) and text("a") != text("b")
    assert Value(ValueKind.UNDEFINED) == UNDEFINED != ERROR
    assert v != (ValueKind.REAL, 1.5) and v != 1.5
    # a Value hashes as its (kind, data) pair, as the frozen dataclass did
    for value in (v, integer(3), text("x"), TRUE, FALSE, UNDEFINED, ERROR):
        assert hash(value) == hash((value.kind, value.data))
    assert len({v, Value(ValueKind.REAL, 1.5), integer(1), real(1.0)}) == 3
    # a copy or a pickle is built anew, not by assigning to it
    assert copy.copy(v) == v == pickle.loads(pickle.dumps(v))


def test_format_value_round_trips_through_parser():
    for v in (integer(-12), real(0.125), text('a"b\n'), TRUE, FALSE,
              UNDEFINED, ERROR):
        assert _ev(format_value(v)) == v
    # non-finite reals have no literal form and come back as error
    assert _ev(format_value(real(float("inf")))) == ERROR


def test_chain_too_deep_for_the_stack_is_error():
    # a flat source text parses into a left-leaning tree 3000 nodes deep
    e = parse_expr(" + ".join(["1"] * 3000))
    assert evaluate(e, EMPTY_AD, None, EMPTY_REGISTRY) == ERROR
    assert _ev(" + ".join(["1"] * 300)) == integer(300)


def test_integer_too_large_for_a_real_is_error():
    huge = "9" * 400
    assert _ev(f"1 == {huge}") == ERROR
    assert _ev(f"{huge} < 2.5") == ERROR
    assert _ev(f"{huge} * 1.5") == ERROR
    assert _ev(f"{huge} - {huge}") == integer(0)  # Integers alone stay exact


def test_a_product_of_big_integers_is_error_at_once():
    # without a bound on Integer results each factor multiplies an ever
    # longer Integer, in time quadratic in the number of factors
    assert len(BIG_PRODUCT) >= 800_000
    e = parse_expr(BIG_PRODUCT)
    start = time.perf_counter()
    assert evaluate(e, EMPTY_AD, None, EMPTY_REGISTRY) == ERROR
    assert time.perf_counter() - start < 0.25


def test_a_doubling_chain_is_error_within_a_second():
    ad = parse_classad(doubling_chain(60), AdKind.JOB)
    start = time.perf_counter()
    assert _ev("A60 > 0", self_ad=ad) == ERROR
    assert ad.evaluate_self("A60") == ERROR
    assert time.perf_counter() - start < 1.0
    # well inside the cap the chain is exact: A9 takes 511 resolutions
    assert _ev("A9", self_ad=ad) == integer(512)


def _sum_of(name, n):
    """n references to `name`, added up in a balanced tree."""
    if n == 1:
        return name
    return f"({_sum_of(name, n // 2)} + {_sum_of(name, n - n // 2)})"


def test_an_evaluation_resolves_at_most_max_references():
    ad = parse_classad("B = C + 0\nC = 1\n", AdKind.JOB)
    assert _ev(_sum_of("B", MAX_REFERENCES), self_ad=ad) == integer(MAX_REFERENCES)
    assert _ev(_sum_of("B", MAX_REFERENCES + 1), self_ad=ad) == ERROR
    # each evaluation has its own count, and a reference to a literal
    # resolves nothing
    assert _ev(_sum_of("B", MAX_REFERENCES), self_ad=ad) == integer(MAX_REFERENCES)
    assert _ev(_sum_of("C", MAX_REFERENCES + 1), self_ad=ad) == integer(MAX_REFERENCES + 1)
    # a cycle is still Undefined
    assert _ev("A", self_ad=parse_classad("A = B\nB = A\n", AdKind.JOB)) == UNDEFINED
