"""Expression grammar and ad file parsing."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from vogrid import wire
from vogrid.classads import (
    AdKind,
    AttrRef,
    Binary,
    Call,
    ClassAd,
    FnRegistry,
    Literal,
    ParseError,
    Scope,
    Unary,
    ad_from_json,
    ad_to_json,
    format_expr,
    parse_classad,
    parse_expr,
    integer,
    real,
    text,
)
from vogrid.classads import TRUE, FALSE, UNDEFINED, ERROR
from vogrid.classads import EMPTY_REGISTRY, Value, ValueKind, evaluate
from vogrid.classads.parser import MAX_NESTING, PARSE_MEMO_CHARS, PARSE_MEMO_ENTRIES, _Parser
from vogrid.classads.exprs import PRECEDENCE, expr_key

EMPTY_AD = parse_classad("", AdKind.JOB)


def test_parse_expr_shares_the_trees_of_short_sources():
    src = 'Memory >= 2048 && Arch == "X86_64"'
    assert parse_expr(src) is parse_expr(src[:1] + src[1:])
    long_src = " + ".join(["1"] * 200)
    assert len(long_src) > PARSE_MEMO_CHARS
    assert parse_expr(long_src) == parse_expr(long_src)
    assert parse_expr(long_src) is not parse_expr(long_src)


def test_parse_expr_keeps_at_most_parse_memo_entries_trees():
    first = parse_expr("memo_probe + 0")
    for k in range(1, PARSE_MEMO_ENTRIES + 1):
        parse_expr(f"memo_probe + {k}")
    assert parse_expr("memo_probe + 0") is not first


def test_numeric_literals():
    assert parse_expr("42") == Literal(integer(42))
    assert parse_expr("3.5") == Literal(real(3.5))
    assert parse_expr("2e3") == Literal(real(2000.0))
    assert parse_expr("1.25E-2") == Literal(real(0.0125))


def test_string_literals_and_escapes():
    assert parse_expr('"hi"') == Literal(text("hi"))
    assert parse_expr(r'"a\"b\\c\n"') == Literal(text('a"b\\c\n'))
    with pytest.raises(ParseError):
        parse_expr(r'"bad \q escape"')


def test_keywords_case_insensitive():
    assert parse_expr("TRUE") == Literal(TRUE)
    assert parse_expr("False") == Literal(FALSE)
    assert parse_expr("Undefined") == Literal(UNDEFINED)
    assert parse_expr("ERROR") == Literal(ERROR)


def test_references_and_calls():
    assert parse_expr("Memory") == AttrRef(Scope.SELF, "Memory")
    assert parse_expr("OTHER.Disk") == AttrRef(Scope.OTHER, "Disk")
    assert parse_expr("other.disk") == AttrRef(Scope.OTHER, "disk")
    e = parse_expr("fun(Dataset, OTHER.Station_ID)")
    assert e == Call("fun", (AttrRef(Scope.SELF, "Dataset"),
                             AttrRef(Scope.OTHER, "Station_ID")))
    assert parse_expr("nilary()") == Call("nilary", ())


def test_precedence_shape():
    e = parse_expr("1 + 2 * 3")
    assert isinstance(e, Binary) and e.op == "+"
    assert isinstance(e.right, Binary) and e.right.op == "*"
    e = parse_expr("a || b && c == d + e * !f")
    assert e.op == "||"
    assert e.right.op == "&&"
    assert e.right.right.op == "=="
    # left associativity
    e = parse_expr("10 - 4 - 3")
    assert e.left == Binary("-", Literal(integer(10)), Literal(integer(4)))


def test_every_pair_of_binary_operators_groups_by_precedence():
    # a op1 b op2 c groups to the left iff op1 binds at least as tightly
    a, b, c = (AttrRef(Scope.SELF, name) for name in "abc")
    pairs = list(itertools.product(PRECEDENCE, repeat=2))
    assert len(pairs) == 144
    for op1, op2 in pairs:
        got = parse_expr(f"a {op1} b {op2} c")
        if PRECEDENCE[op1] >= PRECEDENCE[op2]:
            assert got == Binary(op2, Binary(op1, a, b), c), (op1, op2)
        else:
            assert got == Binary(op1, a, Binary(op2, b, c)), (op1, op2)


def test_parentheses_and_unary():
    e = parse_expr("(1 + 2) * 3")
    assert e.op == "*" and e.left.op == "+"
    assert parse_expr("-x") == Unary("-", AttrRef(Scope.SELF, "x"))
    assert parse_expr("!!b") == Unary("!", Unary("!", AttrRef(Scope.SELF, "b")))


@pytest.mark.parametrize("bad", [
    "", "1 +", "(1", "1)", "fun(1,", 'fun(1 2)', "@x", '"unterminated',
    "OTHER.", "OTHER.5", "1 2",
    # a number is spelled in ASCII digits: these once read as 3 and 12.5
    "OTHER.Slots > \u0663", "\u0661\u0662.5",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expr(bad)


def test_parse_error_carries_byte_offset():
    with pytest.raises(ParseError) as exc:
        parse_expr("aaaa $")
    assert exc.value.offset == 5


def test_an_ad_file_error_names_its_line_and_offset_once():
    # the offset was written twice: "... (byte offset 5) (byte offset 5)"
    with pytest.raises(ParseError) as exc:
        parse_classad("A = 1\nB = aaaa $\n", AdKind.JOB)
    assert str(exc.value) == "line 2: bad character '$' (byte offset 5)"


@pytest.mark.parametrize("src", [
    "(" * 200 + "1" + ")" * 200,
    "-" * 200 + "1",
    "fun(" * 200 + "1" + ")" * 200,
    "1" * 5000,  # more digits than int() accepts
    "1e999",  # a Real past float range; it would format as error
    "Requirements > 9.5e400",
])
def test_too_deep_or_too_long_is_a_parse_error(src):
    with pytest.raises(ParseError):
        parse_expr(src)


def test_nesting_up_to_the_limit_parses():
    depth = MAX_NESTING
    assert parse_expr("(" * depth + "1" + ")" * depth) == Literal(integer(1))
    e = parse_expr("-" * depth + "1")
    for _ in range(depth):
        assert isinstance(e, Unary)
        e = e.operand
    with pytest.raises(ParseError) as exc:
        parse_expr("(" * (depth + 1) + "1" + ")" * (depth + 1))
    assert exc.value.offset == depth


_SOURCE = st.recursive(
    st.one_of(st.sampled_from(["1", "2.5", "1e9", "1e308", "1e999", '"t"', "x", "OTHER.y",
                               "true", "undefined", "error", "@", ")", ""]),
              st.integers(1, 6000).map(lambda n: "9" * n)),
    lambda inner: st.one_of(
        inner.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["-", "!", "+"]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["+", "*", "/", "&&", "||", "==", "<", ","]),
                  inner).map(" ".join),
        st.lists(inner, max_size=3).map(lambda args: f"fun({', '.join(args)})"),
    ))
# the same sources wrapped many times over: nesting and operator chains far
# deeper than any ad needs
_DEEP_SOURCE = st.tuples(
    st.sampled_from([("(", ")"), ("-", ""), ("!", ""), ("fun(", ")"), ("1 + ", "")]),
    st.integers(0, 3000), _SOURCE,
).map(lambda t: t[0][0] * t[1] + t[2] + t[0][1] * t[1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.text(max_size=200), _SOURCE, _DEEP_SOURCE))
def test_parse_raises_only_parse_error(src):
    try:
        parse_expr(src)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_SOURCE, _DEEP_SOURCE))
def test_whatever_parses_evaluates_without_raising(src):
    try:
        e = parse_expr(src)
    except ParseError:
        return
    result = evaluate(e, EMPTY_AD, EMPTY_AD, EMPTY_REGISTRY)
    assert isinstance(result, Value)
    # a Real is finite: an overflow or a NaN is Error
    assert not (result.kind is ValueKind.REAL and not math.isfinite(result.data))
    # and so is any number an operator yields: past a Real's range it is Error
    if type(e) is not Literal and result.is_numeric():
        assert math.isfinite(float(result.data))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(_SOURCE, _DEEP_SOURCE))
def test_whatever_parses_and_formats_parses_back_to_the_same_tree(src):
    try:
        tree = parse_expr(src)
    except ParseError:
        return
    try:
        formatted = format_expr(tree)
    except RecursionError:  # a chain too deep for the recursive formatter
        return
    # trees compared by their images: `==` recurses, and chains go deep
    assert expr_key(parse_expr(formatted)) == expr_key(tree)


def _fun(args, self_ad, other_ad, env):
    """A deterministic `fun` of any argument values."""
    return text(repr(args))


_FUN = FnRegistry().register("fun", 2, _fun, reads=())


def _ads_around(tree_of):
    """Ads whose x and y bind the tree (`tree_of()` gives it) in every role:
    read through SELF and through OTHER, beside literals, and in cycles."""
    def ad(label, **attrs):
        return ClassAd({name: (tree_of() if src is None else parse_expr(src))
                        for name, src in attrs.items()}, AdKind.JOB, ad_id=label)
    return [
        ad("a", x=None, y="1"),
        ad("b", x="2.5", y=None),
        ad("c", x=None, y=None),  # the tree reading x or y inside c is a cycle
        ad("d", x="OTHER.y", y="x"),  # cycles through the other ad
        ad("e", x="OTHER.x", y=None),
        ad("empty"),
    ]


def _fresh_parse(src: str):
    """A tree of its own, bypassing `parse_expr`'s memo."""
    return _Parser(src).parse()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_SOURCE)
def test_a_shared_compiled_tree_evaluates_as_a_fresh_parse(src):
    try:
        tree = parse_expr(src)
    except ParseError:
        return
    shared = _ads_around(lambda: tree)  # one tree in every ad
    for _ in range(2):  # the second round runs code compiled in the first
        for i, self_ad in enumerate(shared):
            for j, other_ad in enumerate(shared + [None]):
                fresh = _ads_around(lambda: _fresh_parse(src))
                fresh_other = None if other_ad is None else fresh[j]
                assert (evaluate(tree, self_ad, other_ad, _FUN)
                        == evaluate(_fresh_parse(src), fresh[i], fresh_other, _FUN))
    for i, ad in enumerate(shared):  # memoized self-reads, asked twice
        for name in ("x", "X", "y", "z"):
            fresh = _ads_around(lambda: _fresh_parse(src))[i]
            bound = fresh.lookup(name)
            expected = (UNDEFINED if bound is None
                        else evaluate(bound, fresh, None, EMPTY_REGISTRY))
            assert ad.evaluate_self(name) == expected
            assert ad.evaluate_self(name) == expected


def test_a_tree_too_deep_for_the_stack_is_error_on_every_call():
    deep = parse_expr(" + ".join(["1"] * 3000))
    ad = ClassAd({"Deep": deep, "Via": parse_expr("Deep")}, AdKind.JOB)
    for _ in range(3):
        assert evaluate(deep, ad, None, EMPTY_REGISTRY) == ERROR
        assert evaluate(parse_expr("Via * 2"), ad, ad, EMPTY_REGISTRY) == ERROR
        assert ad.evaluate_self("Deep") == ERROR
        assert ad.evaluate_self("Via") == ERROR


def _random_expr(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        pick = rng.randrange(5)
        if pick == 0:
            return Literal(integer(rng.randrange(1000)))
        if pick == 1:
            return Literal(real(rng.randrange(1000) / 8.0))
        if pick == 2:
            return Literal(text(rng.choice(["x", 'quo"te', "two\nlines", "tab\t"])))
        if pick == 3:
            return Literal(rng.choice([TRUE, FALSE, UNDEFINED, ERROR]))
        scope = rng.choice([Scope.SELF, Scope.OTHER])
        return AttrRef(scope, rng.choice(["Memory", "disk_total", "Rank"]))
    if roll < 0.45:
        return Unary(rng.choice(["!", "-", "+"]), _random_expr(rng, depth - 1))
    if roll < 0.55:
        args = tuple(_random_expr(rng, depth - 1) for _ in range(rng.randrange(3)))
        return Call(rng.choice(["fun", "lookup2"]), args)
    op = rng.choice(["+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||"])
    return Binary(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_format_parse_round_trip():
    rng = random.Random(99)
    for _ in range(300):
        e = _random_expr(rng, 4)
        assert parse_expr(format_expr(e)) == e


def test_parse_classad_basic():
    ad = parse_classad(
        "# resource on the second floor\n"
        "\n"
        'Name = "CDF/fcdfmc"\n'
        "Slots = 2 * 3\n",
        AdKind.RESOURCE, ad_id="r1")
    assert ad.ad_id == "r1"
    assert ad.kind is AdKind.RESOURCE
    assert "name" in ad and "SLOTS" in ad
    assert ad.lookup("name") == Literal(text("CDF/fcdfmc"))
    assert [name for name, _ in ad.items()] == ["Name", "Slots"]


def test_parse_classad_duplicate_attr():
    with pytest.raises(ParseError):
        parse_classad("A = 1\na = 2\n", AdKind.JOB)


def test_a_large_ad_file_parses_within_a_second():
    # each line once compared its name with every name before it: 8,000
    # attributes took 2.3 s
    names = [f"A{k}" for k in range(10_000)]
    source = "".join(f"{name} = 1\n" for name in names)
    start = time.perf_counter()
    ad = parse_classad(source, AdKind.JOB)
    assert time.perf_counter() - start < 1.0
    assert [name for name, _ in ad.items()] == names
    with pytest.raises(ParseError) as exc:
        parse_classad(source + "a9999 = 2\n", AdKind.JOB)
    assert str(exc.value) == "line 10001: duplicate attribute 'a9999' (byte offset 0)"


def test_parse_classad_bad_line():
    with pytest.raises(ParseError):
        parse_classad("not a binding\n", AdKind.JOB)


def test_bare_identifier_binding_stays_a_reference():
    # whether or not the ad defines the attribute it names
    ad = parse_classad("Station_ID = foo\nA = 5\nB = A\n", AdKind.RESOURCE)
    assert ad.lookup("Station_ID") == AttrRef(Scope.SELF, "foo")
    assert ad.lookup("B") == AttrRef(Scope.SELF, "A")


def test_ad_json_round_trip():
    ad = parse_classad(
        'Owner = "alice"\nRequirements = OTHER.Architecture == "Linux"\n'
        "OutputBytes = 12\n", AdKind.JOB, ad_id="job-7")
    clone = ad_from_json(ad_to_json(ad), AdKind.JOB)
    assert clone == ad
    assert clone.ad_id == "job-7"
    assert clone.kind is AdKind.JOB


@pytest.mark.parametrize("kind, other, name, line, refusal", [
    (AdKind.JOB, AdKind.RESOURCE, "job",
     b'{"id":"a","kind":"job","attrs":{"Owner":"\\"alice\\"","Slots":"2"}}\n',
     "ad kind must be 'resource', not 'job'"),
    (AdKind.RESOURCE, AdKind.JOB, "resource",
     b'{"id":"a","kind":"resource","attrs":{"Owner":"\\"alice\\"","Slots":"2"}}\n',
     "ad kind must be 'job', not 'resource'"),
], ids=["job", "resource"])
def test_an_ads_kind_is_its_wire_name(kind, other, name, line, refusal):
    # the bytes of an ad's JSON form and the refusal text, spelled out; an ad
    # refused in-process reads as one refused off the wire, since every
    # reader of an ad checks its kind in `ad_from_json`
    ad = parse_classad('Owner = "alice"\nSlots = 2\n', kind, ad_id="a")
    assert wire.encode_line(ad_to_json(ad)) == line
    assert repr(ad) == f"ClassAd({name} 'a', 2 attrs)"
    for obj in (ad_to_json(ad), wire.decode_line(line)):
        assert ad_from_json(obj, kind) == ad
        with pytest.raises(ValueError) as exc:
            ad_from_json(obj, other)
        assert str(exc.value) == refusal


@pytest.mark.parametrize("ad_id", [5, 1.5, True, None, math.inf, [], {}])
def test_ad_from_json_requires_a_text_id(ad_id):
    obj = ad_to_json(parse_classad('Owner = "alice"\n', AdKind.JOB, ad_id="j"))
    with pytest.raises(ValueError, match="id must be text"):
        ad_from_json(obj | {"id": ad_id}, AdKind.JOB)
    del obj["id"]
    assert ad_from_json(obj, AdKind.JOB).ad_id == ""
