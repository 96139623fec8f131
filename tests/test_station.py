"""Data-handling station state and preference queries."""

import dataclasses
import json
import math
import random
import socket

import pytest
from hypothesis import given, settings, strategies

from vogrid.conftree import TreeNode, read_tree
from vogrid import wire
from vogrid.station import (
    DatasetCatalog,
    IllegalTransition,
    NoRouteToSource,
    ScoreOverflow,
    StationState,
    UnknownDataset,
    apply_event,
    config_fields,
    copy_state,
    get_preference,
    handler,
    lookup_dataset,
    shortfall,
    station_from_config,
)

from conftest import fixture_text

CATALOG = DatasetCatalog({
    "dzero-run2": [
        ("raw000", 2_000_000_000, "FNAL"),
        ("raw001", 2_000_000_000, "FNAL"),
        ("raw002", 500_000_000, "CDF"),
    ],
    "minbias": [
        ("mb000", 1_000_000_000, "CDF"),
        ("mb001", 1_000_000_000, "CDF"),
    ],
})


def _station(**overrides):
    spec = dict(station_id="durin",
                links={"FNAL": 1e8, "CDF": 1e7},
                mean_service_seconds=2.0)
    spec.update(overrides)
    return StationState(**spec)


# -- catalog ---------------------------------------------------------------------

def test_catalog_validation():
    with pytest.raises(ValueError):
        DatasetCatalog({"d": [("f", 10, "A"), ("f", 20, "B")]})
    with pytest.raises(ValueError):
        DatasetCatalog({"d": [("f", 0, "A")]})
    with pytest.raises(UnknownDataset):
        CATALOG.files("nope")


@pytest.mark.parametrize("size", [True, 1.5, 10 ** 400, math.nan, math.inf, -1, "5"],
                         ids=["true", "fraction", "10**400", "nan", "infinity",
                              "negative", "text"])
def test_catalog_file_sizes_are_whole_numbers_a_float_holds(size):
    # true was taken as one byte, and 1.5, NaN and 10**400 were accepted
    with pytest.raises(ValueError, match="size"):
        DatasetCatalog({"d": [("f", size, "A")]})


@pytest.mark.parametrize("entry", [(7, 10, "A"), (None, 10, "A"), (["f"], 10, "A"),
                                   ("f", 10, ["not", "a", "site"]), ("f", 10, 7),
                                   ("f", 10, None)],
                         ids=["name-number", "name-null", "name-list", "source-list",
                              "source-number", "source-null"])
def test_catalog_file_names_and_sources_are_text(entry):
    # a list source once ended a random-policy run in a TypeError, and a
    # number as name was cached into a station state that refuses it
    with pytest.raises(ValueError, match=r"dataset 'd': file .* must be text"):
        DatasetCatalog({"d": [("g", 10, "A"), entry]})


def test_catalog_files_cannot_be_changed_by_a_caller():
    files = CATALOG.files("minbias")
    assert isinstance(files, tuple) and files is CATALOG.files("minbias")
    with pytest.raises(AttributeError):
        files.pop()
    assert len(CATALOG.files("minbias")) == 2


def test_station_validation():
    with pytest.raises(ValueError):
        _station(links={"FNAL": 0.0})
    with pytest.raises(ValueError):
        _station(input_queue_depth=-1)
    with pytest.raises(ValueError):
        _station(output_queue_depth=-2)
    with pytest.raises(ValueError):
        _station(output_destination="ELSEWHERE")
    # each of these once built, and scored NaN, infinite, or better as the
    # queue grew (a negative service time)
    nan, inf = float("nan"), float("inf")
    for bad in ({"links": {"FNAL": nan}}, {"links": {"FNAL": inf}},
                {"mean_service_seconds": nan}, {"mean_service_seconds": inf},
                {"mean_service_seconds": -5.0}, {"expected_output_bytes": -1},
                {"expected_output_bytes": 10 ** 400}, {"input_queue_depth": nan}):
        with pytest.raises(ValueError):
            _station(**bad)
    # each of these once built: a text was taken as a set of its characters,
    # true as 1, and a fractional depth fell below zero after one dequeued step
    for bad in ({"cached_files": "f0"}, {"cached_files": ["f0", 1]},
                {"input_queue_depth": True}, {"input_queue_depth": 0.5},
                {"output_queue_depth": False}, {"output_queue_depth": 2.5},
                {"expected_output_bytes": 1.5}, {"expected_output_bytes": True},
                {"mean_service_seconds": True}, {"links": {"FNAL": True}}):
        with pytest.raises(ValueError):
            _station(**bad)
    st = _station(cached_files=["a", "a", "b"])
    assert st.cached_files == frozenset({"a", "b"})
    assert _station(cached_files=()).cached_files == frozenset()


# -- preference queries ----------------------------------------------------------

def test_lookup_partitions_in_catalog_order():
    st = _station(cached_files={"raw001"})
    present, missing = lookup_dataset(CATALOG, st, "dzero-run2")
    assert [f.file_name for f in present] == ["raw001"]
    assert [f.file_name for f in missing] == ["raw000", "raw002"]


def test_preference_hand_computed():
    st = _station(cached_files={"raw000"}, input_queue_depth=3)
    report = get_preference(CATALOG, st, "dzero-run2")
    # raw001 from FNAL: 2e9 / 1e8 = 20s; raw002 from CDF: 5e8 / 1e7 = 50s
    assert report.input_transfer_seconds == 70.0
    assert report.missing_bytes == 2_500_000_000
    # three queued requests at 2s each
    assert report.input_wait_seconds == 6.0
    assert report.output_seconds == 0.0
    assert report.score == -76.0


def test_preference_fully_cached_idle_station_is_zero():
    st = _station(cached_files={"raw000", "raw001", "raw002"})
    assert get_preference(CATALOG, st, "dzero-run2").score == 0.0


def test_preference_counts_output_path():
    st = _station(output_destination="FNAL", output_queue_depth=2,
                  expected_output_bytes=1_000_000_000,
                  cached_files={"raw000", "raw001", "raw002"})
    report = get_preference(CATALOG, st, "dzero-run2")
    # two queued outputs at 2s each, plus 1e9 / 1e8 for this job's own output
    assert report.output_seconds == 14.0
    assert report.score == -14.0


def test_preference_output_bytes_override():
    st = _station(output_destination="FNAL", expected_output_bytes=1_000_000_000,
                  cached_files={"raw000", "raw001", "raw002"})
    assert get_preference(CATALOG, st, "dzero-run2", output_bytes=0).score == 0.0
    report = get_preference(CATALOG, st, "dzero-run2", output_bytes=3_000_000_000)
    assert report.output_seconds == 30.0


def test_preference_no_route_to_source():
    st = _station(links={"FNAL": 1e8})
    with pytest.raises(NoRouteToSource):
        get_preference(CATALOG, st, "dzero-run2")  # raw002 lives at CDF
    # cached copies of the unroutable file remove the obstacle
    st = _station(links={"FNAL": 1e8}, cached_files={"raw002"})
    assert get_preference(CATALOG, st, "dzero-run2").score == -40.0


def test_preference_output_without_destination():
    st = _station(cached_files={"raw000", "raw001", "raw002"})
    with pytest.raises(NoRouteToSource):
        get_preference(CATALOG, st, "dzero-run2", output_bytes=5)
    assert get_preference(CATALOG, st, "dzero-run2", output_bytes=0).score == 0.0


def test_a_score_past_a_float_is_score_overflow():
    # 1e300 bytes over 1e-10 bytes/second: the score was -Infinity, and the
    # station answered "output_bytes too large" to a request without one
    catalog = DatasetCatalog({"d": [("f", 10 ** 300, "FNAL")]})
    st = _station(links={"FNAL": 1e-10})
    with pytest.raises(ScoreOverflow):
        get_preference(catalog, st, "d")
    reply = handler(catalog, st)({"type": "GET_PREFERENCE", "id": 1, "dataset": "d"})
    assert reply["error"]["code"] == "malformed"
    assert "output_bytes" not in reply["error"]["message"]
    # a wait past a float's range is an overflow too, not an OverflowError
    st = _station(input_queue_depth=10 ** 300, mean_service_seconds=10 ** 300)
    with pytest.raises(ScoreOverflow):
        get_preference(CATALOG, st, "minbias")


def test_preference_unknown_dataset():
    with pytest.raises(UnknownDataset):
        get_preference(CATALOG, _station(), "nope")


# -- state transitions -------------------------------------------------------------

def _reference_step(st, step):
    """One step, as a copy built by `dataclasses.replace`: "enqueue",
    "dequeue", or ("cache", file name). The reference for `apply_event`'s
    counted steps, which it does not call."""
    if step == "enqueue":
        return dataclasses.replace(st, input_queue_depth=st.input_queue_depth + 1)
    if step == "dequeue":
        if st.input_queue_depth == 0:
            raise IllegalTransition("input queue is empty")
        return dataclasses.replace(st, input_queue_depth=st.input_queue_depth - 1)
    return dataclasses.replace(st, cached_files=st.cached_files | {step[1]})


def _one_at_a_time(st, enqueued, dequeued, cached):
    """The counted step (enqueued, dequeued, cached) as single reference steps."""
    steps = ["enqueue"] * enqueued + ["dequeue"] * dequeued + [("cache", f) for f in cached]
    for step in steps:
        st = _reference_step(st, step)
    return st


def test_apply_event_queues():
    st = _station()
    st2 = apply_event(apply_event(st, 1), 1)
    assert st2.input_queue_depth == 2
    assert apply_event(st2, 0, 1).input_queue_depth == 1
    assert apply_event(st, 5, 3).input_queue_depth == 2
    # originals are untouched, and no step moves the output queue
    assert st.input_queue_depth == 0
    assert st2.output_queue_depth == 0
    assert apply_event(_station(output_queue_depth=3), 1, 1).output_queue_depth == 3


def test_apply_event_cache():
    st = apply_event(_station(), cached=["raw000"])
    assert "raw000" in st.cached_files
    # adding an already-cached file is a no-op
    assert apply_event(st, cached=["raw000"]).cached_files == st.cached_files
    assert apply_event(st, cached=["raw001"]).cached_files == {"raw000", "raw001"}
    assert apply_event(st, 0, 0, ("raw001", "raw001", "mb000")).cached_files == {
        "raw000", "raw001", "mb000"}
    assert st.cached_files == {"raw000"}


def test_apply_event_batch_equals_one_step_at_a_time():
    rng = random.Random(3)
    names = ["raw000", "raw001", "mb000"]
    states = [_station(cached_files={"raw000"}, input_queue_depth=1)]
    for _ in range(300):
        start = rng.choice(states)
        counts = (rng.randrange(4), rng.randrange(4),
                  [rng.choice(names) for _ in range(rng.randrange(4))])
        try:
            expected = _one_at_a_time(start, *counts)
        except IllegalTransition:
            # the counted step checks the depth its dequeued steps reach
            with pytest.raises(IllegalTransition):
                apply_event(start, *counts)
            continue
        got = apply_event(start, *counts)
        assert got == expected
        # and so do single counted steps, taken in turn
        one = start
        enqueued, dequeued, cached = counts
        for step in [(1,)] * enqueued + [(0, 1)] * dequeued + [(0, 0, [f]) for f in cached]:
            one = apply_event(one, *step)
        assert one == got
        states.append(got)
    assert apply_event(_station()) == _station()


def test_apply_event_builds_what_replace_builds():
    # the successor skips __post_init__ yet equals the re-validated copy
    st = _station(output_destination="FNAL", expected_output_bytes=10,
                  cached_files={"raw000"}, input_queue_depth=2)
    got = apply_event(st, 1, 2, ["raw001"])
    want = dataclasses.replace(st, input_queue_depth=1,
                               cached_files={"raw000", "raw001"})
    assert got == want
    assert type(got.cached_files) is frozenset
    assert st.input_queue_depth == 2 and st.cached_files == {"raw000"}
    assert apply_event(st) == st and apply_event(st) is not st


def test_apply_event_underflow_and_unknown():
    with pytest.raises(IllegalTransition):
        apply_event(_station(), 0, 1)
    with pytest.raises(IllegalTransition):
        apply_event(_station(input_queue_depth=1), 0, 2)
    # the enqueued requests count before the dequeued ones leave
    assert apply_event(_station(), 2, 2).input_queue_depth == 0
    with pytest.raises(IllegalTransition):
        apply_event(_station(), 1, 2)
    # a count that is not a nonnegative integer is no step: a negative one
    # would dequeue, a fraction or a boolean would leave a depth no queue has
    for counts in ((-1, 0), (0, -1), (0.5, 0), (0, 1.0), (True, 0), (0, False), ("1", 0)):
        with pytest.raises(IllegalTransition):
            apply_event(_station(input_queue_depth=3), *counts)


# -- the query protocol --------------------------------------------------------------

def test_handle_get_preference():
    st = _station(cached_files={"raw000"})
    reply = handler(CATALOG, st)({"type": "GET_PREFERENCE", "id": 4,
                                  "dataset": "dzero-run2"})
    assert reply["id"] == 4
    assert reply["result"]["score"] == -70.0
    assert reply["result"]["missing_bytes"] == 2_500_000_000


def test_handle_lookup():
    st = _station(cached_files={"raw002"})
    reply = handler(CATALOG, st)({"type": "LOOKUP", "id": "a",
                                  "dataset": "dzero-run2"})
    assert reply["id"] == "a"
    assert [f["file"] for f in reply["result"]["present"]] == ["raw002"]
    assert [f["file"] for f in reply["result"]["missing"]] == ["raw000", "raw001"]
    assert reply["result"]["missing"][0] == {"file": "raw000",
                                             "size": 2_000_000_000,
                                             "source": "FNAL"}


@pytest.mark.parametrize("msg,code", [
    ({"type": "GET_PREFERENCE", "id": 1, "dataset": "nope"}, "unknown-dataset"),
    ({"type": "LOOKUP", "id": 1, "dataset": "nope"}, "unknown-dataset"),
    ({"type": "GET_PREFERENCE", "id": 1, "dataset": 7}, "malformed"),
    ({"type": "GET_PREFERENCE", "id": 1}, "malformed"),
    ({"type": "GET_PREFERENCE", "dataset": "minbias"}, "malformed"),
    ({"id": 1, "dataset": "minbias"}, "malformed"),
    ({"type": "RESTART", "id": 1, "dataset": "minbias"}, "unsupported"),
    ({"type": "GET_PREFERENCE", "id": 1, "dataset": "minbias",
      "output_bytes": -5}, "malformed"),
])
def test_handle_message_errors(msg, code):
    reply = handler(CATALOG, _station())(msg)
    assert reply["error"]["code"] == code
    assert reply.get("id") == msg.get("id")


def _not_json(token):
    raise AssertionError(f"reply holds {token}, which is not JSON")


def test_hostile_output_bytes_are_malformed_over_the_wire():
    # NaN and 1e309 once came back as NaN and -Infinity, which are not JSON,
    # and true as one byte
    st = _station(links={"FNAL": 1e-3, "CDF": 1e7}, output_destination="FNAL")
    server = wire.LineServer("127.0.0.1", 0, handler(CATALOG, st))
    server.serve_in_thread()
    try:
        # a line holding a non-finite number is not JSON: malformed, no id
        with socket.create_connection(("127.0.0.1", server.port), timeout=5.0) as sock:
            f = sock.makefile("rwb")
            for token in (b"NaN", b"Infinity", b"-Infinity", b"1e309"):
                f.write(b'{"type": "GET_PREFERENCE", "id": 1, "dataset": "minbias", '
                        b'"output_bytes": %s}\n' % token)
                f.flush()
                reply = json.loads(f.readline(), parse_constant=_not_json)
                assert (reply["id"], reply["error"]["code"]) == (None, "malformed"), token
        with wire.Connection("127.0.0.1", server.port) as conn:
            def ask(output_bytes):
                reply = conn.request({"type": "GET_PREFERENCE", "dataset": "minbias",
                                      "output_bytes": output_bytes})
                json.dumps(reply, allow_nan=False)
                return reply
            for hostile in (True, False, "5", [5], -5, 10 ** 400, 1e308):
                assert ask(hostile)["error"]["code"] == "malformed", hostile
            assert ask(1000)["result"]["output_seconds"] == 1e6
            assert ask(0.0)["result"]["output_seconds"] == 0.0
    finally:
        server.shutdown()
        server.server_close()


def test_handle_no_route_error():
    st = _station(links={"FNAL": 1e8})
    reply = handler(CATALOG, st)({"type": "GET_PREFERENCE", "id": 2,
                                  "dataset": "dzero-run2"})
    assert reply["error"]["code"] == "no-route"


def test_queries_never_mutate():
    st = _station(cached_files={"raw000"}, input_queue_depth=1)
    before = (st.cached_files, st.input_queue_depth, dict(st.links))
    handle = handler(CATALOG, st)
    for msg in ({"type": "GET_PREFERENCE", "id": 1, "dataset": "dzero-run2"},
                {"type": "LOOKUP", "id": 2, "dataset": "minbias"},
                {"type": "GET_PREFERENCE", "id": 3, "dataset": "nope"}):
        handle(msg)
    assert (st.cached_files, st.input_queue_depth, dict(st.links)) == before


# -- construction from a site configuration -------------------------------------------

def test_station_from_config():
    node = read_tree(
        "<station name='durin' mean_service_seconds='2.5'>"
        "<link to='FNAL' bandwidth_bytes_per_second='100000000.0'/>"
        "<link to='CDF' bandwidth_bytes_per_second='10000000.0'/>"
        "</station>")
    st = station_from_config(node)
    assert st.station_id == "durin"
    assert st.mean_service_seconds == 2.5
    assert st.links == {"FNAL": 1e8, "CDF": 1e7}
    assert st.input_queue_depth == 0 and st.cached_files == frozenset()


def test_station_from_config_fixture_merge():
    node = read_tree(
        "<station name='durin'>"
        "<link to='FNAL' bandwidth_bytes_per_second='100000000.0'/>"
        "</station>")
    st = station_from_config(node, fixture={
        "cached_files": ["raw000"],
        "input_queue_depth": 4,
        "links": {"CDF": 1e7},
        "output_destination": "CDF",
    })
    assert st.cached_files == frozenset({"raw000"})
    assert st.input_queue_depth == 4
    assert st.links == {"FNAL": 1e8, "CDF": 1e7}  # fixture links extend config links
    assert st.output_destination == "CDF"
    # and override the config's link of the same name
    assert station_from_config(node, {"links": {"FNAL": 5e7}}).links == {"FNAL": 5e7}


@pytest.mark.parametrize("spelled", [
    "1_000", "\u0661\u0665", "+15", "015", "-15", "NaN", "Infinity", "1e400", "fifteen", "",
])
@pytest.mark.parametrize("element, attr", [
    ("station", "mean_service_seconds"), ("station", "expected_output_bytes"),
    ("link", "bandwidth_bytes_per_second"),
])
def test_a_station_number_is_read_as_json_spells_it(element, attr, spelled):
    # read by `wire.number_text`: float() and int() took the first five
    # spellings, and the -15 and inf they gave were refused only later
    base = {"station": {"name": "durin", "output_destination": "FNAL"},
            "link": {"to": "FNAL", "bandwidth_bytes_per_second": "1e8"}}

    def station(value):
        attrs = {**base, element: {**base[element], attr: value}}
        return TreeNode("station", attrs["station"], [TreeNode("link", attrs["link"])])

    fields = config_fields(station(" 15 "))  # space around it is ignored
    assert (fields["links"]["FNAL"] if element == "link" else fields[attr]) == 15
    with pytest.raises(ValueError) as exc:
        config_fields(station(spelled))
    assert str(exc.value) == (f"<{element}> {attr}={spelled!r} is not a "
                              f"{'whole ' if attr == 'expected_output_bytes' else ''}number")


def test_station_from_golden_slice():
    stations = read_tree(fixture_text("stations_golden.xml"))
    by_name = {n.attributes["name"]: station_from_config(n)
               for n in stations.children}
    assert by_name["durin"].links == {"FNAL": 1e8, "CDF": 1e7}
    assert by_name["gimli"].links == {"FNAL": 5e7}
    assert by_name["durin"].mean_service_seconds == 1.0


# -- score structure across random stations --------------------------------------------

def _random_setup(rng):
    sites = ["A", "B", "C"]
    n = rng.randrange(1, 7)
    files = [(f"f{i:03d}", rng.randrange(1, 50) * 10_000_000, rng.choice(sites))
             for i in range(n)]
    cat = DatasetCatalog({"d": files})
    cached = {f[0] for f in files if rng.random() < 0.4}
    out_bytes = rng.choice([0, 0, 250_000_000])
    st = StationState(
        station_id=f"s{rng.randrange(100)}",
        cached_files=cached,
        input_queue_depth=rng.randrange(4),
        output_queue_depth=rng.randrange(3),
        mean_service_seconds=rng.choice([0.5, 1.0, 4.0]),
        links={s: rng.choice([1e7, 5e7, 1e8]) for s in sites},
        output_destination="A",
        expected_output_bytes=out_bytes,
    )
    return cat, st, files, cached


def test_preference_monotone_and_exact_over_random_stations():
    rng = random.Random(1234)
    for _ in range(200):
        cat, st, files, cached = _random_setup(rng)
        report = get_preference(cat, st, "d")
        assert math.isfinite(report.score)
        assert report.score <= 0.0
        # independent re-summation in catalog order reproduces the score bitwise
        transfer = 0.0
        for name, size, src in files:
            if name not in cached:
                transfer += size / st.links[src]
        expect = -(transfer
                   + st.input_queue_depth * st.mean_service_seconds
                   + st.output_queue_depth * st.mean_service_seconds
                   + (st.expected_output_bytes / st.links["A"]
                      if st.expected_output_bytes else 0.0))
        assert report.score == expect

        # caching one more file never lowers the preference
        missing_names = [f[0] for f in files if f[0] not in cached]
        if missing_names:
            extra = rng.choice(missing_names)
            better = apply_event(st, cached=[extra])
            assert get_preference(cat, better, "d").score >= report.score

        # a shorter input queue never lowers it either
        if st.input_queue_depth > 0:
            drained = apply_event(st, 0, 1)
            assert get_preference(cat, drained, "d").score >= report.score

        # doubling every link bandwidth never lowers it
        faster = StationState(
            station_id=st.station_id, cached_files=st.cached_files,
            input_queue_depth=st.input_queue_depth,
            output_queue_depth=st.output_queue_depth,
            mean_service_seconds=st.mean_service_seconds,
            links={s: bw * 2 for s, bw in st.links.items()},
            output_destination=st.output_destination,
            expected_output_bytes=st.expected_output_bytes)
        assert get_preference(cat, faster, "d").score >= report.score


# -- the shortfall memo ------------------------------------------------------------------

def _reference_preference(cat, st, dataset, output_bytes=None) -> tuple:
    """`get_preference` without the memo, as it was stated before it: every
    question walks the dataset's files."""
    _, missing = lookup_dataset(cat, st, dataset)
    transfer = 0.0
    missing_bytes = 0
    for f in missing:
        bw = st.links.get(f.source_site)
        if bw is None:
            raise NoRouteToSource(f.source_site)
        transfer += f.size_bytes / bw
        missing_bytes += f.size_bytes
    wait = st.input_queue_depth * st.mean_service_seconds
    out_bytes = st.expected_output_bytes if output_bytes is None else output_bytes
    output = st.output_queue_depth * st.mean_service_seconds
    if out_bytes:
        if not st.output_destination:
            raise NoRouteToSource("output")
        output += out_bytes / st.links[st.output_destination]
    score = -(transfer + wait + output)
    if not math.isfinite(score):
        raise ScoreOverflow(dataset)
    return (score, missing_bytes, transfer, wait, output)


def _bits(fields: tuple) -> tuple:
    """Each float by its bits, so that 0.0 and -0.0 differ; integers as they are."""
    return tuple(x.hex() if isinstance(x, float) else (type(x), x) for x in fields)


def _answer_or_error(ask, *args):
    try:
        return _bits(tuple(ask(*args)))
    except (UnknownDataset, NoRouteToSource, ScoreOverflow) as exc:
        return type(exc)


def _random_catalog(rng, sites, names):
    return DatasetCatalog({
        f"d{k}": [(name, rng.choice([1, 7, 10 ** 6, rng.randrange(1, 10 ** 12), 2 ** 53]),
                   rng.choice(sites))
                  for name in rng.sample(names, rng.randrange(0, 6))]
        for k in range(rng.randrange(1, 4))})


@settings(max_examples=200, deadline=None)
@given(strategies.integers(0, 2 ** 32 - 1))
def test_the_memo_answers_what_walking_the_files_answers(seed):
    rng = random.Random(seed)
    sites = ["A", "B", "C", "D"]
    names = [f"f{i}" for i in range(8)]
    # two catalogs that name the same datasets with other files: the memo
    # keys by catalog too
    catalogs = [_random_catalog(rng, sites, names) for _ in range(2)]
    linked = rng.sample(sites, rng.randrange(1, 5))  # no link to the rest
    start = StationState(
        station_id="s", cached_files=rng.sample(names + ["other"], rng.randrange(0, 5)),
        input_queue_depth=rng.randrange(4), output_queue_depth=rng.randrange(3),
        mean_service_seconds=rng.choice([0.0, 0.5, 3.0, 1e300]),
        links={site: rng.choice([1e-300, 1e-3, 1.0, 1e7, rng.uniform(1, 1e9)])
               for site in linked},
        output_destination=rng.choice(["", linked[0]]),
        expected_output_bytes=rng.choice([0, 10 ** 9]) if linked else 0)
    states = [start]
    for _ in range(rng.randrange(1, 8)):
        counts = (rng.randrange(3), rng.randrange(3),
                  [rng.choice(names) for _ in range(rng.randrange(0, 4))])
        try:
            states.append(apply_event(rng.choice(states), *counts))
        except IllegalTransition:
            pass
        # ask the states in random order, the same question more than once,
        # and old states after their successors were asked
        for _ in range(rng.randrange(1, 10)):
            st, cat = rng.choice(states), rng.choice(catalogs)
            dataset = rng.choice(["d0", "d1", "d2", "nope"])
            out = rng.choice([None, None, 0, 5, 10 ** 12])
            want = _answer_or_error(_reference_preference, cat, st, dataset, out)
            assert _answer_or_error(get_preference, cat, st, dataset, out) == want
            if want is UnknownDataset:
                continue
            _, missing = lookup_dataset(cat, st, dataset)
            try:
                gap, _, gap_bytes = shortfall(cat, st, dataset)
            except NoRouteToSource:
                assert any(f.source_site not in st.links for f in missing)
                continue
            assert gap == tuple(missing)
            assert gap_bytes == sum(f.size_bytes for f in missing)


def test_a_state_shares_its_memo_only_with_states_of_the_same_cache():
    st = _station(cached_files={"raw000"})
    get_preference(CATALOG, st, "dzero-run2")
    assert list(st._shortfalls) == [(CATALOG, "dzero-run2")]
    for same in (apply_event(st, 1), apply_event(st, cached=["raw000"]),
                 apply_event(st, 1, 1, ["raw000", "raw000"])):
        assert same._shortfalls is st._shortfalls
    grown = apply_event(st, cached=["raw001"])
    assert grown._shortfalls == {} and st._shortfalls
    assert copy_state(st) == st and copy_state(st)._shortfalls == {}
    assert dataclasses.replace(st)._shortfalls == {}


def test_a_station_server_keeps_answers_only():
    # every answer it could keep is one per dataset of its catalog, whatever
    # its clients ask: unknown datasets and missing routes are not kept
    st = _station(links={"FNAL": 1e8})  # no link to CDF
    handle = handler(CATALOG, st)

    def ask(dataset):
        return handle({"type": "GET_PREFERENCE", "id": 1, "dataset": dataset})

    for k in range(1000):
        assert ask(f"unknown-{k}")["error"]["code"] == "unknown-dataset"
    for _ in range(3):
        assert ask("dzero-run2")["error"]["code"] == "no-route"
        assert ask("minbias")["error"]["code"] == "no-route"
    assert st._shortfalls == {}

    st = _station(cached_files={"raw000"})
    handle = handler(CATALOG, st)
    first = [ask(d) for d in ("dzero-run2", "minbias")]
    for k in range(1000):
        ask(f"unknown-{k}")
    assert [ask(d) for d in ("dzero-run2", "minbias")] == first
    assert first[0]["result"]["score"] == -70.0
    assert set(st._shortfalls) == {(CATALOG, "dzero-run2"), (CATALOG, "minbias")}
