"""Matchmaking pipeline and its wire service."""

import collections
import json
import logging
import math
import random
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from vogrid import matchmaker, wire
from vogrid.classads import ads as classads_ads
from vogrid.classads import (
    TRUE,
    AdKind,
    ClassAd,
    FnRegistry,
    Literal,
    ad_to_json,
    parse_classad,
    real,
    symmetric_match,
    text,
)
from vogrid.matchmaker import (
    AdStore,
    DirectoryQuery,
    IncompleteAd,
    MatchDecision,
    MatchmakerService,
    free_index,
    match_jobs,
    preauthorize,
    release,
    run_match_cycle,
    standard_registry,
)
from vogrid.station import DatasetCatalog, StationState, get_preference, handler

from conftest import BIG_PRODUCT, doubling_chain
from worldgen import SUBJECT_POOL, make_world, rank_each_ad, world_runtime

ALICE = "/C=US/O=demo/CN=alice"
BOB = "/C=US/O=demo/CN=bob"


def _res(ad_id, name, station, arch="Linux", extra=""):
    return parse_classad(
        f'Name = "{name}"\n'
        f'Gatekeeper = "gram://{name.lower()}.example.org:2119"\n'
        f'Station_ID = "{station}"\n'
        f'Architecture = "{arch}"\n' + extra,
        AdKind.RESOURCE, ad_id=ad_id)


def _job(ad_id, owner=ALICE, dataset="dzero-run2", extra=""):
    return parse_classad(
        f'Owner = "{owner}"\n'
        f'Dataset = "{dataset}"\n' + extra,
        AdKind.JOB, ad_id=ad_id)


def _store(*entries, gridmap=(ALICE,), ttl=3600.0, now=0.0):
    store = AdStore()
    for ad in entries:
        store.collect_ad(ad, gridmap, ttl, now)
    return store


def _run(store, jobs, env=None, **kw):
    return run_match_cycle(store, jobs, standard_registry(), env, **kw)


# -- the ad store ------------------------------------------------------------------

def test_snapshot_visibility_window():
    store = AdStore()
    store.collect_ad(_res("r1", "A", "st-a"), [ALICE], ttl_seconds=5.0, now=10.0)
    assert [s.ad.ad_id for s in store.snapshot(10.0)] == ["r1"]
    # an ad advertised with ttl 0 is never visible, even in the same instant
    store.collect_ad(_res("r2", "B", "st-b"), [ALICE], ttl_seconds=0.0, now=10.0)
    assert [s.ad.ad_id for s in store.snapshot(10.0)] == ["r1"]
    assert [s.ad.ad_id for s in store.snapshot(14.9)] == ["r1"]
    # expiry boundary is exclusive: at received_at + ttl the ad is gone
    assert store.snapshot(15.0) == []


def test_upsert_replaces_ad_and_gridmap():
    store = AdStore()
    store.collect_ad(_res("r1", "A", "st-a"), [ALICE, BOB], 100.0, now=0.0)
    store.collect_ad(_res("r2", "B", "st-b"), [ALICE], 100.0, now=0.0)
    store.collect_ad(_res("r1", "A2", "st-a"), [BOB], 100.0, now=50.0)
    snap = store.snapshot(60.0)
    # re-advertising refreshes the expiry but keeps the original position
    assert [s.ad.ad_id for s in snap] == ["r1", "r2"]
    assert snap[0].name == "A2"
    assert snap[0].received_at == 50.0
    assert snap[0].gridmap == frozenset({BOB})


def test_equal_bindings_and_gridmap_make_one_cluster():
    a1, a2 = _res("a1", "A", "s1"), _res("a2", "A", "s1")
    store = _store(a1, a2, _res("b", "B", "s2"))
    store.collect_ad(_res("a3", "A", "s1"), [BOB], 3600.0, 0.0)
    store.collect_ad(_res("a4", "A", "s1"), [ALICE], 5.0, 1.0)  # TTL does not count
    c = {s.ad.ad_id: s.cluster for s in store.snapshot(1.0)}
    assert c["a1"] is c["a2"] is c["a4"]
    assert c["b"] is not c["a1"]
    assert c["a3"] is not c["a1"]  # another gridmap
    # bindings are compared as trees; a Real zero keeps its sign
    zero, minus_zero = (ClassAd({"Name": Literal(text("Z")),
                                 "Gatekeeper": Literal(text("g")),
                                 "Station_ID": Literal(text("s")),
                                 "Weight": Literal(real(x))},
                                AdKind.RESOURCE, ad_id=f"z{x}") for x in (0.0, -0.0))
    store = _store(zero, minus_zero)
    assert len({id(s.cluster) for s in store.snapshot(0.0)}) == 2
    # a chain too deep to hash recursively still gets a cluster
    chain = " + ".join(["1"] * 3000)
    deep = [_res(f"d{i}", "D", "s1", extra=f"Weight = {chain}\n") for i in range(2)]
    store = _store(*deep)
    first, second = store.snapshot(0.0)
    assert first.cluster is second.cluster


def test_clusters_live_only_as_long_as_their_ads():
    store = AdStore()
    store.collect_ad(_res("a1", "A", "s1"), [ALICE], 5.0, 0.0)
    store.collect_ad(_res("a2", "A", "s1"), [ALICE], 3600.0, 0.0)
    cluster = weakref.ref(store.snapshot(0.0)[0].cluster)
    assert [s.ad.ad_id for s in store.snapshot(5.0)] == ["a2"]  # a1 expired
    assert cluster() is not None
    store.collect_ad(_res("a2", "A", "s1"), [BOB], 3600.0, 0.0)  # leaves the cluster
    assert cluster() is None


def test_collect_ad_requires_identity_attrs():
    store = AdStore()
    for missing in ("Name", "Gatekeeper", "Station_ID"):
        lines = [f'{n} = "x"' for n in ("Name", "Gatekeeper", "Station_ID")
                 if n != missing]
        bad = parse_classad("\n".join(lines) + "\n", AdKind.RESOURCE, ad_id="r")
        with pytest.raises(IncompleteAd):
            store.collect_ad(bad, [ALICE], 10.0, 0.0)
    # Name must evaluate to text, not merely exist
    bad = parse_classad('Name = 5\nGatekeeper = "g"\nStation_ID = "s"\n',
                        AdKind.RESOURCE, ad_id="r")
    with pytest.raises(IncompleteAd):
        store.collect_ad(bad, [ALICE], 10.0, 0.0)


def test_preauthorize():
    [stored] = _store(_res("r1", "A", "st-a"), gridmap=(ALICE,)).snapshot(0.0)
    assert preauthorize(ALICE, stored) is True
    assert preauthorize(BOB, stored) is False
    assert preauthorize(None, stored) is False  # a job whose Owner is not text


class _CountingHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def test_a_job_without_owner_logs_one_warning_per_match_request():
    # it once logged one warning per free cluster: 16 here
    service = MatchmakerService(clock=lambda: 0.0)
    for i in range(16):
        reply = service.handle_message(_advertise_msg(_res(f"r{i}", f"C{i}", "s1"))
                                       | {"id": i})
        assert reply["result"]["ok"]
    ownerless = parse_classad('Dataset = "d"\n', AdKind.JOB, ad_id="j")
    counter = _CountingHandler()
    logger = logging.getLogger("vogrid.matchmaker")
    logger.addHandler(counter)
    try:
        reply = service.handle_message({"type": "MATCH_REQUEST", "id": 99,
                                        "jobs": [ad_to_json(ownerless)]})
    finally:
        logger.removeHandler(counter)
    [decision] = reply["result"]["decisions"]
    assert decision["reason"] == "unauthorized-everywhere"
    assert len({id(s.cluster) for s in service.store.snapshot(0.0)}) == 16
    assert counter.messages == ["job j has no usable Owner; unauthorized everywhere"]


# -- decisions ----------------------------------------------------------------------

def test_match_decision_shapes():
    d = MatchDecision.match("j", "r", -3.5)
    assert d.matched and d.to_json() == {"job_id": "j", "outcome": "matched",
                                         "resource_id": "r", "rank": -3.5}
    n = MatchDecision.no_match("j", "no-candidates")
    assert not n.matched
    assert n.to_json() == {"job_id": "j", "outcome": "no-match",
                           "reason": "no-candidates"}
    with pytest.raises(ValueError):
        MatchDecision.match("j", "r", float("nan"))
    with pytest.raises(ValueError):
        MatchDecision.match("j", "r", float("inf"))


def test_rank_drop_rules():
    # the job ranks candidates by an attribute they carry; anything that is
    # not a finite number silently drops the candidate
    store = _store(
        _res("r-int", "C1", "s1", extra="Goodness = 5\n"),
        _res("r-text", "C2", "s2", extra='Goodness = "tall"\n'),
        _res("r-bool", "C3", "s3", extra="Goodness = true\n"),
        _res("r-missing", "C4", "s4"),
        _res("r-error", "C5", "s5", extra="Goodness = 1 / 0\n"),
        _res("r-inf", "C6", "s6", extra="Goodness = 1e308 * 10\n"),  # overflows: Error
    )
    [d] = _run(store, [_job("j", extra="Rank = OTHER.Goodness\n")])
    assert d.matched
    assert d.resource_id == "r-int"
    assert d.rank == 5.0


def test_rank_too_large_for_a_real_drops_the_candidate():
    # an Integer rank past float range is dropped like a non-finite one
    huge = "9" * 400
    store = _store(_res("r1", "A", "s1"))
    [d] = _run(store, [_job("j", extra=f"Rank = {huge}\n")])
    assert d.reason == "all-rank-error"
    store = _store(_res("r-huge", "A", "s1", extra=f"Goodness = {huge}\n"),
                   _res("r-five", "B", "s2", extra="Goodness = 5\n"))
    [d] = _run(store, [_job("j", extra="Rank = OTHER.Goodness\n")])
    assert (d.resource_id, d.rank) == ("r-five", 5.0)


def test_all_rank_error():
    store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
    [d] = _run(store, [_job("j", extra="Rank = OTHER.NoSuchAttr\n")])
    assert d.reason == "all-rank-error"


def test_default_rank_is_zero():
    store = _store(_res("r1", "A", "s1"))
    [d] = _run(store, [_job("j")])
    assert d.matched and d.rank == 0.0


def test_tie_breaks_on_name_bytes_then_id():
    # equal ranks: byte order of the Name decides, and uppercase sorts low
    store = _store(_res("r-za", "a-lower", "s1"), _res("r-ab", "B-upper", "s2"))
    [d] = _run(store, [_job("j")])
    assert d.resource_id == "r-ab"
    # identical names fall through to the ad id
    store = _store(_res("r-9", "same", "s1"), _res("r-1", "same", "s2"))
    [d] = _run(store, [_job("j")])
    assert d.resource_id == "r-1"


def test_tie_break_takes_a_name_with_a_lone_surrogate():
    # JSON can carry a lone surrogate, which has no UTF-8 encoding; code
    # point order still ranks it, past every character below U+D800
    service = MatchmakerService(clock=lambda: 0.0)
    for n, name in enumerate(("\ud800", "B")):
        ad = {"id": f"r{n}", "kind": "resource",
              "attrs": {"Name": f'"{name}"', "Gatekeeper": '"g"', "Station_ID": '"s"'}}
        service.handle_message({"type": "ADVERTISE", "id": n, "ad": ad,
                                "gridmap": [ALICE], "ttl": 10.0})
    reply = service.handle_message({"type": "MATCH_REQUEST", "id": 9,
                                    "jobs": [ad_to_json(_job("j"))]})
    assert reply["result"]["decisions"][0]["resource_id"] == "r1"


def test_higher_rank_beats_tiebreak():
    store = _store(
        _res("r1", "AAA", "s1", extra="Goodness = 1\n"),
        _res("r2", "ZZZ", "s2", extra="Goodness = 2\n"),
    )
    [d] = _run(store, [_job("j", extra="Rank = OTHER.Goodness\n")])
    assert d.resource_id == "r2" and d.rank == 2.0


def test_one_claim_per_cycle():
    store = _store(_res("r1", "A", "s1"))
    d1, d2 = _run(store, [_job("j1"), _job("j2")])
    assert d1.matched and d1.resource_id == "r1"
    assert d2.reason == "no-candidates"
    # two ads serve two jobs, FIFO order gets the better name first
    store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
    d1, d2 = _run(store, [_job("j1"), _job("j2")])
    assert (d1.resource_id, d2.resource_id) == ("r1", "r2")


def test_externally_claimed_ads_are_invisible():
    # an index the caller keeps across passes, as the simulator does: an ad
    # an earlier pass claimed stays invisible until it is released
    store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
    r1 = store.snapshot(0.0)[0]
    index = free_index(store.snapshot(0.0))
    reg = standard_registry()
    [d] = match_jobs(index, [_job("j1")], reg, None)
    assert d.resource_id == "r1"
    [d] = match_jobs(index, [_job("j2")], reg, None)
    assert d.resource_id == "r2"
    assert index == {}
    release(index, r1)
    [d] = match_jobs(index, [_job("j3")], reg, None)
    assert d.resource_id == "r1"


def test_no_match_reason_pipeline():
    # empty store
    [d] = _run(AdStore(), [_job("j")])
    assert d.reason == "no-candidates"
    # requirements screen out everything
    store = _store(_res("r1", "A", "s1", arch="OSF1"))
    [d] = _run(store, [_job("j", extra='Requirements = OTHER.Architecture == "Linux"\n')])
    assert d.reason == "no-candidates"
    # requirements pass, gridmap does not
    store = _store(_res("r1", "A", "s1"), gridmap=(BOB,))
    [d] = _run(store, [_job("j")])
    assert d.reason == "unauthorized-everywhere"
    # authorization beats ranking in the explanation
    store = _store(_res("r1", "A", "s1"), gridmap=(BOB,))
    [d] = _run(store, [_job("j", extra="Rank = OTHER.NoSuch\n")])
    assert d.reason == "unauthorized-everywhere"


def test_resource_side_requirements_are_honored():
    picky = 'Requirements = OTHER.Owner == "{}"\n'.format(ALICE)
    store = _store(_res("r1", "A", "s1", extra=picky))
    [d] = _run(store, [_job("j", owner=ALICE)])
    assert d.matched
    [d] = _run(store, [_job("j2", owner=BOB)], )
    # bob passes his own requirements but fails the resource's
    assert d.reason == "no-candidates"


# -- match-time station ranking ------------------------------------------------------

def _query_from(scores, calls=None):
    def query(dataset, station_id, output_bytes):
        if calls is not None:
            calls.append((dataset, station_id, output_bytes))
        result = scores[station_id]
        if isinstance(result, Exception):
            raise result
        return result
    return query


RANKED = 'Rank = fun(Dataset, OTHER.Station_ID)\n'


def test_fun_queries_stations_at_match_time():
    calls = []
    env = {"station_query": _query_from({"s1": -50.0, "s2": -5.0}, calls)}
    store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
    [d] = _run(store, [_job("j", extra=RANKED)], env=env)
    assert d.resource_id == "r2" and d.rank == -5.0
    assert sorted(calls) == [("dzero-run2", "s1", None), ("dzero-run2", "s2", None)]


def test_fun_passes_job_output_bytes():
    calls = []
    env = {"station_query": _query_from({"s1": -1.0}, calls)}
    store = _store(_res("r1", "A", "s1"))
    [d] = _run(store, [_job("j", extra=RANKED + "OutputBytes = 1000\n")], env=env)
    assert d.matched
    assert calls == [("dzero-run2", "s1", 1000)]


def test_negative_output_bytes_drops_candidate():
    env = {"station_query": _query_from({"s1": -1.0})}
    store = _store(_res("r1", "A", "s1"))
    [d] = _run(store, [_job("j", extra=RANKED + "OutputBytes = -4\n")], env=env)
    assert d.reason == "all-rank-error"


def test_a_bad_output_bytes_is_a_rank_error_at_every_cluster():
    # the checked OutputBytes is kept on the ad, a bad one never: each
    # cluster's Rank raises again, and no station is asked
    calls = []
    env = {"station_query": _query_from({"s1": -1.0, "s2": -2.0}, calls)}
    store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
    job = _job("j", extra=RANKED + "OutputBytes = -4\n")
    for _ in range(2):
        [d] = _run(store, [job], env=env)
        assert d.reason == "all-rank-error"
    assert calls == []


def test_station_failures_degrade_to_remaining_candidates():
    env = {"station_query": _query_from({"s1": RuntimeError("down"), "s2": -9.0})}
    store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
    [d] = _run(store, [_job("j", extra=RANKED)], env=env)
    assert d.resource_id == "r2"
    env = {"station_query": _query_from({"s1": RuntimeError("down"),
                                         "s2": RuntimeError("down")})}
    [d] = _run(store, [_job("j", extra=RANKED)], env=env)
    assert d.reason == "all-rank-error"


def test_fun_without_configured_query_drops():
    store = _store(_res("r1", "A", "s1"))
    [d] = _run(store, [_job("j", extra=RANKED)], env={})
    assert d.reason == "all-rank-error"


# -- ranking against live station servers ----------------------------------------------

CATALOG = DatasetCatalog({
    "dzero-run2": [("raw000", 2_000_000_000, "FNAL"),
                   ("raw001", 500_000_000, "CDF")],
})


class _Station(wire.LineServer):
    """A station server that keeps the connections it accepted and the ones
    it has finished serving (after the client closed, or `stop`)."""

    def __init__(self, st, auth_token=None, port=0, answer=None):
        handle = handler(CATALOG, st)
        super().__init__("127.0.0.1", port, handle if answer is None
                         else lambda msg: answer(handle, msg), auth_token=auth_token)
        self.accepted, self.finished = [], []
        self.serve_in_thread()

    def get_request(self):
        sock, addr = super().get_request()
        self.accepted.append(sock)
        return sock, addr

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.finished.append(request)

    def open_connections(self) -> int:
        return len(self.accepted) - len(self.finished)

    def stop(self):
        """Stop as a killed station would: its open connections close too."""
        self.shutdown()
        self.server_close()


def _eventually(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


DURIN = StationState("durin", links={"FNAL": 1e8, "CDF": 1e7})  # scores -70
BALIN = StationState("balin", links={"FNAL": 1e8, "CDF": 1e8})  # scores -25


def test_directory_query_against_live_station():
    server = _Station(DURIN)
    query = DirectoryQuery({"durin": ("127.0.0.1", server.port)})
    try:
        # 2e9/1e8 + 5e8/1e7 = 70 seconds of staging
        assert query("dzero-run2", "durin", None) == -70.0
        with pytest.raises(wire.WireError):
            query("unknown-set", "durin", None)
        with pytest.raises(KeyError):
            query("dzero-run2", "not-in-directory", None)
    finally:
        query.close()
        server.stop()


def test_directory_query_passes_auth():
    server = _Station(DURIN, auth_token="sesame")
    query = DirectoryQuery({"durin": ("127.0.0.1", server.port)}, auth_token="sesame")
    bare = DirectoryQuery({"durin": ("127.0.0.1", server.port)})
    try:
        assert query("dzero-run2", "durin", None) == -70.0
        with pytest.raises(wire.WireError):
            bare("dzero-run2", "durin", None)
    finally:
        query.close()
        bare.close()
        server.stop()


def test_queries_and_match_requests_share_one_connection():
    server = _Station(DURIN)
    query = DirectoryQuery({"durin": ("127.0.0.1", server.port)})
    service = MatchmakerService(station_query=query, clock=lambda: 0.0)
    service.store.collect_ad(_res("r1", "A", "durin"), [ALICE], 3600.0, 0.0)
    match_msg = {"type": "MATCH_REQUEST", "id": 1,
                 "jobs": [ad_to_json(_job("j", extra=RANKED))]}
    try:
        for _ in range(10):
            assert query("dzero-run2", "durin", None) == -70.0
            [decision] = service.handle_message(match_msg)["result"]["decisions"]
            assert decision["rank"] == -70.0
        assert len(server.accepted) == 1
    finally:
        query.close()
        server.stop()


@pytest.mark.parametrize("reply", [{}, {"error": "x"}, {"error": {"code": 1, "message": "m"}}],
                         ids=["neither", "error-text", "code-not-text"])
def test_a_station_reply_of_another_shape_is_a_wire_error(reply):
    # the first was a KeyError, the second an AttributeError
    server = _Station(DURIN, answer=lambda handle, msg: {"id": msg["id"], **reply})
    query = DirectoryQuery({"durin": ("127.0.0.1", server.port)})
    try:
        with pytest.raises(wire.WireError):
            query("dzero-run2", "durin", None)
    finally:
        query.close()
        server.stop()


def test_an_error_reply_keeps_the_connection():
    server = _Station(DURIN)
    query = DirectoryQuery({"durin": ("127.0.0.1", server.port)})
    try:
        with pytest.raises(wire.WireError, match="unknown-set"):
            query("unknown-set", "durin", None)
        assert query("dzero-run2", "durin", None) == -70.0
        assert len(server.accepted) == 1
    finally:
        query.close()
        server.stop()


def test_a_restarted_station_is_reached_through_one_retry():
    server = _Station(DURIN)
    port = server.port
    query = DirectoryQuery({"durin": ("127.0.0.1", port)})
    try:
        assert query("dzero-run2", "durin", None) == -70.0
        server.stop()
        # the same address, with the state it came back with
        server = _Station(BALIN, port=port)
        assert query("dzero-run2", "durin", None) == -25.0
        assert query("dzero-run2", "durin", None) == -25.0
        assert len(server.accepted) == 1
    finally:
        query.close()
        server.stop()


def test_a_timed_out_connection_is_dropped_not_retried(monkeypatch):
    monkeypatch.setattr(matchmaker, "QUERY_TIMEOUT_SECONDS", 0.2)
    slow = threading.Event()

    def answer(handle, msg):
        if slow.is_set():
            time.sleep(0.5)
        return handle(msg)

    server = _Station(DURIN, answer=answer)
    query = DirectoryQuery({"durin": ("127.0.0.1", server.port)})
    try:
        assert query("dzero-run2", "durin", None) == -70.0
        slow.set()
        with pytest.raises(TimeoutError):
            query("unknown-set", "durin", None)
        assert len(server.accepted) == 1  # no retry
        slow.clear()
        # a fresh connection, not the old one with the late error reply on it
        assert query("dzero-run2", "durin", None) == -70.0
        assert len(server.accepted) == 2
    finally:
        query.close()
        server.stop()


def test_concurrent_queries_open_their_own_connections_and_keep_one():
    threads = 4
    barrier = threading.Barrier(threads)
    together = threading.Event()

    def answer(handle, msg):  # the first queries wait until all are in flight
        if not together.is_set():
            barrier.wait(timeout=5)
        return handle(msg)

    server = _Station(DURIN, answer=answer)
    query = DirectoryQuery({"durin": ("127.0.0.1", server.port)})
    scores = []
    workers = [threading.Thread(
        target=lambda: scores.append(query("dzero-run2", "durin", None)))
        for _ in range(threads)]
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        assert scores == [-70.0] * threads
        assert len(server.accepted) == threads
        _eventually(lambda: server.open_connections() == 1)
        together.set()
        assert query("dzero-run2", "durin", None) == -70.0
        assert len(server.accepted) == threads  # over the one kept
    finally:
        query.close()
        server.stop()


def test_a_station_connection_is_never_shared_between_threads():
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    servers = {"durin": _Station(DURIN), "balin": _Station(BALIN)}
    want = {"durin": -70.0, "balin": -25.0}
    query = DirectoryQuery({sid: ("127.0.0.1", s.port) for sid, s in servers.items()})
    wrong = []

    def ask_many(k):
        for i in range(60):
            sid = ("durin", "balin")[(i + k) % 2]
            score = query("dzero-run2", sid, None)
            if score != want[sid]:
                wrong.append((sid, score))

    workers = [threading.Thread(target=ask_many, args=(k,)) for k in range(8)]
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(switch_interval)
    try:
        assert not any(w.is_alive() for w in workers)
        assert wrong == []
        for sid, server in servers.items():
            _eventually(lambda: server.open_connections() == 1)
            accepted = len(server.accepted)
            assert query("dzero-run2", sid, None) == want[sid]
            assert len(server.accepted) == accepted  # over the one kept
    finally:
        query.close()
        for server in servers.values():
            server.stop()


def test_close_closes_every_pooled_connection():
    servers = {"durin": _Station(DURIN), "balin": _Station(BALIN)}
    query = DirectoryQuery({sid: ("127.0.0.1", s.port) for sid, s in servers.items()})
    try:
        assert query("dzero-run2", "durin", None) == -70.0
        assert query("dzero-run2", "balin", None) == -25.0
        query.close()
        for server in servers.values():
            _eventually(lambda: server.open_connections() == 0)
            assert len(server.accepted) == 1
    finally:
        query.close()
        for server in servers.values():
            server.stop()


# -- the wire service -------------------------------------------------------------------

def _advertise_msg(ad, gridmap=(ALICE,), ttl=3600.0):
    return {"type": "ADVERTISE", "ad": ad_to_json(ad),
            "gridmap": list(gridmap), "ttl": ttl}


def test_matchmaker_service_end_to_end():
    env_scores = {"s1": -40.0, "s2": -4.0}
    service = MatchmakerService(station_query=_query_from(env_scores),
                                clock=lambda: 0.0)
    server = wire.LineServer("127.0.0.1", 0, service.handle_message)
    server.serve_in_thread()
    try:
        with wire.Connection("127.0.0.1", server.port) as conn:
            for ad_id, name, station in (("r1", "A", "s1"), ("r2", "B", "s2")):
                reply = conn.request(_advertise_msg(_res(ad_id, name, station)))
                assert reply["result"] == {"ok": True, "ad_id": ad_id}
            reply = conn.request({"type": "MATCH_REQUEST",
                                  "jobs": [ad_to_json(_job("j1", extra=RANKED))]})
            [decision] = reply["result"]["decisions"]
            assert decision == {"job_id": "j1", "outcome": "matched",
                                "resource_id": "r2", "rank": -4.0}
    finally:
        server.shutdown()
        server.server_close()


def test_matchmaker_service_error_codes():
    service = MatchmakerService(clock=lambda: 0.0)
    incomplete = parse_classad('Name = "A"\n', AdKind.RESOURCE, ad_id="r")
    reply = service.handle_message(_advertise_msg(incomplete) | {"id": 1})
    assert reply["error"]["code"] == "incomplete-ad"
    reply = service.handle_message({"type": "ADVERTISE", "id": 2, "ad": ["not a dict"]})
    assert reply["error"]["code"] == "malformed"
    reply = service.handle_message({"type": "ADVERTISE", "id": 3,
                                    "ad": ad_to_json(_res("r", "A", "s")),
                                    "gridmap": "not-a-list"})
    assert reply["error"]["code"] == "malformed"
    reply = service.handle_message({"type": "MATCH_REQUEST", "id": 4, "jobs": [{}]})
    assert reply["error"]["code"] == "malformed"
    reply = service.handle_message({"type": "EVICT", "id": 5})
    assert reply["error"]["code"] == "unsupported"
    reply = service.handle_message({"no": "type"})
    assert reply["error"]["code"] == "malformed"


def test_a_doubling_chain_in_an_ad_is_answered_within_a_second():
    # with its chain 20 links deep this ad once held every MATCH_REQUEST for
    # seconds, and each further link doubled that
    service = MatchmakerService(clock=lambda: 0.0)
    hostile = _res("r1", "A", "s1", extra=doubling_chain(60) + "Requirements = A60 > 0\n")
    assert "result" in service.handle_message(_advertise_msg(hostile) | {"id": 1})
    start = time.perf_counter()
    reply = service.handle_message({"type": "MATCH_REQUEST", "id": 2,
                                    "jobs": [ad_to_json(_job("j1"))]})
    assert time.perf_counter() - start < 1.0
    assert reply["result"]["decisions"] == [
        {"job_id": "j1", "outcome": "no-match", "reason": "no-candidates"}]


def test_a_rank_of_big_integers_is_answered_at_once():
    service = MatchmakerService(clock=lambda: 0.0)
    assert "result" in service.handle_message(_advertise_msg(_res("r1", "A", "s1")) | {"id": 1})
    job = ad_to_json(_job("j1", extra=f"Rank = {BIG_PRODUCT}\n"))
    start = time.perf_counter()
    reply = service.handle_message({"type": "MATCH_REQUEST", "id": 2, "jobs": [job]})
    assert time.perf_counter() - start < 1.0
    assert reply["result"]["decisions"] == [
        {"job_id": "j1", "outcome": "no-match", "reason": "all-rank-error"}]


@pytest.mark.parametrize("gridmap", [[[1]], [{}], [5], [ALICE, 5]])
def test_advertise_gridmap_entries_must_be_text(gridmap):
    service = MatchmakerService(clock=lambda: 0.0)
    reply = service.handle_message({"type": "ADVERTISE", "id": 1,
                                    "ad": ad_to_json(_res("r", "A", "s")),
                                    "gridmap": gridmap})
    assert reply["error"]["code"] == "malformed"
    assert service.store.snapshot(0.0) == []


@pytest.mark.parametrize("ttl", [True, "7", math.nan, -5, math.inf, 10 ** 400])
def test_advertise_ttl_must_be_a_finite_nonnegative_number(ttl):
    # each was once read by float(): true as 1 s, "7" as 7 s, Infinity as forever
    service = MatchmakerService(clock=lambda: 0.0)
    reply = service.handle_message(_advertise_msg(_res("r", "A", "s"), ttl=ttl) | {"id": 1})
    assert reply["error"]["code"] == "malformed"
    assert service.store.snapshot(0.0) == []


@pytest.mark.parametrize("ad_id", [5, 1.5, True, None, math.inf, [], ["r"], {}])
def test_an_ad_id_that_is_not_text_is_malformed(ad_id):
    # an id of 5 stored beside a text id once broke every later MATCH_REQUEST
    # in free_index's sort, and [] or {} broke the ADVERTISE itself
    service = MatchmakerService(clock=lambda: 0.0)
    assert "result" in service.handle_message(_advertise_msg(_res("r1", "A", "s")) | {"id": 1})
    bad_ad = ad_to_json(_res("r2", "B", "s")) | {"id": ad_id}
    reply = service.handle_message(_advertise_msg(_res("r2", "B", "s")) | {"id": 2, "ad": bad_ad})
    assert reply["error"]["code"] == "malformed"
    job = ad_to_json(_job("j"))
    reply = service.handle_message({"type": "MATCH_REQUEST", "id": 3,
                                    "jobs": [job | {"id": ad_id}]})
    assert reply["error"]["code"] == "malformed"
    json.dumps(reply, allow_nan=False)
    reply = service.handle_message({"type": "MATCH_REQUEST", "id": 4, "jobs": [job]})
    assert [d["resource_id"] for d in reply["result"]["decisions"]] == ["r1"]


def test_an_advertise_of_a_job_ad_is_malformed():
    # such an ad was once stored, and matched as a slot
    service = MatchmakerService(clock=lambda: 0.0)
    msg = _advertise_msg(_res("r1", "A", "s")) | {"id": 1}
    reply = service.handle_message(msg | {"ad": msg["ad"] | {"kind": "job"}})
    assert reply["error"]["code"] == "malformed"
    assert "'job'" in reply["error"]["message"]
    assert service.store.snapshot(0.0) == []


def test_a_match_request_for_a_resource_ad_is_malformed():
    # such a request was once answered with a decision
    service = MatchmakerService(clock=lambda: 0.0)
    assert "result" in service.handle_message(_advertise_msg(_res("r1", "A", "s")) | {"id": 1})
    resource_kind = ad_to_json(_job("j")) | {"kind": "resource"}
    reply = service.handle_message({"type": "MATCH_REQUEST", "id": 2, "jobs": [resource_kind]})
    assert reply["error"]["code"] == "malformed"
    assert "'resource'" in reply["error"]["message"]


def test_matchmaker_service_respects_ttl_clock():
    now = {"t": 0.0}
    service = MatchmakerService(clock=lambda: now["t"])
    service.handle_message(_advertise_msg(_res("r1", "A", "s1"), ttl=10.0) | {"id": 1})
    job_msg = {"type": "MATCH_REQUEST", "id": 2, "jobs": [ad_to_json(_job("j"))]}
    [d] = service.handle_message(job_msg)["result"]["decisions"]
    assert d["outcome"] == "matched"
    now["t"] = 10.0
    [d] = service.handle_message(job_msg | {"id": 3})["result"]["decisions"]
    assert d == {"job_id": "j", "outcome": "no-match", "reason": "no-candidates"}


def test_expired_ads_leave_the_store_and_the_cluster_table():
    # a long-lived matchmaker must not keep, and rescan, every ad that expired
    now = {"t": 0.0}
    service = MatchmakerService(clock=lambda: now["t"])
    # names no other test advertises: a cluster is interned by its bindings
    for i, name in enumerate(["expiring-A", "expiring-A", "expiring-B"]):
        service.handle_message(_advertise_msg(_res(f"r{i}", name, "s1"), ttl=1.0)
                               | {"id": i})
    clusters = [weakref.ref(s.cluster) for s in service.store._ads.values()]
    assert len(service.store._ads) == 3 and len({c() for c in clusters}) == 2
    now["t"] = 1.0
    job_msg = {"type": "MATCH_REQUEST", "id": 9, "jobs": [ad_to_json(_job("j"))]}
    [d] = service.handle_message(job_msg)["result"]["decisions"]
    assert d["reason"] == "no-candidates"
    assert len(service.store._ads) == 0 and all(c() is None for c in clusters)


# -- the lazy pipeline ---------------------------------------------------------------

def _rescan_cycle(store, jobs, reg, env, now, claimed, choose):
    """Reference pipeline: every job rescans every visible ad, start to end."""
    claimed = set(claimed)
    visible = store.snapshot(now)
    decisions = []
    for job in jobs:
        available = [s for s in visible if s.ad.ad_id not in claimed]
        candidates = [s for s in available if symmetric_match(job, s.ad, reg, env)]
        if not candidates:
            decisions.append(MatchDecision.no_match(job.ad_id, "no-candidates"))
            continue
        authorized = [s for s in candidates if preauthorize(job.self_text("Owner"), s)]
        if not authorized:
            decisions.append(MatchDecision.no_match(job.ad_id, "unauthorized-everywhere"))
            continue
        pick = choose(job, authorized, reg, env)
        if pick is None:
            decisions.append(MatchDecision.no_match(job.ad_id, "all-rank-error"))
            continue
        claimed.add(pick[0])
        decisions.append(MatchDecision.match(job.ad_id, *pick))
    return decisions


def _chooser(kind, seed, ad_ids, seen=None, reference=False):
    """A fresh chooser: the reference Rank argmax, or the simulator's two
    baselines.

    The pipeline's chooser is handed the authorized clusters' member lists;
    it checks their shape and flattens them, and returns its pick as
    (member, rank). The reference's is handed a flat list of ads, and
    returns (ad id, rank) to `_rescan_cycle`. With `seen`, it also records
    the ad ids it was offered, sorted, and the clusters each pick emptied.
    """
    if kind == "rank":
        def inner(job, authorized, reg, env):
            return rank_each_ad(job, [authorized], reg, env)
    else:
        rng = random.Random(seed)
        rotation, pointer = sorted(ad_ids), [0]

        def inner(job, authorized, reg, env):
            if kind == "random":
                ordered = sorted(authorized, key=lambda s: (s.name, s.ad.ad_id))
                return rng.choice(ordered), 0.0
            by_id = {s.ad.ad_id: s for s in authorized}
            for k in range(len(rotation)):
                ad_id = rotation[(pointer[0] + k) % len(rotation)]
                if ad_id in by_id:
                    pointer[0] = (pointer[0] + k + 1) % len(rotation)
                    return by_id[ad_id], 0.0

    def choose(job, offered, reg, env):
        if reference:
            authorized = offered
        else:
            # one list per cluster, each in ad id order
            assert len({id(m[0].cluster) for m in offered}) == len(offered)
            for members in offered:
                assert {id(s.cluster) for s in members} == {id(members[0].cluster)}
                ids = [s.ad.ad_id for s in members]
                assert ids == sorted(ids)
            authorized = [s for members in offered for s in members]
        pick = inner(job, authorized, reg, env)
        if seen is not None:
            seen.append(sorted(s.ad.ad_id for s in authorized))
            if not reference and pick is not None:
                seen.extend(["emptied"] * sum(len(m) == 1 and m[0] is pick[0]
                                              for m in offered))
        if reference and pick is not None:
            return pick[0].ad.ad_id, pick[1]
        return pick
    return choose


def _unclaimed(store, now, claimed):
    """A store of the ads of `store` visible at `now` and not in `claimed`."""
    free = AdStore()
    for s in store.snapshot(now):
        if s.ad.ad_id not in claimed:
            free.collect_ad(s.ad, s.gridmap, s.ttl_seconds, s.received_at)
    return free


def _twinned(rng, store):
    """The store's ads and copies of them under new ids, collected in a
    shuffled order: a copy has the same bindings, and maybe another
    gridmap or TTL. Members of one cluster end up apart in the free list,
    and out of ad id order."""
    entries = []
    for s in store.snapshot(0.0):
        entries.append((s.ad, s.gridmap, s.ttl_seconds))
        for k in range(rng.choice([0, 0, 1, 2, 3])):
            copy = ClassAd(dict(s.ad.items()), s.ad.kind, ad_id=f"{s.ad.ad_id}~{k}")
            gridmap = (s.gridmap if rng.random() < 0.5 else
                       rng.sample(SUBJECT_POOL, rng.randint(0, len(SUBJECT_POOL))))
            entries.append((copy, gridmap, rng.choice([1.0, 1.0, 0.5, 2.0])))
    rng.shuffle(entries)
    twinned = AdStore()
    for ad, gridmap, ttl in entries:
        twinned.collect_ad(ad, gridmap, ttl, 0.0)
    return twinned


def _readvertise(rng, store):
    """Re-advertise a few ads under their own ids between two cycles: with
    another ad's bindings, which moves them to its cluster, or with another
    gridmap, which takes them out of their own."""
    visible = store.snapshot(0.0)
    for s in rng.sample(visible, min(len(visible), rng.randint(1, 3))):
        model = rng.choice(visible)
        ad = ClassAd(dict(model.ad.items()), model.ad.kind, ad_id=s.ad.ad_id)
        gridmap = rng.choice([s.gridmap, model.gridmap,
                              rng.sample(SUBJECT_POOL, rng.randint(0, len(SUBJECT_POOL)))])
        store.collect_ad(ad, gridmap, s.ttl_seconds, 0.0)


def _out_of_id_order(store) -> bool:
    """Whether some cluster's members arrive in the snapshot out of ad id order."""
    arrival = collections.defaultdict(list)
    for s in store.snapshot(0.0):
        arrival[id(s.cluster)].append(s.ad.ad_id)
    return any(ids != sorted(ids) for ids in arrival.values())


def test_match_cycle_equals_the_rescanning_pipeline():
    exhausted = shared = unordered = emptied = readvertised = 0
    for seed in range(300):
        rng = random.Random(seed)
        rt = world_runtime(make_world(rng))
        store = rt["store"] if seed < 150 else _twinned(rng, rt["store"])
        jobs = rt["jobs"] * rng.randint(1, 4)  # often more jobs than slots
        now = rng.choice([0.0, 0.0, 0.0, 0.75, 1.0, 1.5])  # TTLs 0.5, 1 and 2
        for cycle in range(2):
            if cycle:  # a re-advertisement between two cycles
                before = {s.ad.ad_id: s.cluster for s in store.snapshot(0.0)}
                _readvertise(rng, store)
                readvertised += any(before[s.ad.ad_id] is not s.cluster
                                    for s in store.snapshot(0.0))
            visible = store.snapshot(0.0)
            ad_ids = [s.ad.ad_id for s in visible]
            shared += len({id(s.cluster) for s in visible}) < len(visible)
            unordered += _out_of_id_order(store)
            claimed = set(rng.sample(ad_ids, rng.randint(0, len(ad_ids))))
            free = _unclaimed(store, now, claimed)
            reg, env = rt["registry"], rt["env"]
            for kind in ("rank", "random", "round-robin"):
                offered, offered_ref = [], []
                want = _rescan_cycle(store, jobs, reg, env, now, claimed,
                                     _chooser(kind, seed, ad_ids, offered_ref, reference=True))
                reached = list(match_jobs(free_index(free.snapshot(now)), jobs, reg, env,
                                          _chooser(kind, seed, ad_ids, offered)))
                assert reached == want[:len(reached)]
                assert all(d.reason == "no-candidates" for d in want[len(reached):])
                emptied += offered.count("emptied")
                # every authorized ad, job by job
                assert [o for o in offered if o != "emptied"] == offered_ref
                exhausted += len(reached) < len(jobs)
                if kind == "rank":  # and match_jobs' own Rank argmax
                    assert run_match_cycle(free, jobs, reg, env, now) == want
    assert exhausted > 200  # the pool ran out before the jobs did
    assert shared > 400  # most worlds had clusters of more than one ad
    assert unordered > 100  # ... whose members arrived out of ad id order
    assert emptied > 1000  # claims took a cluster's last free ad mid-cycle
    assert readvertised > 100  # and re-advertising moved ads between clusters


def test_each_job_evaluates_once_per_resource_cluster():
    def seen(args, self_ad, other_ad, env):
        env["seen"].append((self_ad.ad_id, args[0].data))
        return TRUE if args[0].data == "requirements" else real(len(args[1].data))

    reg = standard_registry().register("seen", 2, seen, reads=())
    store = _store(*[_res(f"a{i}", "AAAA", "s1") for i in range(3)],
                   *[_res(f"b{i}", "BB", "s2") for i in range(2)])
    for i in range(2):  # A's bindings under another gridmap: a third cluster
        store.collect_ad(_res(f"x{i}", "AAAA", "s1"), [BOB], 3600.0, 0.0)
    extra = ('Requirements = seen("requirements", OTHER.Name)\n'
             'Rank = seen("rank", OTHER.Name)\n')
    env = {"seen": []}
    jobs = [_job(f"j{i}", extra=extra) for i in range(6)]
    decisions = run_match_cycle(store, jobs, reg, env)
    # the three a's rank 4 and go first, then the two b's; alice may not use x
    assert [d.resource_id for d in decisions] == ["a0", "a1", "a2", "b0", "b1", None]
    assert decisions[-1].reason == "unauthorized-everywhere"
    counts = collections.Counter(env["seen"])
    # authorization comes first: x's Requirements are read only for j5,
    # to tell unauthorized-everywhere from no-candidates
    assert [counts[f"j{i}", "requirements"] for i in range(6)] == [2, 2, 2, 1, 1, 1]
    assert [counts[f"j{i}", "rank"] for i in range(6)] == [2, 2, 2, 1, 1, 0]


def _burst_like(clusters, slots):
    """A store of `clusters` site clusters of `slots` slots each, one station
    and architecture per cluster, all open to alice: the sim-burst layout."""
    store = AdStore()
    for c in range(clusters):
        for k in range(slots):
            ad = _res(f"site{c}/batch#{k + 1}", f"site{c}/batch", f"st{c}",
                      arch=("Linux", "OSF1")[c % 2])
            store.collect_ad(ad, [ALICE], 3600.0, 0.0)
    return store


@pytest.mark.parametrize("clusters, slots", [(1, 192), (16, 12)])
def test_rank_evaluations_follow_clusters_and_self_reads_do_not_repeat(
        monkeypatch, clusters, slots):
    ranked = []  # one entry per Rank evaluation: the job it was for

    def fun(args, self_ad, other_ad, env):
        ranked.append(self_ad.ad_id)
        return real(-float(int(args[1].data[2:]) % 5))

    reg = FnRegistry().register("fun", 2, fun, reads=())
    offered = {}
    real_rank_resources = matchmaker.rank_resources

    def rank_resources(job, clusters, reg, env):
        offered[job.ad_id] = len(clusters)
        return real_rank_resources(job, clusters, reg, env)

    self_reads = []
    real_evaluate = classads_ads.evaluate

    def counting_evaluate(e, self_ad, other_ad, reg, env=None):
        if other_ad is None:
            self_reads.append(self_ad.ad_id)
        return real_evaluate(e, self_ad, other_ad, reg, env)

    monkeypatch.setattr(classads_ads, "evaluate", counting_evaluate)
    monkeypatch.setattr(matchmaker, "rank_resources", rank_resources)
    extra = ('Requirements = OTHER.Architecture == "Linux" || OTHER.Architecture == "OSF1"\n'
             "Rank = fun(Dataset, OTHER.Station_ID)\n")
    jobs = [_job(f"j{i:03d}", extra=extra) for i in range(128)]
    reads_per_cycle = []
    for cycle in range(3):
        del self_reads[:]
        store = _burst_like(clusters, slots)
        collecting = len(self_reads)  # the resources' Name and Station_ID
        decisions = run_match_cycle(store, jobs, reg, None)
        assert all(d.matched for d in decisions)
        counts = collections.Counter(ranked)
        assert all(counts[job.ad_id] == offered[job.ad_id] for job in jobs)
        assert max(offered.values()) == clusters  # never once per slot
        reads_per_cycle.append(len(self_reads) - collecting)
        del ranked[:]
    # the first cycle reads each job's Owner once; later cycles read nothing
    assert reads_per_cycle == [len(jobs), 0, 0]


@settings(max_examples=300, deadline=None)
@given(ads=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([(ALICE,), (BOB,)])),
                    min_size=1, max_size=12),
       order=st.randoms(use_true_random=False),
       steps=st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)), max_size=40))
def test_claims_and_releases_keep_the_index_a_fresh_free_index(ads, order, steps):
    # the index's one rule, however claims and releases interleave: it is
    # what `free_index` builds from the ads still free, cluster for cluster
    # (in any cluster order), members in ad id order, no cluster empty
    ids = [f"r{n}" for n in range(len(ads))]  # "r10" sorts before "r2"
    order.shuffle(ids)
    store = AdStore()
    for ad_id, (kind, gridmap) in zip(ids, ads):
        store.collect_ad(_res(ad_id, f"N{kind}", f"s{kind}"), gridmap, 3600.0, 0.0)
    stored = {s.ad.ad_id: s for s in store.snapshot(0.0)}
    index = free_index(stored.values())
    taken: list[str] = []
    for claim, pick in steps:
        free = sorted(set(stored) - set(taken))
        if claim and free:
            ad_id = free[pick % len(free)]
            # the pick as a chooser hands it on: the free member record itself
            matchmaker._claim(index, stored[ad_id])
            taken.append(ad_id)
            with pytest.raises(ValueError):  # taken: no longer free
                matchmaker._claim(index, stored[ad_id])
        elif taken:
            release(index, stored[taken.pop(pick % len(taken))])
        want = free_index(s for ad_id, s in stored.items() if ad_id not in taken)
        assert {c: [s.ad.ad_id for s in m] for c, m in index.items()} == \
            {c: [s.ad.ad_id for s in m] for c, m in want.items()}
        assert all(index.values())


def _argmax_reference(clusters, row):
    """The Rank argmax as a `min` over (-rank, Name, ad id) of the clusters'
    first members whose rank is a number: the pick and its own rank."""
    ranked = [(members[0], row[members[0].cluster]) for members in clusters
              if row[members[0].cluster] is not None]
    if not ranked:
        return None
    return min(ranked, key=lambda pick: (-pick[1], pick[0].name, pick[0].ad.ad_id))


@settings(max_examples=300, deadline=None)
@given(clusters=st.lists(st.tuples(st.sampled_from(["N", "M", "Nn", "\u00e9"]),
                                   st.sampled_from([None, 0.0, -0.0, 1.0, -1.5, 2.0]),
                                   st.integers(1, 3)),
                         min_size=1, max_size=8),
       order=st.randoms(use_true_random=False),
       claims=st.lists(st.integers(0, 10 ** 6), max_size=6))
def test_the_rank_first_argmax_is_the_min_of_rank_name_and_ad_id(clusters, order, claims):
    # clusters that tie on rank (0.0 against -0.0 too) and share a Name, as
    # `_twinned` builds them (one bindings, another gridmap), each losing
    # first members to claims between picks
    ids = [f"r{n}" for n in range(sum(size for _, _, size in clusters))]  # "r10" < "r2"
    order.shuffle(ids)
    store, ranks, taken = AdStore(), {}, iter(ids)
    for k, (name, rank, size) in enumerate(clusters):
        for _ in range(size):
            stored = store.collect_ad(_res(next(taken), name, "s1"), [f"/CN=u{k}"],
                                      3600.0, 0.0)
        ranks[stored.cluster] = rank
    index = free_index(store.snapshot(0.0))
    assert len(index) == len(clusters)
    for claim in [None, *claims]:
        if claim is not None and index:  # a claim of some cluster's first member
            offered = list(index.values())
            matchmaker._claim(index, offered[claim % len(offered)][0])
        offered = list(index.values())
        order.shuffle(offered)  # no decision depends on the clusters' order
        pick, want = matchmaker._argmax(offered, ranks), _argmax_reference(offered, ranks)
        if want is None:
            assert pick is None
            continue
        assert pick[0] is want[0]
        assert pick[1].hex() == want[1].hex() == ranks[pick[0].cluster].hex()
        matchmaker._claim(index, pick[0])


def test_match_jobs_stops_pulling_jobs_once_every_ad_is_claimed():
    store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
    pulled = []

    def feed():
        yield _job("outsider", owner=BOB)  # matches nothing, claims nothing
        for i in range(10):
            pulled.append(i)
            yield _job(f"j{i}")

    reg = standard_registry()
    decisions = list(match_jobs(free_index(store.snapshot(0.0)), feed(), reg, None))
    assert [d.reason for d in decisions] == ["unauthorized-everywhere", None, None]
    assert [d.resource_id for d in decisions[1:]] == ["r1", "r2"]
    assert pulled == [0, 1]
    # the whole-cycle form still answers for every job
    tail = _run(store, [_job(f"j{i}") for i in range(4)])
    assert [d.reason for d in tail] == [None, None, "no-candidates", "no-candidates"]
    # with no ad free from the start, not even the first job is pulled (the
    # expiry case comes last: a snapshot past the ttl empties the store)
    for now, claimed in ((0.0, {"r1", "r2"}), (1e9, ())):
        jobs = feed()
        index = free_index(s for s in store.snapshot(now) if s.ad.ad_id not in claimed)
        assert list(match_jobs(index, jobs, reg, None)) == []
        assert next(jobs).ad_id == "outsider"


# -- structural invariance ----------------------------------------------------------

def test_scaling_all_bandwidths_halves_all_ranks():
    cat = DatasetCatalog({
        "heavy": [("h0", 3_000_000_000, "FNAL"), ("h1", 1_000_000_000, "CDF")],
        "light": [("l0", 400_000_000, "CDF")],
    })

    def build(scale):
        return {
            "s1": StationState("s1", links={"FNAL": 1e8 * scale, "CDF": 1e7 * scale},
                               cached_files={"h0"}),
            "s2": StationState("s2", links={"FNAL": 5e7 * scale, "CDF": 5e7 * scale}),
        }

    def decide(scale):
        stations = build(scale)
        env = {"station_query": lambda ds, sid, ob:
               get_preference(cat, stations[sid], ds, ob).score}
        store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
        jobs = [_job("j1", dataset="heavy", extra=RANKED),
                _job("j2", dataset="light", extra=RANKED),
                _job("j3", dataset="heavy", extra=RANKED)]
        return _run(store, jobs, env=env)

    base, doubled = decide(1.0), decide(2.0)
    for b, d in zip(base, doubled):
        assert b.matched == d.matched
        if b.matched:
            assert d.resource_id == b.resource_id
            assert d.rank == b.rank / 2  # exact: power-of-two rescaling


# -- concurrency ---------------------------------------------------------------------

def test_authorization_reads_the_snapshot_not_a_later_advertisement():
    # r2 and r1 form one cluster whose gridmap lists only alice. r2 is
    # re-advertised for bob too after the cycle took its snapshot; the
    # cycle must still judge bob against the gridmap it saw.
    store = _store(_res("r2", "A", "s1"), _res("r1", "A", "s1"), gridmap=(ALICE,))
    snapshot_gridmaps = {s.ad.ad_id: s.gridmap for s in store.snapshot(0.0)}

    def jobs():
        store.collect_ad(_res("r2", "A", "s1"), [ALICE, BOB], 3600.0, 0.0)
        yield _job("j-bob", owner=BOB)

    index = free_index(store.snapshot(0.0))
    [decision] = match_jobs(index, jobs(), standard_registry(), None)
    if decision.matched:
        assert BOB in snapshot_gridmaps[decision.resource_id]
    assert decision.reason == "unauthorized-everywhere"


def test_match_requests_survive_concurrent_advertising():
    # the server runs one thread per connection; new ad ids grow the store
    # while match requests iterate it. A short switch interval makes the
    # threads interleave inside that iteration often.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    service = MatchmakerService(clock=lambda: 0.0)
    server = wire.LineServer("127.0.0.1", 0, service.handle_message)
    server.serve_in_thread()
    stop = threading.Event()

    def advertise_new_ids():
        with wire.Connection("127.0.0.1", server.port) as conn:
            n = 0
            while not stop.is_set():
                n += 1
                conn.request(_advertise_msg(_res(f"r{n}", f"N{n}", "s1"), ttl=0.0))

    advertiser = threading.Thread(target=advertise_new_ids)
    advertiser.start()
    try:
        job_msg = {"type": "MATCH_REQUEST", "jobs": [ad_to_json(_job("j"))]}
        with wire.Connection("127.0.0.1", server.port) as conn:
            replies = [conn.request(job_msg) for _ in range(300)]
    finally:
        stop.set()
        advertiser.join(timeout=10)
        server.shutdown()
        server.server_close()
        sys.setswitchinterval(switch_interval)
    assert not advertiser.is_alive()
    failed = [r["error"] for r in replies if "error" in r]
    assert failed == []
