"""Matchmaking pipeline and its wire service."""

import logging
import math
import random
import sys
import threading

import pytest

from vogrid import wire
from vogrid.classads import AdKind, ad_to_json, parse_classad, symmetric_match
from vogrid.matchmaker import (
    AdStore,
    IncompleteAd,
    MatchDecision,
    MatchmakerService,
    choose_by_rank,
    directory_query,
    match_jobs,
    preauthorize,
    run_match_cycle,
    standard_registry,
)
from vogrid.station import DatasetCatalog, StationState, get_preference, handle_message

from worldgen import make_world, world_runtime

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
    assert [s.ad.ad_id for s in store.snapshot(14.9)] == ["r1"]
    # expiry boundary is exclusive: at received_at + ttl the ad is gone
    assert store.snapshot(15.0) == []
    # an ad advertised with ttl 0 is never visible, even in the same instant
    store.collect_ad(_res("r2", "B", "st-b"), [ALICE], ttl_seconds=0.0, now=10.0)
    assert [s.ad.ad_id for s in store.snapshot(10.0)] == ["r1"]


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
    assert store.gridmap("r1") == frozenset({BOB})


def test_remove():
    store = _store(_res("r1", "A", "st-a"))
    store.remove("r1")
    assert store.snapshot(0.0) == []
    assert store.gridmap("r1") == frozenset()
    store.remove("never-seen")


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


def test_preauthorize(caplog):
    store = _store(_res("r1", "A", "st-a"), gridmap=(ALICE,))
    assert preauthorize(store, _job("j1", owner=ALICE), "r1") is True
    assert preauthorize(store, _job("j2", owner=BOB), "r1") is False
    ownerless = parse_classad('Dataset = "d"\n', AdKind.JOB, ad_id="j3")
    with caplog.at_level(logging.WARNING, logger="vogrid.matchmaker"):
        assert preauthorize(store, ownerless, "r1") is False
    assert any("no usable Owner" in r.message for r in caplog.records)


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
        _res("r-inf", "C6", "s6", extra="Goodness = 9e999\n"),
    )
    [d] = _run(store, [_job("j", extra="Rank = OTHER.Goodness\n")])
    assert d.matched
    assert d.resource_id == "r-int"
    assert d.rank == 5.0


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
    store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
    claimed = {"r1"}
    [d] = _run(store, [_job("j")], claimed=claimed)
    assert d.resource_id == "r2"
    # the caller's set is input only; claims are reported in the decisions
    assert claimed == {"r1"}


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


def _serve_station(st, auth_token=None):
    server = wire.LineServer("127.0.0.1", 0,
                             lambda msg: handle_message(CATALOG, st, msg),
                             auth_token=auth_token)
    server.serve_in_thread()
    return server


def test_directory_query_against_live_station():
    st = StationState("durin", links={"FNAL": 1e8, "CDF": 1e7})
    server = _serve_station(st)
    try:
        query = directory_query({"durin": ("127.0.0.1", server.port)})
        # 2e9/1e8 + 5e8/1e7 = 70 seconds of staging
        assert query("dzero-run2", "durin", None) == -70.0
        with pytest.raises(wire.WireError):
            query("unknown-set", "durin", None)
        with pytest.raises(KeyError):
            query("dzero-run2", "not-in-directory", None)
    finally:
        server.shutdown()
        server.server_close()


def test_directory_query_passes_auth():
    st = StationState("durin", links={"FNAL": 1e8, "CDF": 1e7})
    server = _serve_station(st, auth_token="sesame")
    try:
        query = directory_query({"durin": ("127.0.0.1", server.port)},
                                auth_token="sesame")
        assert query("dzero-run2", "durin", None) == -70.0
        bare = directory_query({"durin": ("127.0.0.1", server.port)})
        with pytest.raises(wire.WireError):
            bare("dzero-run2", "durin", None)
    finally:
        server.shutdown()
        server.server_close()


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
        authorized = [s for s in candidates if preauthorize(store, job, s.ad.ad_id)]
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


def _chooser(kind, seed, ad_ids):
    """A fresh chooser: the Rank argmax, or the simulator's two baselines."""
    if kind == "rank":
        return choose_by_rank
    rng = random.Random(seed)
    rotation, pointer = sorted(ad_ids), [0]

    def choose(job, authorized, reg, env):
        if kind == "random":
            ordered = sorted(authorized, key=lambda s: (s.name, s.ad.ad_id))
            return rng.choice(ordered).ad.ad_id, 0.0
        ids = {s.ad.ad_id for s in authorized}
        for k in range(len(rotation)):
            ad_id = rotation[(pointer[0] + k) % len(rotation)]
            if ad_id in ids:
                pointer[0] = (pointer[0] + k + 1) % len(rotation)
                return ad_id, 0.0
    return choose


def test_match_cycle_equals_the_rescanning_pipeline():
    exhausted = 0
    for seed in range(150):
        rng = random.Random(seed)
        rt = world_runtime(make_world(rng))
        ad_ids = [s.ad.ad_id for s in rt["store"].snapshot(0.0)]
        jobs = rt["jobs"] * rng.randint(1, 4)  # often more jobs than slots
        claimed = set(rng.sample(ad_ids, rng.randint(0, len(ad_ids))))
        now = rng.choice([0.0, 0.0, 0.0, 1.0])  # ads expire at 1.0
        for kind in ("rank", "random", "round-robin"):
            args = (rt["store"], jobs, rt["registry"], rt["env"], now, claimed)
            got = run_match_cycle(*args, choose=_chooser(kind, seed, ad_ids))
            assert got == _rescan_cycle(*args, _chooser(kind, seed, ad_ids))
            reached = list(match_jobs(*args, choose=_chooser(kind, seed, ad_ids)))
            assert reached == got[:len(reached)]
            exhausted += len(reached) < len(jobs)
    assert exhausted > 50  # the pool ran out before the jobs did


def test_match_jobs_stops_pulling_jobs_once_every_ad_is_claimed():
    store = _store(_res("r1", "A", "s1"), _res("r2", "B", "s2"))
    pulled = []

    def feed():
        yield _job("outsider", owner=BOB)  # matches nothing, claims nothing
        for i in range(10):
            pulled.append(i)
            yield _job(f"j{i}")

    reg = standard_registry()
    decisions = list(match_jobs(store, feed(), reg, None))
    assert [d.reason for d in decisions] == ["unauthorized-everywhere", None, None]
    assert [d.resource_id for d in decisions[1:]] == ["r1", "r2"]
    assert pulled == [0, 1]
    # with no ad free from the start, not even the first job is pulled
    for kw in ({"claimed": {"r1", "r2"}}, {"now": 1e9}):
        jobs = feed()
        assert list(match_jobs(store, jobs, reg, None, **kw)) == []
        assert next(jobs).ad_id == "outsider"
    # the whole-cycle form still answers for every job
    tail = _run(store, [_job(f"j{i}") for i in range(4)])
    assert [d.reason for d in tail] == [None, None, "no-candidates", "no-candidates"]


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
