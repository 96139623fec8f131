"""Scenario loading and the deterministic grid run."""

import gc
import collections
import hashlib
import heapq
import json
import math
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies

import vogrid.matchmaker as matchmaker
import vogrid.sim as sim
from vogrid.classads import parse_expr
from vogrid.conftree import read_tree, write_tree
from vogrid.jobs import JobState, output_bytes
from vogrid.sim import (
    GridWorld,
    NonQuiescent,
    ScenarioParseError,
    load_scenario,
    load_scenario_file,
    make_site_config,
    run_scenario,
)
from vogrid.station import (DatasetCatalog, NoRouteToSource, ScoreOverflow,
                            UnknownDataset, station_from_config)

from conftest import bench_scenarios, fixture_path
from worldgen import make_world, matched_resource, rank_each_ad

ALICE = "/C=US/O=demo/CN=alice"

SKEWED = load_scenario(json.loads(fixture_path("skewed_scenario.json").read_text()))

SAMPLE_DOC = json.loads((Path(__file__).resolve().parents[1] / "samples"
                         / "scenario.json").read_text())


def _scenario_doc(catalog, sites, jobs, **extra):
    return {"name": "t", "catalog": catalog, "sites": sites, "jobs": jobs, **extra}


def _site_doc(config, stations=None, gridmap=(ALICE,)):
    return {"config_xml": write_tree(config), "stations": stations or {},
            "gridmap": list(gridmap)}


def _one_site_doc(*, datasets=None, slots=1, links=None, cached=(),
                  jobs=("d",), run_seconds=0.0, requirements=None,
                  gridmap=(ALICE,)):
    """Single site S/c/st scenario with one file per listed dataset."""
    catalog = datasets or {"d": [["f0", 1_000_000_000, "HOME"]]}
    config = make_site_config("S", "c", "st",
                              links or {"HOME": 1e8}, slots=slots)
    job_docs = []
    for i, ds in enumerate(jobs, 1):
        ad = {"Owner": f'"{ALICE}"', "Dataset": f'"{ds}"'}
        if run_seconds:
            ad["RunSeconds"] = repr(run_seconds)
        if requirements:
            ad["Requirements"] = requirements
        job_docs.append({"id": f"j{i}", "ad": ad})
    site = _site_doc(config, stations={"st": {"cached_files": list(cached)}},
                     gridmap=gridmap)
    return _scenario_doc(catalog, [site], job_docs)


# -- loading -------------------------------------------------------------------------

def test_load_scenario_parses_the_fixture():
    assert SKEWED.name == "skewed-cache"
    assert len(SKEWED.sites) == 3
    assert [ad.ad_id for ad in SKEWED.job_ads] == [f"j{i}" for i in range(1, 7)]
    assert [f.file_name for f in SKEWED.catalog.files("ds-A")] == \
        [f"a{i:02d}" for i in range(10)]


def test_missing_rank_gets_the_station_query_rank():
    scenario = load_scenario(_one_site_doc())
    assert scenario.job_ads[0].lookup("Rank") == \
        parse_expr("fun(Dataset, OTHER.Station_ID)")


def test_explicit_rank_is_kept():
    doc = _one_site_doc()
    doc["jobs"][0]["ad"]["Rank"] = "0 - 5"
    scenario = load_scenario(doc)
    assert scenario.job_ads[0].lookup("Rank") == parse_expr("0 - 5")


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("catalog"),
    lambda d: d.pop("jobs"),
    lambda d: d["jobs"][0].pop("id"),
    lambda d: d["jobs"][0]["ad"].update({"Dataset": "not a parseable ("}),
    lambda d: d["catalog"].update({"bad": [["f", 0, "HOME"]]}),
    lambda d: d["sites"][0].update({"config_xml": "<broken"}),
])
def test_load_scenario_rejects_bad_documents(mangle):
    doc = _one_site_doc()
    mangle(doc)
    with pytest.raises(ScenarioParseError):
        load_scenario(doc)


@pytest.mark.parametrize("ttl", [True, "7", math.nan, -5, math.inf, 10 ** 400],
                         ids=["true", "text", "nan", "negative", "infinity", "10**400"])
def test_a_scenario_ttl_must_be_a_finite_nonnegative_number(ttl):
    doc = _one_site_doc()
    doc["ttl"] = ttl
    with pytest.raises(ScenarioParseError, match="ttl"):
        load_scenario(doc)


def test_an_absent_or_null_ttl_is_the_default():
    doc = _one_site_doc()
    assert load_scenario(doc).ttl == sim.DEFAULT_TTL
    doc["ttl"] = None
    assert load_scenario(doc).ttl == sim.DEFAULT_TTL
    doc["ttl"] = 7
    assert load_scenario(doc).ttl == 7


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_one_site_doc()))
    assert load_scenario_file(str(path)).name == "t"
    path.write_text("{not json")
    with pytest.raises(ScenarioParseError):
        load_scenario_file(str(path))
    # the file is read as strict JSON: NaN is no number, so it is no size
    doc = _one_site_doc()
    doc["catalog"]["d"][0][1] = math.nan
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioParseError):
        load_scenario_file(str(path))


@pytest.mark.parametrize("size", [True, 1.5, 10 ** 400, math.nan, 0],
                         ids=["true", "fraction", "10**400", "nan", "zero"])
def test_a_catalog_file_size_must_be_a_whole_number_above_zero(size):
    # true was one byte, 1.5 was accepted, 10**400 made round-robin raise
    # OverflowError, and a NaN size staged for NaN seconds forever
    doc = _one_site_doc(datasets={"d": [["f0", size, "HOME"]]})
    with pytest.raises(ScenarioParseError, match="size"):
        load_scenario(doc)


@pytest.mark.parametrize("gridmap", ["alice", None, [ALICE, 5], {ALICE: 1}],
                         ids=["text", "null", "a number", "object"])
def test_a_site_gridmap_must_be_a_list_of_text(gridmap):
    # the text "alice" once authorized each of its characters, so a job
    # whose Owner was "a" matched and ran
    doc = _one_site_doc()
    doc["sites"][0]["gridmap"] = gridmap
    with pytest.raises(ScenarioParseError, match="gridmap"):
        load_scenario(doc)


def test_an_absent_site_gridmap_authorizes_no_one():
    doc = _one_site_doc()
    del doc["sites"][0]["gridmap"]
    report, _ = run_scenario(load_scenario(doc), "data-aware", 0)
    assert [j["reason"] for j in report["jobs"]] == ["unauthorized-everywhere"]


def test_duplicate_station_rejected():
    doc = _one_site_doc()
    doc["sites"].append(doc["sites"][0])
    scenario = load_scenario(doc)  # the first world builds the grid
    for policy in ("data-aware", "random"):  # a grid that fails is not kept
        with pytest.raises(ScenarioParseError, match="defined twice"):
            GridWorld(scenario, policy, 0)


def test_a_slot_defined_twice_is_rejected():
    # a second site S/c on its own station advertises S/c#1 and S/c#2 again:
    # kept, the second site's slots would replace the first site's
    doc = _one_site_doc(slots=2)
    doc["sites"].append(_site_doc(make_site_config("S", "c", "st2", {"HOME": 1e8},
                                                   slots=2)))
    scenario = load_scenario(doc)
    with pytest.raises(ScenarioParseError, match="slot 'S/c#1' defined twice"):
        GridWorld(scenario, "data-aware", 0)


def test_a_job_defined_twice_is_rejected():
    doc = _one_site_doc(jobs=("d", "d"))
    doc["jobs"][1]["id"] = "j1"  # kept, two report rows and two event trails would be j1
    with pytest.raises(ScenarioParseError, match="job 'j1' defined twice"):
        load_scenario(doc)


def test_undefined_station_rejected():
    doc = _one_site_doc()
    # the advertiser picks the preferred inner station, which no station
    # derivation reaches: it does not look inside a station element
    doc["sites"][0]["config_xml"] = (
        "<site name='S' schema_version='v0_3'><cluster name='c'>"
        "<gatekeeper url='gram://c.S.example:2119' jobmanager='fork'/>"
        "<station name='st'><station name='inner' preferred='true'/></station>"
        "</cluster></site>")
    scenario = load_scenario(doc)
    for policy in ("data-aware", "random"):
        with pytest.raises(ScenarioParseError, match="undefined stations"):
            GridWorld(scenario, policy, 0)


@pytest.mark.parametrize("xml_value, fixture", [
    ("abc", {}), ("-5", {}), ("nan", {}), ("inf", {}),
    ("1.0", {"mean_service_seconds": math.nan}),
    ("1.0", {"mean_service_seconds": -5.0}),
    ("1.0", {"links": {"HOME": math.nan}}),
    ("1.0", {"links": {"HOME": math.inf}}),
    ("1.0", {"expected_output_bytes": -1}),
    ("1.0", {"input_queue_depth": math.nan}),
    ("1.0", {"input_queue_depth": "3"}),
    ("1.0", {"input_queue_depth": True}),
    ("1.0", {"input_queue_depth": 0.5}),
    ("1.0", {"cached_files": "f0"}),
    ("1.0", {"no_such_field": 1}),
    # spellings only JSON refuses, once read as 10, 1.5 and 1.0
    ("1_0", {}), ("\u0661.5", {}), ("+1.0", {}),
])
def test_a_station_that_does_not_build_is_a_scenario_parse_error(xml_value, fixture):
    # each would give a NaN or infinite score, or one that rises with the queue
    doc = _one_site_doc()
    site = doc["sites"][0]
    site["config_xml"] = site["config_xml"].replace(
        "mean_service_seconds='1.0'", f"mean_service_seconds='{xml_value}'")
    site["stations"]["st"].update(fixture)
    scenario = load_scenario(doc)
    with pytest.raises(ScenarioParseError, match="bad station"):
        run_scenario(scenario, "data-aware", 0)


def test_unknown_policy_rejected():
    with pytest.raises(ScenarioParseError):
        GridWorld(SKEWED, "optimal", 0)


def test_make_site_config_round_trips():
    config = make_site_config("S", "c", "st", {"HOME": 12_500_000.0, "AWAY": 1e8},
                              slots=3, mean_service_seconds=0.25)
    reread = read_tree(write_tree(config))
    assert reread == config
    st = station_from_config(reread.find("station"))
    assert st.links == {"HOME": 12_500_000.0, "AWAY": 1e8}
    assert st.mean_service_seconds == 0.25
    assert reread.find("cluster").attributes["slots"] == "3"
    assert reread.attributes["schema_version"] == "v0_3"


@pytest.mark.parametrize("value", ["-4", '"big"', "true", "1.0 / 0.0", "error"])
@pytest.mark.parametrize("attr", ["OutputBytes", "RunSeconds"])
def test_bad_job_quantities_are_rejected_at_load(attr, value):
    doc = json.loads(json.dumps(SAMPLE_DOC))
    doc["jobs"][0]["ad"][attr] = value
    with pytest.raises(ScenarioParseError, match=attr):
        load_scenario(doc)


@pytest.mark.parametrize("attr", ["Owner", "Dataset"])
def test_non_text_identity_is_rejected_at_load(attr):
    doc = json.loads(json.dumps(SAMPLE_DOC))
    doc["jobs"][0]["ad"][attr] = "5"
    with pytest.raises(ScenarioParseError, match=attr):
        load_scenario(doc)


def test_equal_sources_share_one_tree():
    scenario = load_scenario(SAMPLE_DOC)
    trees = {}
    for job_doc, ad in zip(SAMPLE_DOC["jobs"], scenario.job_ads):
        for name, src in job_doc["ad"].items():
            assert trees.setdefault(src, ad.lookup(name)) is ad.lookup(name), src
    # every job's default Rank is one tree, shared with a later load's
    ranks = {id(ad.lookup("Rank")) for ad in scenario.job_ads}
    assert not any("Rank" in job["ad"] for job in SAMPLE_DOC["jobs"])
    assert len(ranks) == 1
    assert load_scenario(SAMPLE_DOC).job_ads[0].lookup("Rank") is \
        scenario.job_ads[0].lookup("Rank")


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_undefined_output_bytes_means_the_station_default(policy):
    # Undefined and absent read the same in ranking and in staging, so the
    # run is the one without the attribute
    doc = json.loads(json.dumps(SAMPLE_DOC))
    doc["jobs"][0]["ad"]["OutputBytes"] = "undefined"
    assert run_scenario(load_scenario(doc), policy, 0) == \
        run_scenario(load_scenario(SAMPLE_DOC), policy, 0)


# -- the skewed-cache scenario ------------------------------------------------------

def test_data_aware_sends_every_job_home():
    report, _ = run_scenario(SKEWED, "data-aware", 0)
    assert report["mean_staging_seconds"] == 10.0
    assert report["max_staging_seconds"] == 10.0
    by_job = {j["job"]: j for j in report["jobs"]}
    homes = {"j1": "A/", "j2": "B/", "j3": "C/", "j4": "A/", "j5": "B/", "j6": "C/"}
    for job_id, prefix in homes.items():
        entry = by_job[job_id]
        assert entry["state"] == "Done"
        assert entry["resource"].startswith(prefix)
        assert entry["staging_seconds"] == 10.0
    assert report["final_clock"] == 10.0


def test_round_robin_mostly_misses_the_caches():
    report, _ = run_scenario(SKEWED, "round-robin", 0)
    assert report["mean_staging_seconds"] == 70.0
    assert [j["staging_seconds"] for j in report["jobs"]] == \
        [10.0, 100.0, 100.0, 100.0, 100.0, 10.0]


def test_random_policy_is_seeded():
    report, _ = run_scenario(SKEWED, "random", 7)
    assert report["mean_staging_seconds"] == 85.0


def test_runs_are_deterministic():
    for policy, seed in (("data-aware", 0), ("random", 3), ("round-robin", 1)):
        a_report, a_log = run_scenario(SKEWED, policy, seed)
        b_report, b_log = run_scenario(SKEWED, policy, seed)
        assert a_report == b_report
        assert a_log == b_log


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                          .encode("utf-8")).hexdigest()


@pytest.mark.parametrize("policy,report_sha,events_sha", [
    ("data-aware",
     "60ee4a381d98bf48a98e30247b155fbf9f731915db16d0a1301572d134d2d909",
     "8e8d4139f1ff24d188e09e1681c7d0b624af6c755683a7558e61fc4b6d83534b"),
    ("random",
     "c141f8a7bf2c5a6a4ecd15ef9b4eb813a63841124023c6ee5c43e8fdece763ed",
     "286fd887b0dfad7141b58ae909a90a533908808a85476f54b1236759fb2ba475"),
    ("round-robin",
     "506e26a5bdd6eed6c7c0f9b5fada71e5ceb28bfe4d693b36cbb692332ecb4785",
     "b2fe0b87f69f7808bb17d410d7f9c3ed0e3bea2304a6a7e54bb0fad62e6b486c"),
])
def test_sample_scenario_golden_digests(policy, report_sha, events_sha):
    report, events = run_scenario(load_scenario(SAMPLE_DOC), policy, 0)
    assert (_sha256(report), _sha256(events)) == (report_sha, events_sha)


# the report and event-log digests of the benchmark's seed-1 simulator
# runs (workload seed 1, run_scenario seed 1), as `bench/run.py --seed 1`
# prints them
@pytest.mark.parametrize("shape, policy, report_sha, events_sha", [
    ("backlog", "data-aware",
     "103c41d7c11d69517fec7180b018866106cb68f21c33dc4f17bbcac1b2d0506f",
     "e2aa18c12a0165c54d331a5922cf0615f9b86b4eb961170cb7f455631c8b16c8"),
    ("backlog", "random",
     "6d9d90f2c6067ae7d7dcba2f5273c15e0019ac79edf569797910b891c810d7cb",
     "c930f2de3adf9dc228d118cca124185c806bb1c26a5d8da71c619f60a4790a6f"),
    ("backlog", "round-robin",
     "4317a63504663dc2d9634bf6bbb45010527a6b0747ada0681d1fc3505db71ca1",
     "b8400f396d0974918c0fdea8b385ffc55c7ffa31163a986e1b8a5b7084123eb1"),
    ("burst", "data-aware",
     "20506bee734adfdbc4b5af958b8076a4eb6bb4e5fe03eaaa163b8523212548a0",
     "3fd52133abf2546a4f6b040606963d9c3f7e81a0a492ce99383f7e04e6a3c6ff"),
], ids=["backlog-data-aware", "backlog-random", "backlog-round-robin", "burst-data-aware"])
def test_seed_1_bench_digests(shape, policy, report_sha, events_sha):
    bench = bench_scenarios()
    scenario = load_scenario(bench.scenario_doc(bench.make_grid(1, shape)))
    report, events = run_scenario(scenario, policy, 1)
    assert (_sha256(report), _sha256(events)) == (report_sha, events_sha)


# the distinct (dataset, station, cached files) questions of the seed-1
# benchmark runs above; each walked a dataset's files 599 (burst) and 706,
# 639 and 640 (backlog) times when every question walked them again
@pytest.mark.parametrize("shape, policy, walks", [
    ("backlog", "data-aware", 293), ("backlog", "random", 253),
    ("backlog", "round-robin", 249), ("burst", "data-aware", 256),
], ids=["backlog-data-aware", "backlog-random", "backlog-round-robin", "burst-data-aware"])
def test_each_station_walks_a_dataset_once_per_cache_state(shape, policy, walks,
                                                           monkeypatch):
    bench = bench_scenarios()
    scenario = load_scenario(bench.scenario_doc(bench.make_grid(1, shape)))
    walked, asked = [0], set()
    files, get_preference = DatasetCatalog.files, sim.get_preference

    def counted_files(self, dataset):
        walked[0] += 1
        return files(self, dataset)

    def recorded(cat, st, dataset, output_bytes=None):
        asked.add((dataset, st.station_id, st.cached_files))
        return get_preference(cat, st, dataset, output_bytes)

    monkeypatch.setattr(DatasetCatalog, "files", counted_files)
    monkeypatch.setattr(sim, "get_preference", recorded)
    first = run_scenario(scenario, policy, 1)
    assert walked[0] == len(asked) == walks
    # each run starts from its own copies: the scenario's states keep no
    # answers, and a second run walks as often as the first
    stations, _ = scenario.grid
    assert all(st._shortfalls == {} for st in stations.values())
    walked[0] = 0
    assert run_scenario(scenario, policy, 1) == first
    assert walked[0] == walks


def test_report_shape():
    report, _ = run_scenario(SKEWED, "data-aware", 5)
    assert set(report) == {"scenario", "policy", "seed", "jobs",
                           "mean_staging_seconds", "max_staging_seconds",
                           "events", "final_clock"}
    assert report["scenario"] == "skewed-cache"
    assert report["policy"] == "data-aware"
    assert report["seed"] == 5
    assert report["events"] == 12  # one staged and one done per job
    for entry in report["jobs"]:
        assert set(entry) == {"job", "state", "resource", "staging_seconds",
                              "run_seconds", "total_seconds", "reason"}
        assert entry["reason"] is None
        assert entry["run_seconds"] == 0.0
        assert entry["total_seconds"] == entry["staging_seconds"]


# -- lifecycle and exclusivity invariants --------------------------------------------

FORWARD = [JobState.SUBMITTED, JobState.IDLE, JobState.MATCHED,
           JobState.STAGING, JobState.RUNNING, JobState.DONE]


def _assert_legal_history(record):
    states = [state for state, _, _ in record.history]
    stamps = [stamp for _, stamp, _ in record.history]
    assert stamps == sorted(stamps)
    assert states[0] is JobState.SUBMITTED
    for cur, nxt in zip(states, states[1:]):
        if nxt is JobState.HELD:
            assert cur is not JobState.HELD
        elif cur is JobState.HELD:
            assert nxt is JobState.IDLE
        else:
            assert FORWARD.index(nxt) == FORWARD.index(cur) + 1


@pytest.mark.parametrize("policy,seed", [
    ("data-aware", 0), ("random", 11), ("round-robin", 2)])
def test_every_history_is_legal(policy, seed):
    world = GridWorld(SKEWED, policy, seed)
    world.run()
    for record in world.queue.jobs.values():
        _assert_legal_history(record)
        assert record.state in (JobState.DONE, JobState.HELD)


def test_one_job_per_resource_at_a_time():
    # two jobs, one slot: the busy interval of the only ad must not overlap
    doc = _one_site_doc(jobs=("d", "d"), run_seconds=5.0)
    report, log = run_scenario(load_scenario(doc), "data-aware", 0)
    intervals = {}
    for entry in log:
        if entry["event"] == "match":
            intervals.setdefault(entry["resource"], []).append([entry["t"], None])
        elif entry["event"] == "done":
            intervals[entry["resource"]][-1][1] = entry["t"]
    for spans in intervals.values():
        spans.sort()
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 is not None and s2 >= e1
    # and the second job really waited for the first to finish
    by_job = {j["job"]: j for j in report["jobs"]}
    assert by_job["j1"]["total_seconds"] == 15.0  # 10s staging + 5s run
    assert by_job["j2"]["state"] == "Done"
    # second copy found the file already cached: zero staging
    assert by_job["j2"]["staging_seconds"] == 0.0
    assert report["final_clock"] == 20.0


def test_staging_times_reconcile_with_the_event_log():
    report, log = run_scenario(SKEWED, "round-robin", 0)
    logged = {e["job"]: e["staging_seconds"] for e in log if e["event"] == "match"}
    for entry in report["jobs"]:
        assert math.isclose(entry["staging_seconds"], logged[entry["job"]],
                            rel_tol=1e-9)
    # staging equals the negated preference the station reported at match time
    assert all(v > 0 for v in logged.values())


# -- held jobs -----------------------------------------------------------------------

def test_unauthorized_everywhere_holds_at_time_zero():
    doc = _one_site_doc(gridmap=())
    report, log = run_scenario(load_scenario(doc), "data-aware", 0)
    [entry] = report["jobs"]
    assert entry["state"] == "Held"
    assert entry["reason"] == "unauthorized-everywhere"
    assert entry["staging_seconds"] is None
    assert report["mean_staging_seconds"] is None
    assert [e for e in log if e["event"] == "held"][0]["t"] == 0.0


def test_impossible_requirements_hold_with_no_candidates():
    doc = _one_site_doc(requirements='OTHER.Architecture == "VMS"')
    report, _ = run_scenario(load_scenario(doc), "data-aware", 0)
    [entry] = report["jobs"]
    assert entry["state"] == "Held"
    assert entry["reason"] == "no-candidates"


def test_unroutable_dataset_holds_with_rank_errors():
    doc = _one_site_doc(
        datasets={"d": [["f0", 1_000_000_000, "HOME"]],
                  "far": [["g0", 1_000_000_000, "ELSEWHERE"]]},
        jobs=("far",))
    report, _ = run_scenario(load_scenario(doc), "data-aware", 0)
    [entry] = report["jobs"]
    assert entry["state"] == "Held"
    assert entry["reason"] == "all-rank-error"


def test_partial_visibility_defers_the_hold():
    # j1 takes the slot; j2 must idle (it did not see the full resource set)
    # and only matches after j1 finishes, rather than being held
    doc = _one_site_doc(jobs=("d", "d"), run_seconds=5.0)
    world = GridWorld(load_scenario(doc), "data-aware", 0)
    world.run()
    j2 = world.queue.jobs[2]
    assert j2.state is JobState.DONE
    assert JobState.HELD not in {state for state, _, _ in j2.history}
    match_stamp = next(stamp for state, stamp, _ in j2.history
                       if state is JobState.MATCHED)
    assert match_stamp == 15.0


def _staged_batch_doc() -> dict:
    """Two slots, three jobs. j0 runs 10 s on cached data; j1 stages its
    file for 50 s. At t=10 a slot is free, but j2's Requirements read the
    station's queue and cache through fun(), and j1's file is still queued
    (score -51). When j1's staged batch lands at t=50 the file is cached and
    the queue empty, so j2 matches then, not when j1 finishes at 1050."""
    catalog = {"hot": [["h0", 1_000_000, "HOME"]],
               "cold": [["c0", 5_000_000_000, "HOME"]]}
    config = make_site_config("S", "c", "st", {"HOME": 1e8}, slots=2)
    site = _site_doc(config, stations={"st": {"cached_files": ["h0"]}})
    owner = f'"{ALICE}"'
    jobs = [
        {"id": "j0", "ad": {"Owner": owner, "Dataset": '"hot"', "RunSeconds": "10"}},
        {"id": "j1", "ad": {"Owner": owner, "Dataset": '"cold"',
                            "RunSeconds": "1000"}},
        {"id": "j2", "ad": {"Owner": owner, "Dataset": '"cold"',
                            "Requirements": "fun(Dataset, OTHER.Station_ID) > -1.5"}},
    ]
    return _scenario_doc(catalog, [site], jobs)


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_staged_batch_can_let_a_waiting_job_match(policy):
    # a batch of staged events frees no slot, yet it can change a decision
    world = GridWorld(load_scenario(_staged_batch_doc()), policy, 0)
    world.run()
    stamps = {job.ad.ad_id: {state: stamp for state, stamp, _ in job.history}
              for job in world.queue.jobs.values()}
    assert stamps["j1"][JobState.RUNNING] == 50.0
    assert stamps["j2"][JobState.MATCHED] == 50.0
    assert all(job.state is JobState.DONE for job in world.queue.jobs.values())


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_no_visible_ads_holds_every_job(policy):
    # ttl 0 hides every ad: the pipeline reaches no job, yet each is held
    doc = dict(SAMPLE_DOC, ttl=0)
    report, log = run_scenario(load_scenario(doc), policy, 0)
    assert [(j["state"], j["reason"]) for j in report["jobs"]] == \
        [("Held", "no-candidates")] * len(SAMPLE_DOC["jobs"])
    assert [e["job"] for e in log if e["event"] == "held"] == \
        [j["id"] for j in SAMPLE_DOC["jobs"]]


def test_stranded_jobs_hold_when_nothing_is_pending():
    # one slot, two jobs; the second's dataset cannot be staged anywhere, so
    # once the heap drains the sweep parks it with the pipeline's reason
    doc = _one_site_doc(
        datasets={"d": [["f0", 1_000_000_000, "HOME"]],
                  "far": [["g0", 1_000_000_000, "ELSEWHERE"]]},
        jobs=("d", "far"), run_seconds=2.0)
    report, _ = run_scenario(load_scenario(doc), "data-aware", 0)
    by_job = {j["job"]: j for j in report["jobs"]}
    assert by_job["j1"]["state"] == "Done"
    assert by_job["j2"]["state"] == "Held"
    assert by_job["j2"]["reason"] == "all-rank-error"


# -- skipped cycles against a cycle after every batch ---------------------------------

_IN_FLIGHT = (JobState.MATCHED, JobState.STAGING, JobState.RUNNING)


class _EveryBatchWorld(GridWorld):
    """Reference loop: a match cycle after every event batch, each cycle
    listing the idle jobs up front and staging each match as it is made.
    Each cycle builds its own free index from the slots, by each ad's own
    expiry and the slots of the queue's Matched, Staging and Running jobs,
    so its cycles read neither the heap, the live index nor the single-TTL
    shortcut of `GridWorld`. Data-aware cycles rank with the reference Rank
    argmax (`worldgen.rank_each_ad`), once per slot and with no rank table."""

    def _busy(self) -> set[str]:
        return {matched_resource(r) for r in self.queue.jobs.values()
                if r.state in _IN_FLIGHT}

    def _match_cycle(self) -> int:
        idle = sorted((r for r in self.queue.jobs.values()
                       if r.state is JobState.IDLE), key=lambda r: r.job_id)
        if not idle:
            return 0
        self._query.start_cycle(self.stations)
        busy_at_start = self._busy()
        choose = rank_each_ad if self.policy == "data-aware" else self._choose_baseline
        free = [s for s in self.slots.values()
                if s.received_at + s.ttl_seconds > self.clock
                and s.ad.ad_id not in busy_at_start]
        decisions = sim.match_jobs(sim.free_index(free),
                                   (r.ad for r in idle), self.registry,
                                   self._env, choose=choose)
        matched = 0
        saw_everything = not busy_at_start
        reasons = {}
        for record, decision in zip(idle, decisions):
            if decision.matched:
                matched += 1
                saw_everything = False
                self._start_staging(record, decision)
            elif saw_everything:
                self._hold(record, decision.reason)
            else:
                reasons[record.job_id] = decision.reason
        if saw_everything or (matched == 0 and not self._busy()):
            for record in idle:
                if record.state is JobState.IDLE:
                    self._hold(record, reasons.get(record.job_id, "no-candidates"))
        return matched

    def run(self):
        while True:
            self._match_cycle()
            if not self._heap:
                return
            batch_time = self._heap[0][0]
            self.clock = batch_time
            while self._heap and self._heap[0][0] == batch_time:
                _, _, action, args = heapq.heappop(self._heap)
                self.events_processed += 1
                action(*args)


class _CycleCountingWorld(GridWorld):
    """Counts match cycles, and the event batches after which some slot is
    free; a batch ends with an event after which the heap holds no other
    event at the same time. At the start of every cycle it checks that the
    heap is empty exactly when no job is in flight, the fact that lets
    `GridWorld` keep its work in flight in the heap alone."""

    cycles = 0
    batches = 0
    free_batches = 0

    def _match_cycle(self) -> None:
        self.cycles += 1
        in_flight = [r for r in self.queue.jobs.values() if r.state in _IN_FLIGHT]
        assert (not self._heap) == (not in_flight), self.clock
        super()._match_cycle()

    def _finish_staging(self, record, slot, files):
        super()._finish_staging(record, slot, files)
        self._after_event()

    def _finish_run(self, record, slot):
        super()._finish_run(record, slot)
        self._after_event()

    def _after_event(self):
        if not (self._heap and self._heap[0][0] == self.clock):
            self.batches += 1
            self.free_batches += bool(self._free)


def _world_doc(world: dict, rng: random.Random) -> dict:
    """A backlogged scenario from a `worldgen` world. Some jobs' Requirements
    read the stations through fun(), and some file names are shared by two
    datasets, one copy fetched from a site no station reaches: staging the
    other copy turns that dataset's rank error into a finite rank."""
    catalog = {ds: [list(f) for f in files] for ds, files in world["catalog"].items()}
    names = sorted(catalog)
    for _ in range(rng.randint(0, 3) if len(names) > 1 else 0):
        src, dst = rng.sample(names, 2)
        file_name, size, _ = rng.choice(catalog[src])
        if file_name not in {f[0] for f in catalog[dst]}:
            catalog[dst].append([file_name, size, "NOWHERE"])
    sites = []
    for spec in world["sites"]:
        config = make_site_config(spec["site"], spec["cluster"], spec["station"],
                                  spec["links"], slots=spec["slots"],
                                  architecture=spec["architecture"],
                                  mean_service_seconds=spec["mean_service_seconds"])
        fixture = {key: spec[key] for key in (
            "input_queue_depth", "output_queue_depth", "output_destination",
            "expected_output_bytes")}
        fixture["cached_files"] = spec["cached"]
        if rng.random() < 0.5:  # else the queue's wait alone fails small thresholds
            fixture["input_queue_depth"] = 0
        sites.append(_site_doc(config, {spec["station"]: fixture}, spec["gridmap"]))
    jobs = []
    for job in world["jobs"]:
        for copy in range(rng.randint(1, 4)):
            ad = {"Owner": f'"{job["owner"]}"', "Dataset": f'"{job["dataset"]}"',
                  "RunSeconds": repr(rng.choice([0.0, 5.0, 60.0, 400.0]))}
            terms = []
            if job["req_arch"] is not None:
                terms.append(f'OTHER.Architecture == "{job["req_arch"]}"')
            if rng.random() < 0.4:
                terms.append("fun(Dataset, OTHER.Station_ID) > "
                             f"{-rng.choice([1.0, 5.0, 30.0, 150.0])!r}")
            if terms:
                ad["Requirements"] = " && ".join(terms)
            if job["output_bytes"] is not None:
                ad["OutputBytes"] = str(job["output_bytes"])
            jobs.append({"id": f"{job['id']}-{copy}", "ad": ad})
    rng.shuffle(jobs)
    ttl = rng.choice([sim.DEFAULT_TTL, sim.DEFAULT_TTL, 0.0, 40.0, 400.0, 4000.0])
    return _scenario_doc(catalog, sites, jobs, ttl=ttl)


def _outcome(world: GridWorld):
    world.run()
    return world.report(), world.event_log


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_skipped_cycles_change_no_report_or_event_log(policy):
    """Every world runs to the end, under every policy: no policy places a
    job where it cannot be staged. Each run also checks, at every cycle,
    that the heap is empty exactly when no job is in flight."""
    for seed in range(200):
        rng = random.Random(seed)
        scenario = load_scenario(_world_doc(make_world(rng), rng))
        got = _outcome(_CycleCountingWorld(scenario, policy, seed))
        assert got == _outcome(_EveryBatchWorld(scenario, policy, seed)), seed


def _reference_report(world: GridWorld) -> dict:
    """The report as `GridWorld.report` built it before it read each history
    once: a dict of each state's first stamp, then the resource of the
    latest match (`worldgen.matched_resource`) and the last entry's state
    and detail."""
    jobs = []
    staging_times = []
    for job in world.queue.jobs.values():
        entry = {"job": job.ad.ad_id, "state": job.state.value,
                 "resource": None, "staging_seconds": None,
                 "run_seconds": None, "total_seconds": None, "reason": None}
        if job.state is JobState.HELD:
            entry["reason"] = job.history[-1][2]
        stamps = {}
        for state, stamp, _ in job.history:
            stamps.setdefault(state, stamp)
        if JobState.MATCHED in stamps:
            entry["resource"] = matched_resource(job)
        if JobState.STAGING in stamps and JobState.RUNNING in stamps:
            entry["staging_seconds"] = stamps[JobState.RUNNING] - stamps[JobState.STAGING]
            staging_times.append(entry["staging_seconds"])
        if JobState.RUNNING in stamps and JobState.DONE in stamps:
            entry["run_seconds"] = stamps[JobState.DONE] - stamps[JobState.RUNNING]
        if JobState.DONE in stamps:
            entry["total_seconds"] = stamps[JobState.DONE] - stamps[JobState.SUBMITTED]
        jobs.append(entry)
    return {
        "scenario": world.scenario.name,
        "policy": world.policy,
        "seed": world.seed,
        "jobs": jobs,
        "mean_staging_seconds": (sum(staging_times) / len(staging_times)
                                 if staging_times else None),
        "max_staging_seconds": max(staging_times) if staging_times else None,
        "events": world.events_processed,
        "final_clock": world.clock,
    }


@settings(max_examples=100, deadline=None)
@given(strategies.integers(0, 2 ** 32 - 1), strategies.sampled_from(sim.POLICIES))
@example(0, "data-aware")  # held jobs beside a finished one
def test_the_one_pass_report_equals_the_multi_pass_one(seed, policy):
    rng = random.Random(seed)
    world = GridWorld(load_scenario(_world_doc(make_world(rng), rng)), policy, seed)
    world.run()
    assert world.report() == _reference_report(world)
    # a run never releases a job, so no history holds a state twice: release
    # each held job and step it on at random, holding it again or matching
    # it elsewhere, so that the first stamp of a state and the latest match
    # differ from the last stamp and the first match
    stamp = world.clock
    for record in list(world.queue.jobs.values()):
        for n in range(rng.randint(0, 8) if record.state is JobState.HELD else 0):
            cur = record.state
            if cur is JobState.DONE:
                break
            nxt = JobState.IDLE if cur is JobState.HELD else FORWARD[FORWARD.index(cur) + 1]
            if cur is not JobState.HELD and rng.random() < 0.3:
                nxt = JobState.HELD
            detail = {JobState.HELD: f"reason-{n}", JobState.MATCHED: f"slot-{n}"}.get(nxt)
            stamp += rng.choice([0.0, 1.5, 7.25])
            world.queue.transition(record.job_id, nxt, stamp, detail)
    assert world.report() == _reference_report(world)


class _WorklistCheckingWorld(GridWorld):
    """Checks, after the submits and after every cycle, that the idle
    worklist holds exactly the queue's Idle records, in job id order, and
    counts the checks made while some jobs, not all, had left it."""

    partial = 0

    def __init__(self, *args):
        super().__init__(*args)
        self._check()

    def _match_cycle(self) -> None:
        super()._match_cycle()
        self._check()

    def _check(self):
        idle = [r for r in self.queue.jobs.values() if r.state is JobState.IDLE]
        assert list(self._idle.items()) == [(r.job_id, r) for r in idle], self.clock
        self.partial += 0 < len(idle) < len(self.queue.jobs)


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_the_idle_worklist_holds_exactly_the_idle_jobs_in_job_id_order(policy):
    scenarios = [load_scenario(SAMPLE_DOC)]
    for seed in range(200):
        rng = random.Random(seed)
        scenarios.append(load_scenario(_world_doc(make_world(rng), rng)))
    partial = 0
    for seed, scenario in enumerate(scenarios):
        world = _WorklistCheckingWorld(scenario, policy, seed)
        world.run()
        assert not world._idle, (scenario.name, seed)  # a run ends with none idle
        partial += world.partial
    assert partial > 0


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_cycle_runs_only_at_the_start_and_after_a_batch_that_leaves_a_slot_free(policy):
    # with every slot busy a cycle can place nothing; an added cycle would
    # change no output, so only this count can catch one
    scenarios = [SKEWED, load_scenario(SAMPLE_DOC)]
    for seed in range(40):
        rng = random.Random(seed)
        doc = _world_doc(make_world(rng), rng)
        doc["ttl"] = sim.DEFAULT_TTL
        scenarios.append(load_scenario(doc))
    skipped = 0
    for seed, scenario in enumerate(scenarios):
        world = _CycleCountingWorld(scenario, policy, seed)
        world.run()
        assert world.cycles == 1 + world.free_batches, (scenario.name, seed)
        skipped += world.batches - world.free_batches
    assert skipped > 0


# -- the live free index -------------------------------------------------------------

def _rejoin_doc() -> dict:
    """Cluster S/c has 12 slots at station U, which reaches only the near
    data; cluster T/d has one slot at station R, which reaches only the far
    data. Twelve near jobs fill S/c in ad id order (#1, #10, #11, #12, #2,
    ...), and the ones on #11, #10 and #2 finish in that order. Three far
    jobs queue for T/d, which empties and refills twice; while they wait,
    every cycle offers them the free slots of S/c, where they cannot stage."""
    catalog = {"near": [["n0", 1_000_000_000, "NEAR"]],
               "far": [["f0", 1_000_000_000, "FAR"]]}
    sites = [_site_doc(make_site_config("S", "c", "U", {"NEAR": 1e8}, slots=12),
                       {"U": {"cached_files": ["n0"]}}),
             _site_doc(make_site_config("T", "d", "R", {"FAR": 1e8}),
                       {"R": {"cached_files": ["f0"]}})]
    # near job 2 runs on #10, 3 on #11 and 5 on #2
    runs = [("near", 200.0), ("near", 100.0), ("near", 50.0), ("near", 200.0),
            ("near", 150.0)] + [("near", 200.0)] * 7 + [("far", 1000.0),
                                                        ("far", 10.0), ("far", 10.0)]
    jobs = [{"id": f"j{i:02d}", "ad": {"Owner": f'"{ALICE}"', "Dataset": f'"{ds}"',
                                       "RunSeconds": repr(run)}}
            for i, (ds, run) in enumerate(runs, 1)]
    return _scenario_doc(catalog, sites, jobs)


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_freed_slots_rejoin_their_cluster_in_ad_id_order(policy, monkeypatch):
    scenario = load_scenario(_rejoin_doc())
    offered = []  # the member ids of every cluster a chooser was handed

    def record(clusters):
        offered.extend([s.ad.ad_id for s in members] for members in clusters)

    class Recording(GridWorld):
        def _choose_baseline(self, job, clusters, reg, env):
            record(clusters)
            return super()._choose_baseline(job, clusters, reg, env)

    def argmax(clusters, ranks, argmax=matchmaker._argmax):
        record(clusters)
        return argmax(clusters, ranks)

    with monkeypatch.context() as patch:
        patch.setattr(matchmaker, "_argmax", argmax)
        got = _outcome(Recording(scenario, policy, 0))
    # "#10" sorts before "#11" and "#2" in byte order
    assert all(ids == sorted(ids) for ids in offered)
    if policy != "random":  # random fills S/c in another order
        assert ["S/c#10", "S/c#11"] in offered  # #10 freed after #11
        assert ["S/c#10", "S/c#11", "S/c#2"] in offered  # then #2
    report, _ = got
    assert [j["state"] for j in report["jobs"]] == ["Done"] * 15
    assert [j["resource"] for j in report["jobs"][12:]] == ["T/d"] * 3
    assert got == _outcome(_EveryBatchWorld(scenario, policy, 0))


def test_only_the_first_world_of_a_scenario_builds_its_grid(monkeypatch):
    calls = []

    def counting(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("derive_service_config", "generate_classads"):
        monkeypatch.setattr(sim, name, counting(name, getattr(sim, name)))
    for name in ("collect_ad", "snapshot"):
        monkeypatch.setattr(sim.AdStore, name, counting(name, getattr(sim.AdStore, name)))
    scenario = load_scenario(_rejoin_doc())
    for k, policy in enumerate(sim.POLICIES):
        world = GridWorld(scenario, policy, 0)
        if k == 0:  # two sites, 13 slots in two clusters
            assert sorted(calls) == (["collect_ad"] * 13 + ["derive_service_config"] * 2
                                     + ["generate_classads"] * 2)
            stations, slots = dict(world.stations), dict(world.slots)
            assert len({id(s.cluster) for s in slots.values()}) == 2
            del calls[:]
        world.run()
        assert calls == []
    # no run changed the shared grid
    assert scenario.grid == (stations, slots)
    assert all(scenario.grid[1][ad_id] is s for ad_id, s in slots.items())


@pytest.mark.parametrize("doc", [SAMPLE_DOC, _rejoin_doc()], ids=["sample", "rejoin"])
def test_runs_that_share_a_grid_repeat_a_fresh_scenario_s_runs(doc):
    scenario = load_scenario(doc)
    first = run_scenario(scenario, "data-aware", 0)
    assert first == run_scenario(load_scenario(doc), "data-aware", 0)
    for policy in ("random", "round-robin"):
        assert run_scenario(scenario, policy, 0) == \
            run_scenario(load_scenario(doc), policy, 0)
    assert run_scenario(scenario, "data-aware", 0) == first


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_run_judges_each_job_autocluster_once_per_resource_cluster(policy, monkeypatch):
    # the rejoin scenario's 15 jobs share one Owner and Requirements and take
    # several cycles over two clusters; a run keeps its function-free
    # verdicts, and the next run, of the same scenario, judges them anew
    judged = []
    symmetric_match = matchmaker.symmetric_match

    def recording(job, res, reg, env):
        judged.append((job.lookup("Owner"), job.lookup("Requirements"), res.key()))
        return symmetric_match(job, res, reg, env)

    monkeypatch.setattr(matchmaker, "symmetric_match", recording)
    scenario = load_scenario(_rejoin_doc())
    per_run = []
    for _ in range(2):
        del judged[:]
        world = GridWorld(scenario, policy, 0)
        world.run()
        assert len(set(judged)) == len(judged) == 2
        per_run.append(_outcome(world))
    assert per_run[0] == per_run[1] == _outcome(_EveryBatchWorld(scenario, policy, 0))


def test_job_ads_keep_one_autocluster_per_expression_however_many_runs():
    scenario = load_scenario(_rejoin_doc())
    run_scenario(scenario, "data-aware", 0)
    first = {ad.ad_id: {start: entry[2] for start, entry in ad._autoclusters.items()}
             for ad in scenario.job_ads}
    for _ in range(3):
        for policy in sim.POLICIES:
            run_scenario(scenario, policy, 0)
    # the verdict's and the Rank's, each the same object in every run
    # (autoclusters compare by identity)
    assert all(len(ad._autoclusters) == 2 for ad in scenario.job_ads)
    assert first == {ad.ad_id: {start: entry[2] for start, entry in ad._autoclusters.items()}
                     for ad in scenario.job_ads}


# -- idle jobs whose group judgement is empty ---------------------------------------

def _backlog_doc(rng: random.Random) -> dict:
    """A backlog of 60 jobs on four two-slot sites of mixed architectures
    and partial gridmaps, no Requirements calling a function: jobs wait at
    the head of the queue that the clusters freed next cannot take."""
    subjects = [ALICE, "/C=US/O=demo/CN=bob", "/C=IT/O=demo/CN=carla"]
    names = ["Ankara", "bologna", "Chicago", "dallas"]
    catalog = {f"ds{d}": [[f"ds{d}-f{i}", rng.randint(10 ** 8, 10 ** 9), rng.choice(names)]
                          for i in range(3)] for d in range(3)}
    sites = []
    for k, name in enumerate(names):
        config = make_site_config(name, f"batch{k}", f"st{k}",
                                  {to: rng.choice([1e7, 1e8]) for to in names},
                                  slots=2, architecture=("Linux", "IRIX")[k % 2])
        cached = [f[0] for files in catalog.values() for f in files if rng.random() < 0.3]
        sites.append(_site_doc(config, {f"st{k}": {"cached_files": cached}},
                               gridmap=rng.sample(subjects, 2)))
    jobs = []
    for j in range(60):
        ad = {"Owner": f'"{rng.choice(subjects)}"', "Dataset": f'"ds{rng.randrange(3)}"',
              "RunSeconds": repr(rng.choice([50.0, 200.0, 900.0]))}
        if rng.random() < 0.5:
            ad["Requirements"] = f'OTHER.Architecture == "{rng.choice(["Linux", "IRIX"])}"'
        jobs.append({"id": f"j{j:02d}", "ad": ad})
    return _scenario_doc(catalog, sites, jobs)


class _PullEveryJobWorld(GridWorld):
    """Reference cycle: `GridWorld`'s, with a pull that passes over no idle
    job. Every job the pass reaches is judged and decided, and a cycle that
    began with an event pending drops the no-match decisions."""

    def _match_cycle(self) -> None:
        idle = list(self._idle.values())
        if not idle:
            return
        self._query.start_cycle(self.stations)
        saw_everything = not self._heap
        choose = None if self.policy == "data-aware" else self._choose_baseline
        index = self._free if self.clock < self.scenario.ttl else {}
        verdicts = matchmaker.Verdicts(index, self._verdicts, self.registry)
        decisions = list(sim.match_jobs(index, (r.ad for r in idle), self.registry,
                                        self._env, choose=choose, verdicts=verdicts))
        for record, decision in zip(idle, decisions):
            if decision.matched:
                saw_everything = False
                self._start_staging(record, decision)
            elif saw_everything:
                self._hold(record, decision.reason)
        if saw_everything:
            for record in list(self._idle.values()):
                self._hold(record, "no-candidates")


def _counted_run(world: GridWorld, monkeypatch) -> tuple:
    """The run's outcome, how many jobs its passes decided, how many times
    a chooser ran (the Rank argmax, or the random or round-robin one), and
    how many Requirements pairs it evaluated."""
    judged, chosen, evaluated = [0], [0], [0]
    match_jobs, argmax = sim.match_jobs, matchmaker._argmax
    symmetric_match = matchmaker.symmetric_match

    def counting(*args, **kwargs):
        for decision in match_jobs(*args, **kwargs):
            judged[0] += 1
            yield decision

    def counted_argmax(*args):
        chosen[0] += 1
        return argmax(*args)

    def counted_match(*args):
        evaluated[0] += 1
        return symmetric_match(*args)

    choose_baseline = world._choose_baseline

    def counted_baseline(*args):
        chosen[0] += 1
        return choose_baseline(*args)

    world._choose_baseline = counted_baseline
    with monkeypatch.context() as patch:
        patch.setattr(sim, "match_jobs", counting)
        patch.setattr(matchmaker, "_argmax", counted_argmax)
        patch.setattr(matchmaker, "symmetric_match", counted_match)
        outcome = _outcome(world)
    return outcome, judged[0], chosen[0], evaluated[0]


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_pull_passes_over_the_jobs_the_kept_verdicts_refuse(policy, monkeypatch):
    # a pending cycle passes over a job whose group's judgement is empty: the
    # same runs as when every idle job is pulled, with the same chooser
    # calls, fewer decisions, and no more Requirements evaluated
    skipped = 0
    for seed in range(5):
        scenario = load_scenario(_backlog_doc(random.Random(seed)))
        got, judged, chosen, evaluated = _counted_run(
            GridWorld(scenario, policy, seed), monkeypatch)
        want, judged_all, chosen_all, evaluated_all = _counted_run(
            _PullEveryJobWorld(scenario, policy, seed), monkeypatch)
        assert got == want == _outcome(_EveryBatchWorld(scenario, policy, seed)), seed
        assert chosen == chosen_all, seed
        assert judged <= judged_all, seed
        assert evaluated <= evaluated_all, seed
        skipped += judged_all - judged
    assert skipped > 0


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_pending_cycle_passes_over_a_group_whose_verdicts_call_a_function(policy,
                                                                            monkeypatch):
    # in the staged-batch scenario, j2's group reads the station through
    # fun(), and its judgement at t=10, while j1 stages, is empty: the pull
    # passes over j2 there, where pulling every job decides it
    scenario = load_scenario(_staged_batch_doc())
    judge, judged = matchmaker.Verdicts.judge, []

    def recording(self, job, env):
        passing, row = judge(self, job, env)
        group = job.autocluster(matchmaker._VERDICT_READS, self._others, self._reg)
        judged.append((job.ad_id, group.calls, bool(passing)))
        return passing, row

    def decisions(world: GridWorld) -> list:
        """(clock, job id, matched) of each decision the world's passes yield."""
        got, match_jobs = [], sim.match_jobs

        def recorded(*args, **kwargs):
            for decision in match_jobs(*args, **kwargs):
                got.append((world.clock, decision.job_id, decision.matched))
                yield decision

        with monkeypatch.context() as patch:
            patch.setattr(matchmaker.Verdicts, "judge", recording)
            patch.setattr(sim, "match_jobs", recorded)
            world.run()
        return got

    assert decisions(GridWorld(scenario, policy, 0)) == [
        (0.0, "j0", True), (0.0, "j1", True), (50.0, "j2", True)]
    assert ("j2", True, False) in judged  # judged at t=10, and passed over
    reference = _PullEveryJobWorld(scenario, policy, 0)
    assert (10.0, "j2", False) in decisions(reference)
    assert (reference.report(), reference.event_log) == \
        _outcome(GridWorld(scenario, policy, 0))


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_world_that_has_run_dies_with_its_last_reference(policy):
    # no reference cycle holds it: with the collector off, a cycle would
    # keep every job record and history entry of the run alive
    scenario = load_scenario(_backlog_doc(random.Random(0)))
    gc.disable()
    try:
        world = GridWorld(scenario, policy, 0)
        world.run()
        world.report()
        ref = weakref.ref(world)
        del world
        assert ref() is None
    finally:
        gc.enable()


# -- round-robin -------------------------------------------------------------------------

class _RotationWorld(GridWorld):
    """Round-robin by the rotation it once kept: every slot in ad id order
    and a pointer one past the last pick, from which each pick scans the
    whole rotation for an authorized ad that can stage the job. Counts the
    picks that wrapped round past the end of the rotation."""

    wrapped = 0

    def __init__(self, *args):
        super().__init__(*args)
        self._order, self._ptr = sorted(self.slots), 0

    def _choose_baseline(self, job, clusters, reg, env):
        by_id = {s.ad.ad_id: s for members in clusters for s in members}
        dataset, out_bytes = job.self_text("Dataset"), output_bytes(job)
        n = len(self._order)
        for k in range(n):
            pick = by_id.get(self._order[(self._ptr + k) % n])
            if pick is None:
                continue
            try:
                self._query(dataset, pick.station_id, out_bytes)
            except (NoRouteToSource, UnknownDataset, ScoreOverflow):
                continue
            self.wrapped += self._ptr + k >= n
            self._ptr = (self._ptr + k + 1) % n
            return pick, 0.0
        return None


def test_round_robin_picks_as_the_rotation_over_every_slot_did():
    scenarios = [load_scenario(SAMPLE_DOC), load_scenario(_rejoin_doc()), SKEWED]
    for seed in range(5):
        scenarios.append(load_scenario(_backlog_doc(random.Random(seed))))
    for seed in range(150):
        rng = random.Random(seed)
        scenarios.append(load_scenario(_world_doc(make_world(rng), rng)))
    wrapped = 0
    for seed, scenario in enumerate(scenarios):
        reference = _RotationWorld(scenario, "round-robin", seed)
        want = _outcome(reference)
        assert _outcome(GridWorld(scenario, "round-robin", seed)) == want, seed
        wrapped += reference.wrapped
    assert wrapped > 0


# -- routes ------------------------------------------------------------------------------

def _route_doc(*, output_bytes=None, sites=("R", "U")):
    """One slot per listed site. Station R links to HOME, the source of d's
    file, and sends output there; station U reaches neither. Four jobs read d."""
    catalog = {"d": [["f0", 1_000_000_000, "HOME"]]}
    stations = {"R": ({"HOME": 1e8}, {"output_destination": "HOME"}),
                "U": ({"AWAY": 1e8}, {})}
    site_docs = []
    for site in sites:
        links, fixture = stations[site]
        config = make_site_config(site, "c", site, links)
        site_docs.append(_site_doc(config, {site: fixture}))
    jobs = []
    for i in range(4):
        ad = {"Owner": f'"{ALICE}"', "Dataset": '"d"', "RunSeconds": "10.0"}
        if output_bytes is not None:
            ad["OutputBytes"] = str(output_bytes)
        jobs.append({"id": f"j{i}", "ad": ad})
    return _scenario_doc(catalog, site_docs, jobs)


@pytest.mark.parametrize("output_bytes", [None, 1_000_000])
@pytest.mark.parametrize("policy", sim.POLICIES)
def test_every_policy_places_jobs_only_where_they_can_stage(policy, output_bytes):
    doc = _route_doc(output_bytes=output_bytes)
    if output_bytes is not None:  # input cached at both; only R can send output
        for site in doc["sites"]:
            for fixture in site["stations"].values():
                fixture["cached_files"] = ["f0"]
    scenario = load_scenario(doc)
    for seed in range(5):
        world = GridWorld(scenario, policy, seed)
        world.run()
        report = world.report()
        assert [j["state"] for j in report["jobs"]] == ["Done"] * 4, seed
        assert {world.slots[j["resource"]].station_id for j in report["jobs"]} == {"R"}


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_job_no_station_can_stage_is_held_under_every_policy(policy):
    report, _ = run_scenario(load_scenario(_route_doc(sites=("U",))), policy, 0)
    assert [(j["state"], j["reason"]) for j in report["jobs"]] == \
        [("Held", "all-rank-error")] * 4


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_score_past_a_float_holds_every_job(policy):
    # 1e300 bytes over 1e-10 bytes/second: random and round-robin once staged
    # a job for an infinite time and held the other with no candidates
    doc = _one_site_doc(datasets={"d": [["f0", 10 ** 300, "HOME"]]},
                        links={"HOME": 1e-10}, jobs=("d", "d"), slots=2)
    report, _ = run_scenario(load_scenario(doc), policy, 0)
    assert [(j["state"], j["reason"]) for j in report["jobs"]] == \
        [("Held", "all-rank-error")] * 2
    assert report["final_clock"] == 0.0


# -- quiescence ------------------------------------------------------------------------

@pytest.mark.parametrize("policy", sim.POLICIES)
def test_an_event_time_past_a_float_is_non_quiescent(policy):
    # each staging takes 1e308 s, so the second one would end at infinity:
    # the report once gave its staging time and the final clock as inf
    doc = _one_site_doc(datasets={"a": [["fa", 10 ** 308, "HOME"]],
                                  "b": [["fb", 10 ** 308, "HOME"]]},
                        links={"HOME": 1.0}, jobs=("a", "b"))
    doc["ttl"] = 1.7e308
    with pytest.raises(NonQuiescent, match="job j2: event time inf is not finite"):
        run_scenario(load_scenario(doc), policy, 0)


def _two_events_per_match(report: dict, events: list[dict]) -> int:
    """The run's matches, checked to be half its events, as `GridWorld.run`
    argues: that bound, not a cap, ends every run."""
    matches = sum(event["event"] == "match" for event in events)
    assert report["events"] == 2 * matches
    return matches


@pytest.mark.parametrize("shape", ["backlog", "burst"])
@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_bench_run_processes_two_events_per_match(shape, policy):
    bench = bench_scenarios()
    for seed in range(1, 6):
        scenario = load_scenario(bench.scenario_doc(bench.make_grid(seed, shape)))
        assert _two_events_per_match(*run_scenario(scenario, policy, seed)) > 0


@pytest.mark.parametrize("policy", sim.POLICIES)
def test_a_random_world_processes_two_events_per_match(policy):
    matched = 0
    for seed in range(60):
        rng = random.Random(seed)
        scenario = load_scenario(_world_doc(make_world(rng), rng))
        matched += _two_events_per_match(*run_scenario(scenario, policy, seed)) > 0
    assert matched > 30  # most worlds place some job


# -- one judgement per verdict autocluster per pass -------------------------------------

def _check_judgements(seed: int, policy: str) -> collections.Counter:
    """A run of a `worldgen` world in which every `Verdicts.judge` answer is
    checked against judging the job alone, with an empty row, at that point
    of the pass: the same passing member lists, as a set, each one the
    index's own and not empty, and, when there are none, the same no-match
    reason from the group's row as from the job's own. Counts the answers
    that were kept from an earlier job of the group, by whether the group's
    verdict calls a function."""
    rng = random.Random(seed)
    scenario = load_scenario(_world_doc(make_world(rng), rng))
    judge, kept = matchmaker.Verdicts.judge, collections.Counter()

    def checking(self, job, env):
        group = job.autocluster(matchmaker._VERDICT_READS, self._others, self._reg)
        reused = group in self._judged and self._size == len(self._index)
        got, row = judge(self, job, env)
        fresh, fresh_row = matchmaker._passing(job, self._index, {}, self._reg, env)
        assert {id(members) for members in got} == {id(members) for members in fresh}
        assert all(members and self._index[members[0].cluster] is members
                   for members in got)
        if not got:
            reason = matchmaker._reason(job, self._index, fresh_row, self._reg, env)
            assert matchmaker._reason(job, self._index, row, self._reg, env) == reason
        if reused:
            kept["calls" if group.calls or self._kept is self._fresh else "kept"] += 1
        return got, row

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matchmaker.Verdicts, "judge", checking)
        run_scenario(scenario, policy, seed)
    return kept


@settings(max_examples=150, deadline=None)
@given(strategies.integers(0, 2 ** 32 - 1), strategies.sampled_from(sim.POLICIES))
def test_a_group_judged_once_per_pass_answers_what_judging_each_job_does(seed, policy):
    _check_judgements(seed, policy)


def test_the_worlds_reuse_judgements_of_groups_that_call_functions_and_not():
    # the property above means something only if answers are reused, for
    # groups whose verdict calls fun() as well as for the others
    reused = collections.Counter()
    for seed in range(60):
        for policy in sim.POLICIES:
            reused.update(kind for kind, n in _check_judgements(seed, policy).items() if n)
    assert min(reused["calls"], reused["kept"]) > 10, reused
