"""Metamorphic relations of the simulator and of the matchmaking service: a
change to an input whose effect on the output is known exactly, checked
without a second implementation (Chen, Cheung & Yiu, "Metamorphic
Testing", 1998).

- Site order: reversing the scenario's `sites` changes no report entry and
  no event of the log; no decision depends on that order.
- Power-of-two time scale: halving every link bandwidth and doubling every
  `mean_service_seconds`, every job's `RunSeconds` and every time a job's
  Requirements compare against doubles every time the run reports, exactly:
  scaling by a power of two commutes with float rounding (short of
  overflow and subnormals), so every comparison the run makes comes out the
  same.
- Owner renaming: renaming every Owner subject, in the jobs and the
  gridmaps alike, by one map that reverses their byte order changes no
  report entry and no event; a subject is only ever looked up in a gridmap.
- Job id renaming: renaming every job id by one map that reverses their
  byte order renames them in the report and the event log and changes
  nothing else; jobs are pulled in submission order, never by id.
- A foreign site: adding a one-slot site whose gridmap names no job's Owner
  changes nothing but some holds' reasons. A job held with no-candidates
  before the TTL is held with unauthorized-everywhere instead exactly when
  it and the foreign slot pass each other's Requirements: that slot is
  never claimed, so it is in every pass's free index, and its gridmap
  refuses every job. On the bench shapes, which hold no job, the run is
  the same.
- ADVERTISE order: a matchmaking service answers every MATCH_REQUEST the
  same whatever order the same ADVERTISEs arrived in.
"""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

import vogrid.sim as sim
from vogrid.advertise import generate_classads, select_patterns
from vogrid.classads import ad_to_json, symmetric_match
from vogrid.conftree import read_tree, write_tree
from vogrid.matchmaker import MatchmakerService, standard_registry
from vogrid.sim import load_scenario, make_site_config, run_scenario
from vogrid.station import get_preference

from conftest import bench_scenarios
from worldgen import make_world

# the job attributes that hold a time
TIME_ATTRS = ("RunSeconds", "Patience")


BENCH = bench_scenarios()


# -- the relations -------------------------------------------------------------------

def _reversed_sites(doc: dict) -> dict:
    return dict(doc, sites=list(reversed(doc["sites"])))


def _scaled_tree(node) -> None:
    """Halve each link's bandwidth and double each station's mean service
    time, in place."""
    if node.element_name == "link":
        bw = node.attributes["bandwidth_bytes_per_second"]
        node.attributes["bandwidth_bytes_per_second"] = repr(float(bw) / 2)
    elif node.element_name == "station":
        service = node.attributes["mean_service_seconds"]
        node.attributes["mean_service_seconds"] = repr(float(service) * 2)
    for child in node.children:
        _scaled_tree(child)


def _doubled_time(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    for site in doc["sites"]:
        tree = read_tree(site["config_xml"])
        _scaled_tree(tree)
        site["config_xml"] = write_tree(tree)
    for job in doc["jobs"]:
        for attr in TIME_ATTRS:
            if attr in job["ad"]:
                job["ad"][attr] = repr(float(job["ad"][attr]) * 2)
    if doc.get("ttl") is not None:
        doc["ttl"] = doc["ttl"] * 2
    return doc


def _double(x):
    return None if x is None else x * 2


def _doubled_run(report: dict, events: list[dict]) -> tuple[dict, list[dict]]:
    """What the run of the time-doubled scenario must give: every time in
    the report and the event log doubled, and nothing else changed."""
    report = dict(report, jobs=[
        dict(job, **{key: _double(job[key])
                     for key in ("staging_seconds", "run_seconds", "total_seconds")})
        for job in report["jobs"]])
    for key in ("mean_staging_seconds", "max_staging_seconds", "final_clock"):
        report[key] = _double(report[key])
    events = [dict(event, **{key: event[key] * 2 for key in ("t", "staging_seconds", "rank")
                             if key in event})
              for event in events]
    return report, events


def _owner(source: str) -> str:
    """The subject an Owner source quotes; these sources escape nothing."""
    assert source[0] == source[-1] == '"' and source.count('"') == 2
    assert "\\" not in source
    return source[1:-1]


def _renamed_owners(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    subjects = sorted({_owner(job["ad"]["Owner"]) for job in doc["jobs"]}
                      | {s for site in doc["sites"] for s in site["gridmap"]})
    new = {s: f"/CN=renamed{len(subjects) - k:03d}" for k, s in enumerate(subjects)}
    for job in doc["jobs"]:
        job["ad"]["Owner"] = f'"{new[_owner(job["ad"]["Owner"])]}"'
    for site in doc["sites"]:
        site["gridmap"] = [new[s] for s in site["gridmap"]]
    return doc


def _renamed_jobs(doc: dict) -> tuple[dict, dict[str, str]]:
    """The scenario with every job id renamed, and the renaming."""
    ids = sorted(job["id"] for job in doc["jobs"])
    new = {job_id: f"renamed{len(ids) - k:05d}" for k, job_id in enumerate(ids)}
    doc = copy.deepcopy(doc)
    for job in doc["jobs"]:
        job["id"] = new[job["id"]]
    return doc, new


def _renamed_run(report: dict, events: list[dict],
                 new: dict[str, str]) -> tuple[dict, list[dict]]:
    report = dict(report, jobs=[dict(job, job=new[job["job"]]) for job in report["jobs"]])
    return report, [dict(event, job=new[event["job"]]) for event in events]


FOREIGN_ID, FOREIGN_SUBJECT = "Foreign/cf", "/CN=foreign"


def _with_foreign_site(doc: dict) -> dict:
    """The scenario with one more site: one Linux slot, behind a station
    with no links, whose gridmap names no job's Owner."""
    assert FOREIGN_SUBJECT not in {_owner(job["ad"]["Owner"]) for job in doc["jobs"]}
    config = make_site_config("Foreign", "cf", "st-foreign", {}, architecture="Linux")
    site = {"config_xml": write_tree(config), "stations": {}, "gridmap": [FOREIGN_SUBJECT]}
    return dict(doc, sites=[*doc["sites"], site])


def _foreign_run(doc: dict, report: dict, events: list[dict]) -> tuple[dict, list[dict]]:
    """What the run with the foreign site must give. Its station has no
    links, so a fun() call there is an Error whatever the clock: whether
    the job and the slot pass each other is the same at every hold."""
    scenario = load_scenario(_with_foreign_site(doc))
    _, slots = scenario.grid
    slot, reg = slots[FOREIGN_ID].ad, standard_registry()
    passes = {ad.ad_id: symmetric_match(ad, slot, reg, None) for ad in scenario.job_ads}

    def reason(job_id: str, was: str, t: float) -> str:
        if was == "no-candidates" and passes[job_id] and t < scenario.ttl:
            return "unauthorized-everywhere"
        return was

    held = {e["job"]: e for e in events if e["event"] == "held"}
    events = [dict(e, reason=reason(e["job"], e["reason"], e["t"]))
              if e["event"] == "held" else e for e in events]
    report = dict(report, jobs=[
        dict(job, reason=reason(job["job"], job["reason"], held[job["job"]]["t"]))
        if job["job"] in held else job for job in report["jobs"]])
    return report, events


def _check_relations(doc: dict, policy: str, seed: int) -> dict:
    report, events = run_scenario(load_scenario(doc), policy, seed)
    assert run_scenario(load_scenario(_reversed_sites(doc)), policy, seed) == \
        (report, events)
    assert run_scenario(load_scenario(_doubled_time(doc)), policy, seed) == \
        _doubled_run(report, events)
    return report


def _check_renamings(doc: dict, policy: str, seed: int) -> bool:
    """Check both renamings and the foreign site; whether that site changed
    a reason."""
    run = run_scenario(load_scenario(doc), policy, seed)
    report, events = run
    assert run_scenario(load_scenario(_renamed_owners(doc)), policy, seed) == run
    renamed, new = _renamed_jobs(doc)
    assert run_scenario(load_scenario(renamed), policy, seed) == \
        _renamed_run(report, events, new)
    foreign = _foreign_run(doc, report, events)
    assert run_scenario(load_scenario(_with_foreign_site(doc)), policy, seed) == foreign
    return foreign != run


# -- the bench shapes ----------------------------------------------------------------

@pytest.mark.parametrize("shape", ["backlog", "burst"])
@pytest.mark.parametrize("policy", sim.POLICIES)
def test_the_bench_shapes_keep_both_relations(shape, policy):
    for seed in range(1, 6):
        doc = BENCH.scenario_doc(BENCH.make_grid(seed, shape))
        report = _check_relations(doc, policy, seed)
        # no relation holds vacuously: the runs stage, and take time doing it
        assert report["mean_staging_seconds"] > 0


@pytest.mark.parametrize("shape", ["backlog", "burst"])
@pytest.mark.parametrize("policy", sim.POLICIES)
def test_the_bench_shapes_keep_the_renamings_and_the_foreign_site(shape, policy):
    for seed in range(1, 6):
        doc = BENCH.scenario_doc(BENCH.make_grid(seed, shape))
        # no job is held, so the foreign site changes nothing
        assert not _check_renamings(doc, policy, seed)


# -- random worlds -------------------------------------------------------------------

def _world_doc(world: dict, rng: random.Random) -> dict:
    """A scenario from a `worldgen` world. Some jobs' Requirements compare
    the station's score, read through fun(), with their own Patience, a
    time; some scenarios' TTL ends before the last job could start."""
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
        sites.append({"config_xml": write_tree(config),
                      "stations": {spec["station"]: fixture},
                      "gridmap": spec["gridmap"]})
    jobs = []
    for job in world["jobs"]:
        for copy_ in range(rng.randint(1, 3)):
            ad = {"Owner": f'"{job["owner"]}"', "Dataset": f'"{job["dataset"]}"',
                  "RunSeconds": repr(rng.choice([0.0, 5.0, 60.0, 400.0]))}
            terms = []
            if job["req_arch"] is not None:
                terms.append(f'OTHER.Architecture == "{job["req_arch"]}"')
            if rng.random() < 0.4:
                ad["Patience"] = repr(rng.choice([1.0, 5.0, 30.0, 150.0]))
                terms.append("fun(Dataset, OTHER.Station_ID) > -Patience")
            if terms:
                ad["Requirements"] = " && ".join(terms)
            if job["output_bytes"] is not None:
                ad["OutputBytes"] = str(job["output_bytes"])
            jobs.append({"id": f"{job['id']}-{copy_}", "ad": ad})
    rng.shuffle(jobs)
    ttl = rng.choice([None, None, 40.0, 400.0])
    return {"name": "metamorphic", "catalog": world["catalog"], "sites": sites,
            "jobs": jobs, "ttl": ttl}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sim.POLICIES))
def test_random_worlds_keep_both_relations(seed, policy):
    rng = random.Random(seed)
    _check_relations(_world_doc(make_world(rng), rng), policy, seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sim.POLICIES))
def test_random_worlds_keep_the_renamings_and_the_foreign_site(seed, policy):
    rng = random.Random(seed)
    _check_renamings(_world_doc(make_world(rng), rng), policy, seed)


def test_the_foreign_site_changes_some_reasons_of_the_random_worlds():
    # the foreign site's relation is not only the identity
    changed = 0
    for seed in range(40):
        for policy in sim.POLICIES:
            rng = random.Random(seed)
            changed += _check_renamings(_world_doc(make_world(rng), rng), policy, seed)
    assert changed > 0


# -- the matchmaking service ---------------------------------------------------------

def _answers(scenario, adverts: list[dict], requests: list[dict]) -> list[dict]:
    """The replies of a fresh service, with the scenario's stations answering
    in process, to `adverts` and then to `requests`."""
    stations, _ = scenario.grid

    def query(dataset, station_id, output_bytes):
        return get_preference(scenario.catalog, stations[station_id], dataset,
                              output_bytes).score

    service = MatchmakerService(station_query=query, clock=lambda: 0.0)
    for msg in adverts:
        assert service.handle_message(msg)["result"]["ok"]
    return [service.handle_message(msg) for msg in requests]


@pytest.mark.parametrize("seed", range(1, 6))
def test_match_replies_do_not_depend_on_advertise_order(seed):
    grid = BENCH.make_grid(seed, "wire")
    doc = BENCH.scenario_doc(grid)
    adverts = [{"type": "ADVERTISE", "id": 0, "ad": ad_to_json(ad),
                "gridmap": site["gridmap"], "ttl": 3600.0}
               for site in doc["sites"]
               for ad in generate_classads(select_patterns(read_tree(site["config_xml"])))]
    jobs = [{"id": job["id"], "kind": "job",
             "attrs": dict(BENCH.job_attrs(job, with_run_seconds=False),
                           Rank="fun(Dataset, OTHER.Station_ID)")}
            for job in grid["jobs"]]
    requests = [{"type": "MATCH_REQUEST", "id": 1, "jobs": [job]} for job in jobs]
    requests.append({"type": "MATCH_REQUEST", "id": 2, "jobs": jobs})
    scenario = load_scenario(doc)
    replies = _answers(scenario, adverts, requests)
    # not vacuous: every job matches alone, and the whole batch does not
    assert all(r["result"]["decisions"][0]["outcome"] == "matched" for r in replies[:-1])
    assert {d["outcome"] for d in replies[-1]["result"]["decisions"]} == \
        {"matched", "no-match"}
    rng = random.Random(seed)
    for _ in range(4):
        rng.shuffle(adverts)
        assert _answers(scenario, adverts, requests) == replies
