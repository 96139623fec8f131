"""Metamorphic relations of the simulator: a change to a scenario whose
effect on the run is known exactly, checked without a second implementation
(Chen, Cheung & Yiu, "Metamorphic Testing", 1998).

- Site order: reversing the scenario's `sites` changes no report entry and
  no event of the log; no decision depends on that order.
- Power-of-two time scale: halving every link bandwidth and doubling every
  `mean_service_seconds`, every job's `RunSeconds` and every time a job's
  Requirements compare against doubles every time the run reports, exactly:
  scaling by a power of two commutes with float rounding (short of
  overflow and subnormals), so every comparison the run makes comes out the
  same.
"""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

import vogrid.sim as sim
from vogrid.conftree import read_tree, write_tree
from vogrid.sim import load_scenario, make_site_config, run_scenario

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


def _check_relations(doc: dict, policy: str, seed: int) -> dict:
    report, events = run_scenario(load_scenario(doc), policy, seed)
    assert run_scenario(load_scenario(_reversed_sites(doc)), policy, seed) == \
        (report, events)
    assert run_scenario(load_scenario(_doubled_time(doc)), policy, seed) == \
        _doubled_run(report, events)
    return report


# -- the bench shapes ----------------------------------------------------------------

@pytest.mark.parametrize("shape", ["backlog", "burst"])
@pytest.mark.parametrize("policy", sim.POLICIES)
def test_the_bench_shapes_keep_both_relations(shape, policy):
    for seed in range(1, 6):
        doc = BENCH.scenario_doc(BENCH.make_grid(seed, shape))
        report = _check_relations(doc, policy, seed)
        # no relation holds vacuously: the runs stage, and take time doing it
        assert report["mean_staging_seconds"] > 0


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
