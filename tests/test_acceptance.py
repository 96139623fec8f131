"""Acceptance gate: one test per shipping criterion.

Each criterion leaves a PASS or FAIL line in the terminal summary (see
conftest.pytest_terminal_summary), so a plain pytest run ends with a
human-readable verdict list. Tolerances are pinned here and nowhere else.
"""

import dataclasses
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

from vogrid import wire
from vogrid.advertise import generate_classads, select_patterns
from vogrid.classads import (
    EMPTY_REGISTRY,
    ERROR,
    FALSE,
    TRUE,
    UNDEFINED,
    AdKind,
    ad_to_json,
    evaluate,
    integer,
    parse_classad,
    parse_expr,
    real,
)
from vogrid.conftree import read_tree, write_tree
from vogrid.conftree.configurator import configure
from vogrid.conftree.meta import meta_schema
from vogrid.conftree.session import parse_answer_file
from vogrid.matchmaker import run_match_cycle
from vogrid.sim import load_scenario, run_scenario
from vogrid.station import DatasetCatalog, StationState, get_preference

from conftest import ACCEPTANCE_RESULTS, fixture_text
from worldgen import (
    make_dominance_scenario,
    make_world,
    mutate_config,
    oracle_decisions,
    world_runtime,
)

RANK_REL_TOL = 1e-9
SCORE_REL_TOL = 1e-9


@contextmanager
def criterion(n: int, summary: str):
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append(f"FAIL criterion {n}: {summary}")
        raise
    ACCEPTANCE_RESULTS.append(f"PASS criterion {n}: {summary}")


# -- 1: scripted configuration reproduces the golden listing -------------------------

def test_criterion_1_golden_configuration():
    with criterion(1, "scripted configuration reproduces the golden config"):
        start = time.perf_counter()
        schema = read_tree(fixture_text("minimal_schema.xml"))
        answers = parse_answer_file(fixture_text("minimal_user_answers.txt"))
        config = configure(schema, answers)
        elapsed = time.perf_counter() - start
        assert write_tree(config) == fixture_text("minimal_config_golden.xml")
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# -- 2: two-stage composition (design the schema, then configure it) -----------------

DESIGNS = [
    ("minimal_design_answers.txt", "minimal_schema.xml",
     "minimal_user_answers.txt", "minimal_config_golden.xml"),
    ("site_design_answers.txt", "site_schema_v0_3.xml",
     "site_user_answers.txt", "config_fnal.xml"),
    ("storage_design_answers.txt", "storage_schema.xml",
     "storage_user_answers.txt", "storage_config_golden.xml"),
]


def test_criterion_2_configurator_composition():
    with criterion(2, "meta-schema -> schema -> config composition, 3 designs"):
        for design, schema_file, user, config_file in DESIGNS:
            designed = configure(meta_schema(),
                                 parse_answer_file(fixture_text(design)))
            assert designed == read_tree(fixture_text(schema_file)), schema_file
            config = configure(designed,
                               parse_answer_file(fixture_text(user)))
            assert config == read_tree(fixture_text(config_file)), config_file


# -- 3: advertised identities survive benign config evolution ------------------------

def _ad_triples(config):
    def text_of(ad, name):
        return evaluate(ad.lookup(name), ad, None, EMPTY_REGISTRY).data
    return [(text_of(ad, "Name"), text_of(ad, "Gatekeeper"),
             text_of(ad, "Station_ID"))
            for ad in generate_classads(select_patterns(config))]


def test_criterion_3_evolution_stability():
    with criterion(3, "config evolution preserves advertised ads, 200 mutations"):
        base = read_tree(fixture_text("config_fnal.xml"))
        baseline = _ad_triples(base)
        evolved = read_tree(fixture_text("config_fnal_evolved.xml"))
        assert _ad_triples(evolved) == baseline
        for seed in range(200):
            mutated = mutate_config(base, random.Random(seed))
            assert _ad_triples(mutated) == baseline, f"seed {seed}"


# -- 4: match decisions equal an independent brute-force oracle ----------------------

def test_criterion_4_argmax_oracle():
    with criterion(4, "200 seeded worlds match the brute-force oracle"):
        start = time.perf_counter()
        for seed in range(1000, 1200):
            world = make_world(random.Random(seed))
            rt = world_runtime(world)
            got = run_match_cycle(rt["store"], rt["jobs"], rt["registry"],
                                  rt["env"], now=0.0)
            want = oracle_decisions(world)
            assert len(got) == len(want), f"seed {seed}"
            for d, w in zip(got, want):
                assert d.job_id == w["job_id"], f"seed {seed}"
                if "rank" in w:
                    assert d.matched, f"seed {seed}: {d} vs {w}"
                    assert d.resource_id == w["resource_id"], \
                        f"seed {seed}: {d.resource_id} vs {w['resource_id']}"
                    assert math.isclose(d.rank, w["rank"],
                                        rel_tol=RANK_REL_TOL, abs_tol=0.0), \
                        f"seed {seed}: {d.rank} vs {w['rank']}"
                else:
                    assert not d.matched and d.reason == w["reason"], \
                        f"seed {seed}: {d} vs {w}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


# -- 5: the three-valued logic truth table -------------------------------------------

def test_criterion_5_truth_table():
    with criterion(5, "72-row logic truth table reproduced exactly"):
        table = json.loads(fixture_text("truth_table.json"))
        rows = table["rows"]
        assert len(rows) == 72
        empty = parse_classad("", AdKind.JOB)
        lookup = {"true": TRUE, "false": FALSE, "undefined": UNDEFINED,
                  "error": ERROR, "0": integer(0), "1.5": real(1.5)}
        for row in rows:
            got = evaluate(parse_expr(row["expr"]), empty, None, EMPTY_REGISTRY)
            assert got == lookup[row["result"]], row["expr"]


# -- 6: a subject in no gridmap never matches ----------------------------------------

def test_criterion_6_authorization_soundness():
    with criterion(6, "unlisted owner never matches across 100 worlds"):
        reasons_seen = set()
        for seed in range(2000, 2100):
            world = make_world(random.Random(seed), outsider_job=True)
            rt = world_runtime(world)
            got = {d.job_id: d for d in
                   run_match_cycle(rt["store"], rt["jobs"], rt["registry"],
                                   rt["env"], now=0.0)}
            want = {w["job_id"]: w for w in oracle_decisions(world)}
            for job in world["jobs"]:
                if not job.get("outsider"):
                    continue
                d = got[job["id"]]
                assert not d.matched, f"seed {seed}: outsider matched"
                # unauthorized-everywhere exactly when something passed
                # Requirements; otherwise there were no candidates at all
                assert d.reason in ("unauthorized-everywhere", "no-candidates")
                assert d.reason == want[job["id"]]["reason"], f"seed {seed}"
                reasons_seen.add(d.reason)
        assert reasons_seen == {"unauthorized-everywhere", "no-candidates"}


# -- 7: preference scores move the right way -----------------------------------------

def _random_station(rng):
    sites = rng.sample(["S1", "S2", "S3", "S4"], rng.randint(1, 4))
    files = [(f"f{i:02d}", rng.randint(1, 10 ** 9), rng.choice(sites))
             for i in range(rng.randint(1, 15))]
    catalog = DatasetCatalog({"ds": files})
    links = {s: rng.choice([1e7, 5e7, 1e8, 2e8]) for s in sites}
    dest = rng.choice(sorted(links)) if rng.random() < 0.5 else ""
    station = StationState(
        station_id="st",
        cached_files=frozenset(rng.sample([f[0] for f in files],
                                          rng.randint(0, len(files)))),
        input_queue_depth=rng.randint(0, 5),
        output_queue_depth=rng.randint(0, 5),
        mean_service_seconds=rng.choice([0.5, 1.0, 2.0]),
        links=links,
        output_destination=dest,
        expected_output_bytes=rng.choice([0, 10 ** 8]) if dest else 0,
    )
    return catalog, station


def test_criterion_7_preference_monotonicity():
    with criterion(7, "1000 stations: cache/queue/bandwidth moves are monotone"):
        for seed in range(3000, 4000):
            rng = random.Random(seed)
            catalog, st = _random_station(rng)
            base = get_preference(catalog, st, "ds")
            resum = -(base.input_transfer_seconds + base.input_wait_seconds
                      + base.output_seconds)
            assert math.isclose(base.score, resum, rel_tol=SCORE_REL_TOL), seed

            missing = [f.file_name for f in catalog.files("ds")
                       if f.file_name not in st.cached_files]
            if missing:
                richer = dataclasses.replace(
                    st, cached_files=st.cached_files | {rng.choice(missing)})
                assert get_preference(catalog, richer, "ds").score >= base.score, seed

            busier = dataclasses.replace(
                st, input_queue_depth=st.input_queue_depth + 1)
            assert get_preference(catalog, busier, "ds").score <= base.score, seed
            backed_up = dataclasses.replace(
                st, output_queue_depth=st.output_queue_depth + 1)
            assert get_preference(catalog, backed_up, "ds").score <= base.score, seed

            faster = dataclasses.replace(
                st, links={k: 2.0 * v for k, v in st.links.items()})
            assert get_preference(catalog, faster, "ds").score >= base.score, seed


# -- 8: the data-aware policy dominates the baselines ---------------------------------

def test_criterion_8_policy_dominance():
    with criterion(8, "data-aware staging dominates random and round-robin"):
        skewed = load_scenario(json.loads(fixture_text("skewed_scenario.json")))
        da_report, da_log = run_scenario(skewed, "data-aware", 0)
        da = da_report["mean_staging_seconds"]
        rr = run_scenario(skewed, "round-robin", 0)[0]["mean_staging_seconds"]
        assert da <= 0.2 * rr, f"{da} vs round-robin {rr}"
        for seed in range(10):
            rand = run_scenario(skewed, "random", seed)[0]["mean_staging_seconds"]
            assert da <= rand, f"seed {seed}: {da} vs random {rand}"

        # replaying any (scenario, policy, seed) is bit-for-bit identical
        assert run_scenario(skewed, "data-aware", 0) == (da_report, da_log)

        for seed in range(5000, 5050):
            scenario = load_scenario(make_dominance_scenario(random.Random(seed)))
            da_run = run_scenario(scenario, "data-aware", seed)
            rand_run = run_scenario(scenario, "random", seed)
            assert da_run[0]["mean_staging_seconds"] <= \
                rand_run[0]["mean_staging_seconds"], f"seed {seed}"
            assert run_scenario(scenario, "data-aware", seed) == da_run, seed
            assert run_scenario(scenario, "random", seed) == rand_run, seed


# -- 9: the queue survives kill -9 ---------------------------------------------------

def _spawn_queue(journal):
    proc = subprocess.Popen(
        [sys.executable, "-m", "vogrid", "q", "serve",
         "--port", "0", "--journal", str(journal)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    line = proc.stdout.readline()
    if not line.startswith("LISTENING "):
        proc.kill()
        raise AssertionError(f"queue server did not come up: {line!r}")
    return proc, int(line.split()[1])


def _submit(port, i):
    ad = parse_classad(
        f'Owner = "/C=US/O=demo/CN=alice"\nDataset = "set{i}"\n',
        AdKind.JOB, ad_id=f"job{i}")
    reply = wire.send_request("127.0.0.1", port,
                              {"type": "SUBMIT", "ad": ad_to_json(ad)})
    return reply["result"]["job_id"]


def _statuses(port, job_ids):
    return [wire.send_request("127.0.0.1", port,
                              {"type": "STATUS", "job_id": j})["result"]
            for j in job_ids]


def test_criterion_9_queue_recovery(tmp_path):
    with criterion(9, "queue state survives kill -9 via the journal"):
        procs = []
        try:
            victim_journal = tmp_path / "victim.ndjson"
            proc, port = _spawn_queue(victim_journal)
            procs.append(proc)
            job_ids = [_submit(port, i) for i in range(3)]
            before = _statuses(port, job_ids)

            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

            proc2, port2 = _spawn_queue(victim_journal)
            procs.append(proc2)
            after = _statuses(port2, job_ids)

            control_proc, control_port = _spawn_queue(tmp_path / "control.ndjson")
            procs.append(control_proc)
            assert [_submit(control_port, i) for i in range(3)] == job_ids
            control = _statuses(control_port, job_ids)

            assert after == before
            assert after == control
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.stdout.close()
                proc.wait(timeout=10)
