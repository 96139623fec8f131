#!/usr/bin/env python3
"""vogrid benchmark: simulator throughput, placement quality, loopback latency.

    python3 bench/run.py --workload sim-backlog --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke        # every workload and check, in seconds

Run from the root of a source tree; the package is imported from ./src.
Each run prints readable lines, then one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, measured with nothing wrapped; with --trace 1 they
are the per-layer ones, measured by wrapping calls into the package.
See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

if not (SRC / "vogrid" / "__init__.py").is_file():
    sys.exit(f"bench: no vogrid sources under {SRC}; run from a source tree")
sys.path.insert(0, str(SRC))

import vogrid  # noqa: E402
from vogrid import advertise, classads, conftree, jobs, matchmaker, queue_server, sim, wire  # noqa: E402
from vogrid.classads import ads as classads_ads  # noqa: E402

from oracle import CheckFailed, SimModel, check_sim_run, same_decision, wire_oracle  # noqa: E402
from scenarios import job_attrs, make_grid, scenario_doc, site_config, station_fixture  # noqa: E402
from spans import Tracer  # noqa: E402

if Path(vogrid.__file__).resolve().parent != SRC / "vogrid":
    sys.exit(f"bench: imported vogrid from {vogrid.__file__}, not from {SRC}")

POLICY_SEED = 1          # the run_scenario seed; the workload seed picks the scenario
WIRE_SETUPS = 3          # server bring-ups behind setup_s
RECOVERIES = 5           # QueueService rebuilds behind recovery_s
PROBES = 200             # GET_PREFERENCE round trips per probe in traced runs
SPAWN_TIMEOUT = 60.0
AD_TTL = 10.0 ** 6
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "jobs_per_s": "jobs/s",
             "mean_staging_s": "s"}

# The unscaled throughputs printed beside the gated figures are taken at
# this quantile of the per-unit host times. Other tenants of a shared host
# only ever add time, so the fast end of the distribution tracks the
# program's own cost; on a 2-CPU shared VM its run-to-run spread was a third
# of the median's.
FAST_QUANTILE = 0.10

# The same VM also ran up to twice as slow for tens of minutes at a time. So
# the simulator workloads time a fixed reference loop right before and right
# after every timed call, and report the call's time in units of that loop:
# host time times REFERENCE_SECONDS (the loop's fast-end time on that VM when
# it ran fast) over the loop's mean time around the call. jobs_per_s takes
# the median of the scaled times: in eight 30-s sim-burst runs its spread
# was 0.03, against 0.07 for their 10th percentile, which favours calls
# whose two loop samples happened to run slow. grid-wire's rate did not
# follow the loop; it is scaled another way, below.
REFERENCE_SECONDS = 0.0075

# grid-wire's wall-clock rate is set by ten server processes and a client
# taking turns on the host's CPUs, so waits for a CPU (steal from other
# tenants, run-queue delays) went straight into it: on the 2-CPU VM its
# ten-seed spread reached 0.30 of the median. Its jobs_per_s therefore counts
# CPU seconds of the client and all servers together (user plus system time,
# which leaves out steal and waiting), over passes of the full job mix; in
# one trial a CPU hog beside the run cut the wall rate of a pass by 24% and
# left the CPU rate within 1%. The CPU cost of this many small processes
# and loopback connections still drifted with the host, by up to 30% within
# half an hour, and the reference loop above did not follow it. So before
# every pass the client also makes ECHO_ROUNDS fresh-connection round trips
# to the benchmark's own echo server (bench/echo.py), and the rate is scaled
# by their CPU cost per round trip over ECHO_REFERENCE_SECONDS (its cost on
# that VM when it ran fast). In six consecutive 20-s runs the raw rate read
# 83-98 jobs per CPU second and the scaled one 80-85. Waits the program
# itself imposes (journal fsync, connects) do not show in this figure;
# submit_p50_ms, match_p50_ms and the wall rate are printed for them.
ECHO_ROUNDS = 100
ECHO_REFERENCE_SECONDS = 0.0008


def reference_work():
    """Interpreter work of the kind the program does: dicts, strings, tuples."""
    table = {}
    for i in range(20000):
        key = f"k{i % 997}"
        table[key] = table.get(key, 0) + i
        _ = (i, key, i * 0.5)
    return sorted(table.items())[:3]


def reference_seconds() -> float:
    # the cyclic collector would also walk the caller's heap, which grows
    # with the run; keep it out of the timing
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                          .encode("utf-8")).hexdigest()


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds_of(pid: int) -> float:
    """User plus system CPU time of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


class EchoReference:
    """The benchmark's echo server and the CPU cost of round trips to it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "echo.py")],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], SPAWN_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("LISTENING "):
            self.stop()
            raise RuntimeError(f"echo server did not come up: {line!r}")
        self.port = int(line.split()[1])
        self.msg = (json.dumps({"type": "GET_PREFERENCE", "dataset": "ds0"}) + "\n").encode()
        self.cpu = 0.0
        self.rounds = 0

    def block(self):
        """ECHO_ROUNDS round trips, each on a fresh connection."""
        cpu_start = time.process_time() + cpu_seconds_of(self.proc.pid)
        for _ in range(ECHO_ROUNDS):
            with socket.create_connection(("127.0.0.1", self.port)) as sock, \
                    sock.makefile("rb") as reader:
                sock.sendall(self.msg)
                if json.loads(reader.readline())["result"]["type"] != "GET_PREFERENCE":
                    raise RuntimeError("echo server answered something else")
        self.cpu += time.process_time() + cpu_seconds_of(self.proc.pid) - cpu_start
        self.rounds += ECHO_ROUNDS

    def seconds_per_round(self) -> float:
        return self.cpu / self.rounds

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def peak_rss_mb_of(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Run:
    """What one workload run found."""

    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}

    def fault(self, message: str):
        self.correct = False
        print(f"CHECK FAILED: {message}", flush=True)


# -- tracing -------------------------------------------------------------------------

LAYER_METRICS = [
    # name, unit
    ("classads.evaluate.calls", "count"), ("classads.evaluate.s", "s"),
    ("classads.symmetric_match.calls", "count"), ("classads.symmetric_match.s", "s"),
    ("classads.symmetric_match.pass_ratio", "ratio"),
    ("classads.parse_expr.calls", "count"), ("classads.parse_expr.s", "s"),
    ("matchmaker.run_match_cycle.calls", "count"), ("matchmaker.run_match_cycle.s", "s"),
    ("matchmaker.run_match_cycle.self_s", "s"), ("matchmaker.jobs_offered", "count"),
    ("matchmaker.match_yield", "ratio"), ("matchmaker.idle_cycles", "count"),
    ("matchmaker.rank_resources.calls", "count"), ("matchmaker.rank_resources.s", "s"),
    ("matchmaker.rank_resources.candidates", "count"),
    ("matchmaker.preauthorize.calls", "count"), ("matchmaker.preauthorize.s", "s"),
    ("matchmaker.candidates_per_match", "count"),
    ("station.get_preference.calls", "count"), ("station.get_preference.s", "s"),
    ("station.get_preference.distinct_ratio", "ratio"),
    ("station.apply_event.calls", "count"), ("station.apply_event.s", "s"),
    ("jobs.in_state.calls", "count"), ("jobs.in_state.s", "s"),
    ("jobs.transition.calls", "count"), ("jobs.transition.s", "s"),
    ("sim.run_scenario.data-aware.s", "s"), ("sim.run_scenario.round-robin.s", "s"),
    ("sim.run_scenario.random.s", "s"), ("sim.self_s", "s"), ("sim.load_scenario.s", "s"),
    ("conftree.read_tree.s", "s"), ("conftree.derive_service_config.s", "s"),
    ("advertise.generate_classads.s", "s"),
    ("wire.request.STATUS.p50_ms", "ms"), ("wire.request.ADVERTISE.p50_ms", "ms"),
    ("wire.request.SUBMIT.p50_ms", "ms"), ("wire.request.MATCH_REQUEST.p50_ms", "ms"),
    ("wire.request.MATCH_REQUEST.p95_ms", "ms"),
    ("wire.round_trip_persistent_ms", "ms"), ("wire.round_trip_fresh_ms", "ms"),
    ("queue_server.replay_journal.s", "s"), ("queue_server.journal_records", "count"),
    ("queue_server.journal_bytes_per_submit", "bytes"),
    ("trace.overhead_pct", "%"),
]

# span name -> the metric prefix that reports its calls and seconds
SPAN_METRICS = {
    "classads.evaluate": ("calls", "s"), "classads.symmetric_match": ("calls", "s"),
    "classads.parse_expr": ("calls", "s"), "matchmaker.run_match_cycle": ("calls", "s"),
    "matchmaker.rank_resources": ("calls", "s"), "matchmaker.preauthorize": ("calls", "s"),
    "station.get_preference": ("calls", "s"), "station.apply_event": ("calls", "s"),
    "jobs.in_state": ("calls", "s"), "jobs.transition": ("calls", "s"),
    "sim.load_scenario": ("s",), "conftree.read_tree": ("s",),
    "conftree.derive_service_config": ("s",), "advertise.generate_classads": ("s",),
    "queue_server.replay_journal": ("s",),
}


def make_tracer() -> Tracer:
    """Rebindings at the boundaries where one layer calls the next."""
    t = Tracer()
    c = t.counters

    def count_pass(args, kwargs, ok):
        c["symmetric_match.pass"] += bool(ok)

    def count_cycle(args, kwargs, decisions):
        c["jobs_offered"] += len(decisions)
        matched = sum(d.matched for d in decisions)
        c["jobs_matched"] += matched
        c["idle_cycles"] += matched == 0

    def count_candidates(args, kwargs, ranked):
        c["rank_candidates"] += len(ranked)

    def new_cycle(args, kwargs):
        c["cycle"] += 1

    seen_queries: set = set()

    def count_query(args, kwargs):
        _, st, dataset = args[:3]
        output_bytes = args[3] if len(args) > 3 else kwargs.get("output_bytes")
        key = (c["cycle"], dataset, st.station_id, output_bytes)
        if key not in seen_queries:
            seen_queries.add(key)
            c["distinct_queries"] += 1

    def count_records(args, kwargs, records):
        c["journal_records"] += len(records)

    for module in (classads_ads, matchmaker, sim, jobs):
        t.patch(module, "evaluate", "classads.evaluate")
    for module in (matchmaker, sim):
        t.patch(module, "symmetric_match", "classads.symmetric_match", after=count_pass)
        t.patch(module, "preauthorize", "matchmaker.preauthorize")
    for module in (sim, classads_ads):
        t.patch(module, "parse_expr", "classads.parse_expr")
    t.patch(sim, "run_match_cycle", "matchmaker.run_match_cycle", after=count_cycle)
    t.patch(matchmaker, "rank_resources", "matchmaker.rank_resources",
            after=count_candidates)
    t.patch(sim.GridWorld, "_match_cycle", "sim.match_cycle", before=new_cycle)
    t.patch(sim, "get_preference", "station.get_preference", before=count_query)
    t.patch(sim, "apply_event", "station.apply_event")
    t.patch(jobs.JobQueue, "in_state", "jobs.in_state")
    t.patch(jobs.JobQueue, "transition", "jobs.transition")
    for module in (sim, conftree):
        t.patch(module, "read_tree", "conftree.read_tree")
        t.patch(module, "derive_service_config", "conftree.derive_service_config")
    for module in (sim, advertise):
        t.patch(module, "generate_classads", "advertise.generate_classads")
    t.patch(wire.Connection, "request", lambda args: f"wire.request.{args[1]['type']}")
    t.patch(queue_server, "replay_journal", "queue_server.replay_journal",
            after=count_records)
    return t


def layer_metrics(tracer: Tracer, units: dict[str, int], extra: dict[str, float]) -> dict:
    """Per-layer figures, each per unit of the phase it was spent in.

    `units` maps a phase to how many units it ran (set-ups, rounds, ...).
    Spans of an unlisted phase (calibration) are left out. A layer the
    workload never reaches reads 0.
    """
    per: dict[str, dict[str, float]] = {}
    for (phase, name), (calls, secs, self_secs) in tracer.totals().items():
        if phase not in units:
            continue
        row = per.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
        row["calls"] += calls / units[phase]
        row["s"] += secs / units[phase]
        row["self_s"] += self_secs / units[phase]
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    for span, fields in SPAN_METRICS.items():
        for field in fields:
            out[f"{span}.{field}"] = per.get(span, {}).get(field, 0.0)
    c = tracer.counters
    cycle = per.get("matchmaker.run_match_cycle", {})
    out["matchmaker.run_match_cycle.self_s"] = cycle.get("self_s", 0.0)
    rounds = units.get("round", 1)
    if cycle:
        out["matchmaker.jobs_offered"] = c["jobs_offered"] / rounds
        out["matchmaker.match_yield"] = c["jobs_matched"] / c["jobs_offered"]
        out["matchmaker.idle_cycles"] = c["idle_cycles"] / rounds
    ranked = per.get("matchmaker.rank_resources", {}).get("calls", 0.0)
    if ranked:
        out["matchmaker.rank_resources.candidates"] = c["rank_candidates"] / rounds
        out["matchmaker.candidates_per_match"] = c["rank_candidates"] / (ranked * rounds)
    sm_calls = per.get("classads.symmetric_match", {}).get("calls", 0.0)
    if sm_calls:
        out["classads.symmetric_match.pass_ratio"] = (
            c["symmetric_match.pass"] / (sm_calls * rounds))
    gp_calls = per.get("station.get_preference", {}).get("calls", 0.0)
    if gp_calls:
        out["station.get_preference.distinct_ratio"] = (
            c["distinct_queries"] / (gp_calls * rounds))
    for policy in sim.POLICIES:
        name = f"sim.run_scenario.{policy}"
        out[f"{name}.s"] = per.get(name, {}).get("s", 0.0)
    sim_spans = [f"sim.run_scenario.{p}" for p in sim.POLICIES] + ["sim.match_cycle"]
    out["sim.self_s"] = sum(per.get(name, {}).get("self_s", 0.0) for name in sim_spans)
    for kind in ("STATUS", "ADVERTISE", "SUBMIT", "MATCH_REQUEST"):
        durations = tracer.durations(f"wire.request.{kind}", "round")
        if durations:
            out[f"wire.request.{kind}.p50_ms"] = 1000.0 * statistics.median(durations)
    durations = tracer.durations("wire.request.MATCH_REQUEST", "round")
    if durations:
        out["wire.request.MATCH_REQUEST.p95_ms"] = 1000.0 * quantile(durations, 0.95)
    if c["journal_records"]:
        out["queue_server.journal_records"] = c["journal_records"] / units.get("recovery", 1)
    out.update(extra)
    return out


# -- simulator workloads -----------------------------------------------------------

def run_sim(run: Run, shape: str, policies: tuple[str, ...], seed: int,
            seconds: float, tracer: Tracer | None):
    doc = scenario_doc(make_grid(seed, shape))
    model = SimModel(doc)
    if tracer is not None:
        tracer.install()

    setup_times: list[float] = []
    scaled_setups: list[float] = []
    reference: list[float] = []

    def one_setup():
        gc.collect()  # start each load from a collected heap, as a fresh process would
        before = reference_seconds()
        if tracer is not None:
            tracer.phase = "setup"
            span = tracer.begin("sim.load_scenario")
        t0 = time.perf_counter()
        loaded = sim.load_scenario(doc)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
            tracer.phase = "round"
        after = reference_seconds()
        setup_times.append(dt)
        scaled_setups.append(dt * 2 * REFERENCE_SECONDS / (before + after))
        return loaded

    scenario = one_setup()
    first: dict[str, tuple] = {}
    call_times: dict[str, list[float]] = {policy: [] for policy in policies}
    scaled_calls: dict[str, list[float]] = {policy: [] for policy in policies}

    def one_round() -> float:
        round_start = time.perf_counter()
        for policy in policies:
            run.attempted += 1
            before = reference_seconds()
            t0 = time.perf_counter()
            if tracer is not None:
                span = tracer.begin(f"sim.run_scenario.{policy}")
            try:
                result = sim.run_scenario(scenario, policy, POLICY_SEED)
            except Exception as exc:  # counted, and the run goes on
                run.failed += 1
                print(f"run_scenario {policy} failed: {exc!r}", flush=True)
                continue
            finally:
                if tracer is not None:
                    tracer.end(span)
            dt = time.perf_counter() - t0
            after = reference_seconds()
            reference.extend((before, after))
            call_times[policy].append(dt)
            scaled_calls[policy].append(dt * 2 * REFERENCE_SECONDS / (before + after))
            if policy not in first:
                first[policy] = result
            elif result != first[policy]:
                run.fault(f"{policy}: a repeated run_scenario gave another result")
        return time.perf_counter() - round_start

    # Set-up is repeated after every round, so that its median samples the
    # same stretch of time as the rounds do.
    round_times = []
    deadline = time.perf_counter() + seconds
    while not round_times or time.perf_counter() < deadline:
        round_times.append(one_round())
        one_setup()
    if tracer is not None:
        tracer.uninstall()
        tracer.phase = "calibration"
        untraced = one_round()
        run.layers = layer_metrics(tracer, {"setup": len(setup_times),
                                            "round": len(round_times)}, {
            "trace.overhead_pct": 100.0 * (statistics.median(round_times) - untraced)
            / untraced})

    for policy, (report, log) in sorted(first.items()):
        try:
            check_sim_run(model, policy, report, log)
        except CheckFailed as exc:
            run.fault(f"{policy}: {exc}")
        print(f"digest {doc['name']} {policy} seed={POLICY_SEED} "
              f"report={digest(report)} events={digest(log)}")
        print(f"{policy}: mean_staging_s {report['mean_staging_seconds']!r} s, "
              f"makespan_s {report['final_clock']!r} s")
    if len(first) != len(policies):
        run.fault("some policy never completed a run")
        return
    da = first["data-aware"][0]
    # one round's jobs over the sum of each policy's median scaled run_scenario time
    jobs_done = sum(j["state"] == "Done" for report, _ in first.values() for j in report["jobs"])
    all_calls = [t for times in call_times.values() for t in times]
    fast_round = sum(quantile(t, FAST_QUANTILE) for t in call_times.values())
    run.e2e = {
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": own_peak_rss_mb(),
        "jobs_per_s": jobs_done / sum(statistics.median(t) for t in scaled_calls.values()),
        "mean_staging_s": da["mean_staging_seconds"],
    }
    if tracer is None:
        print(f"reference loop p10 {1000 * quantile(reference, 0.1):.2f} ms, p50 "
              f"{1000 * quantile(reference, 0.5):.2f} ms over {len(reference)} samples "
              f"(scaled to {1000 * REFERENCE_SECONDS} ms)")
        print(f"sim_jobs_per_s {jobs_done / fast_round:.2f} jobs/s unscaled (over all calls: "
              f"{jobs_done * len(round_times) / sum(all_calls):.2f}); run_scenario p10 "
              f"{1000 * quantile(all_calls, 0.1):.1f} ms, p50 {1000 * quantile(all_calls, 0.5):.1f} "
              f"ms, p95 {1000 * quantile(all_calls, 0.95):.1f} ms over {len(all_calls)} calls "
              f"in {len(round_times)} rounds; setup_s {statistics.median(setup_times):.4f} s "
              f"unscaled (median of {len(setup_times)})")


# -- grid-wire -----------------------------------------------------------------------

class Grid:
    """Station, mm and q servers started through the command line."""

    def __init__(self, workdir: Path, grid: dict):
        self.workdir = workdir
        self.grid = grid
        self.procs: dict[str, subprocess.Popen] = {}
        self.ports: dict[str, int] = {}
        self.logs = []

    def spawn(self, key: str, *argv: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        log = open(self.workdir / f"{key}.log", "wb")
        self.logs.append(log)
        self.procs[key] = subprocess.Popen(
            [sys.executable, "-m", "vogrid", *argv], cwd=self.workdir, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log, text=True)

    def wait_listening(self, keys):
        for key in keys:
            proc = self.procs[key]
            ready, _, _ = select.select([proc.stdout], [], [], SPAWN_TIMEOUT)
            line = proc.stdout.readline() if ready else ""
            if not line.startswith("LISTENING "):
                raise RuntimeError(f"{key} did not come up: {line!r}")
            self.ports[key] = int(line.split()[1])

    def start(self, journal: Path):
        stations = []
        for i, spec in enumerate(self.grid["sites"]):
            config = self.workdir / f"site{i}.xml"
            # station names come from the config, as the station service reads them
            derived = conftree.derive_service_config(
                conftree.read_tree(config.read_text(encoding="utf-8")), "station")
            for node in derived.children:
                key = f"station:{node.attributes['name']}"
                self.spawn(key, "station", "serve", "--config", config.name,
                           "--station", node.attributes["name"],
                           "--catalog", "catalog.json",
                           "--fixture", f"fixture{i}.json", "--port", "0")
                stations.append(key)
        self.spawn("q", "q", "serve", "--port", "0", "--journal", str(journal))
        self.wait_listening(stations)
        directory = {k.split(":", 1)[1]: ["127.0.0.1", self.ports[k]] for k in stations}
        (self.workdir / "directory.json").write_text(json.dumps(directory), encoding="utf-8")
        self.spawn("mm", "mm", "serve", "--port", "0",
                   "--station-directory", "directory.json")
        self.wait_listening(["q", "mm"])

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb_of(p.pid) for p in self.procs.values() if p.poll() is None)

    def cpu_seconds(self) -> float:
        """CPU time of the client and every server so far."""
        return time.process_time() + sum(cpu_seconds_of(p.pid) for p in self.procs.values())

    def stop(self):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        for log in self.logs:
            log.close()
        self.procs.clear()
        self.logs.clear()


def write_grid_files(workdir: Path, grid: dict):
    (workdir / "catalog.json").write_text(json.dumps(grid["catalog"]), encoding="utf-8")
    for i, spec in enumerate(grid["sites"]):
        (workdir / f"site{i}.xml").write_text(
            conftree.write_tree(site_config(spec)), encoding="utf-8")
        (workdir / f"fixture{i}.json").write_text(
            json.dumps(station_fixture(spec)), encoding="utf-8")


def advertisements(workdir: Path, grid: dict) -> list[dict]:
    """ADVERTISE requests for every slot of every site, built by the package."""
    out = []
    for i, spec in enumerate(grid["sites"]):
        config = conftree.read_tree((workdir / f"site{i}.xml").read_text(encoding="utf-8"))
        for ad in advertise.generate_classads(advertise.select_patterns(config)):
            out.append({"type": "ADVERTISE", "ad": classads.ad_to_json(ad),
                        "gridmap": spec["gridmap"], "ttl": AD_TTL})
    return out


def bring_up(workdir: Path, grid: dict, journal: Path) -> tuple[Grid, wire.Connection, list]:
    net = Grid(workdir, grid)
    try:
        net.start(journal)
        mm = wire.Connection("127.0.0.1", net.ports["mm"])
        ads = advertisements(workdir, grid)
        for msg in ads:
            reply = mm.request(msg)
            if "error" in reply:
                raise RuntimeError(f"ADVERTISE refused: {reply['error']}")
    except BaseException:
        net.stop()
        raise
    return net, mm, ads


def run_wire(run: Run, shape: str, seed: int, seconds: float, tracer: Tracer | None):
    grid = make_grid(seed, shape)
    templates = []
    for job in grid["jobs"]:
        want, n_candidates = wire_oracle(grid, job)
        ad = {"id": job["id"], "kind": "job",
              "attrs": dict(job_attrs(job, with_run_seconds=False),
                            Rank="fun(Dataset, OTHER.Station_ID)")}
        templates.append((ad, want, n_candidates))

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"grid-wire-{os.getpid()}"
    workdir.mkdir()
    net = echo = None
    try:
        write_grid_files(workdir, grid)
        if tracer is not None:
            tracer.install()
        setup_times = []
        for k in range(WIRE_SETUPS):
            journal = workdir / f"journal{k}.ndjson"
            t0 = time.perf_counter()
            net, mm, ads = bring_up(workdir, grid, journal)
            setup_times.append(time.perf_counter() - t0)
            if k < WIRE_SETUPS - 1:
                mm.close()
                net.stop()
                net = None
        q = wire.Connection("127.0.0.1", net.ports["q"])
        echo = EchoReference()

        times: dict[str, list[float]] = {"SUBMIT": [], "STATUS": [],
                                          "MATCH_REQUEST": [], "ADVERTISE": []}
        replies = []

        round_times = []
        pass_cpu = []

        def one_pass() -> float:
            echo.block()  # while the servers are idle
            cpu_start = net.cpu_seconds()
            pass_start = time.perf_counter()
            for ad, _, _ in templates:
                n = len(replies) + 1  # the queue numbers jobs 1, 2, ...
                got = []
                round_start = time.perf_counter()
                for kind, conn, msg in (
                        ("SUBMIT", q, {"type": "SUBMIT", "ad": ad}),
                        ("STATUS", q, {"type": "STATUS", "job_id": n}),
                        ("MATCH_REQUEST", mm, {"type": "MATCH_REQUEST", "jobs": [ad]}),
                        ("ADVERTISE", mm, ads[n % len(ads)])):
                    t0 = time.perf_counter()
                    got.append(conn.request(msg))
                    times[kind].append(time.perf_counter() - t0)
                round_times.append(time.perf_counter() - round_start)
                replies.append(got)
            pass_cpu.append(net.cpu_seconds() - cpu_start)
            return time.perf_counter() - pass_start

        if tracer is not None:
            tracer.phase = "round"
        pass_times = []
        loop_start = time.perf_counter()
        while not pass_times or time.perf_counter() < loop_start + seconds:
            pass_times.append(one_pass())
        loop_seconds = sum(pass_times)  # without the echo blocks
        counted = len(replies)
        extra = {}
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "calibration"
            untraced = one_pass()
            extra["trace.overhead_pct"] = (100.0 * (statistics.median(pass_times) - untraced)
                                           / untraced)
            tracer.install()
            tracer.phase = "probe"
            extra.update(probe_round_trips(net, grid))

        echo.stop()
        echo_seconds, echo_rounds = echo.seconds_per_round(), echo.rounds
        echo = None
        listing = q.request({"type": "LIST"})
        peak = own_peak_rss_mb() + net.peak_rss_mb()

        # SIGKILL the queue, then rebuild it from its journal
        os.kill(net.procs["q"].pid, signal.SIGKILL)
        net.procs["q"].wait(timeout=10)
        q.close()
        if tracer is not None:
            tracer.phase = "recovery"
        recovery_times = []
        for _ in range(RECOVERIES):
            t0 = time.perf_counter()
            rebuilt = queue_server.QueueService(str(journal))
            recovery_times.append(time.perf_counter() - t0)
            rebuilt.close()
        if tracer is not None:
            tracer.uninstall()
            extra["queue_server.journal_bytes_per_submit"] = (journal.stat().st_size
                                                              / len(replies))
        mm.close()
        net.stop()
        net = None
    finally:
        if echo is not None:
            echo.stop()
        if net is not None:
            net.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    check_wire(run, templates, replies, listing, rebuilt)
    match_ms = [1000.0 * t for t in times["MATCH_REQUEST"][:counted]]
    first_pass = [r[2]["result"]["decisions"][0] for r in replies[:len(templates)]
                  if "result" in r[2]]
    staged = [-d["rank"] for d in first_pass if d.get("outcome") == "matched"]
    if not staged:
        run.fault("no MATCH_REQUEST of the first pass matched")
        staged = [0.0]
    cpu_rate = len(templates) / statistics.median(pass_cpu[:len(pass_times)])
    run.e2e = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak,
        "jobs_per_s": cpu_rate * echo_seconds / ECHO_REFERENCE_SECONDS,
        "mean_staging_s": statistics.mean(staged),
    }
    if tracer is None:
        print(f"match_p50_ms {statistics.median(match_ms):.3f} ms, match_p95_ms "
              f"{quantile(match_ms, 0.95):.3f} ms over {len(match_ms)} MATCH_REQUESTs; "
              f"jobs_per_s {run.e2e['jobs_per_s']:.2f} over {len(pass_times)} passes of "
              f"{len(templates)} jobs")
        print(f"cpu rate {cpu_rate:.2f} jobs per CPU second unscaled (median pass); echo "
              f"reference {1000 * echo_seconds:.4f} ms CPU per round trip over {echo_rounds} "
              f"(scaled to {1000 * ECHO_REFERENCE_SECONDS} ms)")
        print(f"wall rate {len(templates) / statistics.median(pass_times):.2f} jobs/s per pass "
              f"(median), {1.0 / quantile(round_times[:counted], FAST_QUANTILE):.2f} jobs/s "
              f"at the p10 round over {counted} rounds")
        print(f"submit_p50_ms {1000.0 * statistics.median(times['SUBMIT']):.3f} ms over "
              f"{len(times['SUBMIT'])} SUBMITs")
        print(f"wire_ops_per_s {4 * counted / loop_seconds:.1f} req/s over "
              f"{4 * counted} requests in {loop_seconds:.2f} s")
        print(f"recovery_s {statistics.median(recovery_times):.4f} s for {len(replies)} "
              f"jobs (median of {RECOVERIES}); setup_s {statistics.median(setup_times):.4f} s "
              f"(median of {WIRE_SETUPS})")
        print(f"mean_staging_s {run.e2e['mean_staging_s']!r} s over {len(staged)} "
              f"placements; peak_rss_mb {peak:.1f} MB")
    else:
        extra["matchmaker.candidates_per_match"] = statistics.mean(n for _, _, n in templates)
        run.layers = layer_metrics(tracer, {"setup": WIRE_SETUPS, "round": counted,
                                            "recovery": RECOVERIES}, extra)


def probe_round_trips(net: Grid, grid: dict) -> dict[str, float]:
    """GET_PREFERENCE to one station, over one connection and over fresh ones."""
    key = next(k for k in net.ports if k.startswith("station:"))
    port = net.ports[key]
    msg = {"type": "GET_PREFERENCE", "dataset": sorted(grid["catalog"])[0]}
    persistent, fresh = [], []
    with wire.Connection("127.0.0.1", port) as conn:
        for _ in range(PROBES):
            t0 = time.perf_counter()
            conn.request(msg)
            persistent.append(time.perf_counter() - t0)
    for _ in range(PROBES):
        t0 = time.perf_counter()
        wire.send_request("127.0.0.1", port, msg)
        fresh.append(time.perf_counter() - t0)
    return {"wire.round_trip_persistent_ms": 1000.0 * statistics.median(persistent),
            "wire.round_trip_fresh_ms": 1000.0 * statistics.median(fresh)}


def check_wire(run: Run, templates, replies, listing, rebuilt):
    statuses = {}
    for n, (submit, status, match, adv) in enumerate(replies, start=1):
        run.attempted += 4
        ad, want, _ = templates[(n - 1) % len(templates)]
        for reply in (submit, status, match, adv):
            if "error" in reply:
                run.failed += 1
        if "result" in submit and submit["result"] != {"job_id": n, "state": "Idle"}:
            run.fault(f"SUBMIT {n}: {submit['result']}")
        expected_status = {"job_id": n, "state": "Idle", "detail": None, "history": [
            {"state": "Submitted", "stamp": 2 * n - 1, "detail": None},
            {"state": "Idle", "stamp": 2 * n, "detail": None}]}
        if "result" in status:
            statuses[n] = status["result"]
            if status["result"] != expected_status:
                run.fault(f"STATUS {n}: {status['result']}")
        if "result" in match:
            decisions = match["result"]["decisions"]
            if len(decisions) != 1 or not same_decision(decisions[0], want):
                run.fault(f"MATCH_REQUEST {ad['id']}: {decisions} != oracle {want}")
        if "result" in adv and adv["result"].get("ok") is not True:
            run.fault(f"ADVERTISE: {adv['result']}")
    if rebuilt is None:
        run.fault("queue was not rebuilt")
        return
    before = listing.get("result", {}).get("jobs")
    after = [{"job_id": j.job_id, "state": j.state.value}
             for j in rebuilt.queue.jobs.values()]
    if before != after:
        run.fault("journal-rebuilt queue lists other jobs or states than before the kill")
    for n, status in statuses.items():
        if rebuilt.queue.get(n).status_json() != status:
            run.fault(f"job {n}: rebuilt status differs from the one served")
            break


# -- command line --------------------------------------------------------------------

WORKLOADS = {
    "sim-backlog": lambda run, a, tr, smoke: run_sim(
        run, "backlog-smoke" if smoke else "backlog", sim.POLICIES, a.seed, a.seconds, tr),
    "sim-burst": lambda run, a, tr, smoke: run_sim(
        run, "burst-smoke" if smoke else "burst", ("data-aware",), a.seed, a.seconds, tr),
    "grid-wire": lambda run, a, tr, smoke: run_wire(
        run, "wire-smoke" if smoke else "wire", a.seed, a.seconds, tr),
}


def run_workload(name: str, args, trace: bool, smoke: bool = False) -> Run:
    run = Run()
    tracer = make_tracer() if trace else None
    WORKLOADS[name](run, args, tracer, smoke)
    return run


def result_line(run: Run, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": run.layers.get(name, 0.0), "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        metrics = {name: {"value": run.e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    # a terminated benchmark still stops its servers and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at small size, untraced and traced")
    args = parser.parse_args(argv)

    if args.smoke:
        args.seconds = min(args.seconds, 0.5)
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                print(f"== {name} trace={int(trace)}", flush=True)
                run = run_workload(name, args, trace, smoke=True)
                print(json.dumps(result_line(run, trace)), flush=True)
                ok = ok and run.correct and run.failed == 0
        print("smoke: " + ("ok" if ok else "FAILED"))
        return 0 if ok else 1

    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    run = run_workload(args.workload, args, bool(args.trace))
    print(json.dumps(result_line(run, bool(args.trace))), flush=True)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
