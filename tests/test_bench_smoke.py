"""The benchmark's smoke run: every workload and output check at small size.

bench/run.py wraps named functions of the package to time each layer, so
this also catches a rename that would leave the tracer nothing to wrap, and
a change that leaves a wrapped name uncalled: every per-layer metric of the
traced runs of every workload must read nonzero, except those listed below.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# per-layer metrics allowed to read 0, by traced workload
DARK_ON_SIM = {
    # the tracer wraps sim.run_match_cycle and counts from its result, but
    # the simulator has called match_jobs instead since that became lazy
    "matchmaker.run_match_cycle.calls", "matchmaker.run_match_cycle.s",
    "matchmaker.run_match_cycle.self_s", "matchmaker.jobs_offered",
    "matchmaker.match_yield", "matchmaker.idle_cycles",
    # the simulator pulls and holds idle jobs from its own worklist and
    # never calls in_state
    "jobs.in_state.calls", "jobs.in_state.s",
    # measured on grid-wire alone, against real servers and a journal
    "wire.request.STATUS.p50_ms", "wire.request.ADVERTISE.p50_ms",
    "wire.request.SUBMIT.p50_ms", "wire.request.MATCH_REQUEST.p50_ms",
    "wire.request.MATCH_REQUEST.p95_ms", "wire.round_trip_persistent_ms",
    "wire.round_trip_fresh_ms", "queue_server.replay_journal.s",
    "queue_server.journal_records", "queue_server.journal_bytes_per_submit",
}
DARK_ON = {
    "sim-backlog": DARK_ON_SIM,
    # sim-burst runs the data-aware policy alone
    "sim-burst": DARK_ON_SIM | {"sim.run_scenario.round-robin.s",
                                "sim.run_scenario.random.s"},
    "grid-wire": {
        # the simulator does not run on grid-wire
        "sim.run_scenario.data-aware.s", "sim.run_scenario.random.s",
        "sim.run_scenario.round-robin.s", "sim.self_s", "sim.load_scenario.s",
        # counted from the simulator's match cycles
        "matchmaker.run_match_cycle.calls", "matchmaker.run_match_cycle.s",
        "matchmaker.run_match_cycle.self_s", "matchmaker.jobs_offered",
        "matchmaker.match_yield", "matchmaker.idle_cycles",
        # matching runs in the mm and station server processes, which the
        # tracer in the client process does not see
        "classads.symmetric_match.calls", "classads.symmetric_match.s",
        "classads.symmetric_match.pass_ratio", "matchmaker.preauthorize.calls",
        "matchmaker.preauthorize.s", "matchmaker.rank_resources.calls",
        "matchmaker.rank_resources.s", "matchmaker.rank_resources.candidates",
        "station.get_preference.calls", "station.get_preference.s",
        "station.get_preference.distinct_ratio",
        # station state changes only in the simulator
        "station.apply_event.calls", "station.apply_event.s",
        # the q server lists and moves jobs in its own process; the loop only
        # submits, so the journal the client replays holds no state change
        "jobs.in_state.calls", "jobs.in_state.s",
        "jobs.transition.calls", "jobs.transition.s",
    },
}


def _traced_metrics(stdout: str) -> dict[str, dict]:
    """Workload name -> the metrics of its traced smoke run."""
    out, workload = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            name, trace = line[3:].split()
            workload = name if trace == "trace=1" else None
        elif workload is not None and line.startswith("{"):
            out[workload] = json.loads(line)["metrics"]
            workload = None
    return out


def test_bench_smoke_run_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout
    traced = _traced_metrics(proc.stdout)
    for workload, dark in DARK_ON.items():
        metrics = traced[workload]
        assert set(dark) <= set(metrics), workload  # a listed name went away
        zero = sorted(name for name, m in metrics.items()
                      if m["value"] == 0 and name not in dark)
        assert zero == [], f"{workload}: per-layer metrics read 0: {zero}"
