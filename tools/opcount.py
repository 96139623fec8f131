"""Count the Python opcodes one simulator run, or one MATCH_REQUEST,
executes, by function.

    python tools/opcount.py [--tree TREE] [--workload sim-burst] [--top 20]
    python tools/opcount.py --against OTHER_TREE [--tree TREE] [--workload ...]

For each simulator workload of the benchmark it loads the workload's seed-1
scenario from TREE (the source tree to measure, by default the one holding
this file: `TREE/src` and `TREE/bench/scenarios.py`) and runs each of the
workload's policies; a `load` entry beside the runs counts one
`load_scenario` of the seed-1 document, its 16 site configurations read
and its job ads parsed. For `grid-wire` it counts the matchmaker's service
path in-process: a `MatchmakerService` holding the slots of the seed-1
wire grid, whose station query asks `station.get_preference` of the grid's
station fixtures, serves one one-job MATCH_REQUEST per job template, as
the workload sends them. Each run is made once warm, then once counted, and
it prints one JSON object: per workload and run, the opcodes of the
counted run in total, by module and by function (`module:qualified
name`), and for `grid-wire` the requests served and the opcodes per
request. `--top` keeps only the largest functions. Uses only the standard
library (`sys.settrace` with `f_trace_opcodes`).

With `--against OTHER_TREE` it counts both trees, each in a fresh
interpreter (one process imports one tree's `vogrid`), and prints instead,
per workload and run, both totals and their difference, and each
function's difference, TREE's count less OTHER_TREE's, largest change
first, leaving out the functions that did not change; `--top` keeps the
largest changes. So a change can show where its saving sits.

A count is exact: the same tree and interpreter give the same count on
every run, whatever else the machine is doing, so it can tell two trees
apart where timed runs on a shared machine cannot. But it measures
bytecode, not time. An opcode that calls into C costs one count however
long the C code runs, so work moved from Python into a builtin lowers the
count without making a run faster, and may make it slower: a shortfall
walk rewritten with `itertools.compress`, `map` and `functools.reduce`
executed 15.6% fewer opcodes and ran about 7% slower, in 6 of 6 timed
pairs (CPython 3.11.7 on a shared 2-CPU VM). The other way round, a
count misses most of the cost of building a class instance: the class
call and the object's allocation run in C. A job history entry that was
a `NamedTuple` ran 9 opcodes in its generated `__new__`, yet took about
600 ns under `timeit` against 58 ns for a plain tuple (same machine).
The constructor that `collections.namedtuple` generates shows up as
`<string>:<lambda>`: in a seed-1 `sim-burst` run it once ran 8,765 opcodes
for 855 tuples (256 shortfalls, 471 preference reports and 128 match
decisions), about 10 each, yet under `timeit` a five-field report took
368 ns through it against 160 ns through `tuple.__new__`, which it calls
inside, and a match decision by keywords 529 ns against 171 ns (same
machine). A report or a decision is now built with `tuple.__new__`, and a
shortfall is a plain tuple.
Plain (state, stamp, detail) triples, with the report and the station
steps made in one pass and the simulator's job states read from module
names, cut seed-1 `sim-backlog` data-aware opcodes by
only 7.5% (1,135,070 to 1,049,476), yet the workload's rate rose by a
median factor of 1.20 over ten timed pairs, about 17% less time per job.
Cite a count beside the timed pairs, never in place of them.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

# workload -> (grid shape, runs): the simulator's policies, as bench/run.py
# runs them, or the one MATCH_REQUEST of each round of grid-wire
WORKLOADS = {
    "sim-burst": ("burst", ("data-aware",)),
    "sim-backlog": ("backlog", ("data-aware", "random", "round-robin")),
    "grid-wire": ("wire", ("MATCH_REQUEST",)),
}
SEED = 1  # the workload seed, and the run_scenario seed
AD_TTL = 10.0 ** 6  # grid-wire's advertised TTL


def count_opcodes(fn, *args) -> tuple[object, dict]:
    """`fn(*args)`'s result, and the opcodes it executed per code object."""
    counts: dict = {}

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, counts


def by_function(counts: dict, modules: dict[str, str]) -> dict[str, int]:
    """`module:qualified name` -> opcodes, largest first. `modules` maps a
    source file to its module name; a file outside it keeps its path."""
    named: dict[str, int] = {}
    for code, n in counts.items():
        qualname = getattr(code, "co_qualname", code.co_name)  # 3.11 on
        name = f"{modules.get(code.co_filename, code.co_filename)}:{qualname}"
        named[name] = named.get(name, 0) + n
    return dict(sorted(named.items(), key=lambda item: (-item[1], item[0])))


def by_module(functions: dict[str, int]) -> dict[str, int]:
    """Module -> opcodes, largest first, from `by_function`'s result."""
    modules: dict[str, int] = {}
    for name, n in functions.items():
        module = name.rpartition(":")[0]
        modules[module] = modules.get(module, 0) + n
    return dict(sorted(modules.items(), key=lambda item: (-item[1], item[0])))


def _load_scenarios(tree: Path):
    spec = importlib.util.spec_from_file_location(
        "bench_scenarios", tree / "bench" / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sim_runs(scenarios, shape: str, policies) -> dict:
    """One `load_scenario` of the shape's seed-1 document, as "load", and
    each policy's seed-1 run of the scenario, as (fn, args)."""
    from vogrid import sim
    doc = scenarios.scenario_doc(scenarios.make_grid(SEED, shape))
    scenario = sim.load_scenario(doc)
    return {"load": (sim.load_scenario, (doc,)),
            **{policy: (sim.run_scenario, (scenario, policy, SEED)) for policy in policies}}


def _same(result) -> object:
    """What of a run's result two runs must agree on: a loaded scenario by
    its fields (its catalog compares by identity), any other result whole."""
    from vogrid import sim
    if isinstance(result, sim.Scenario):
        return result.name, result.sites, result.job_ads, result.ttl
    return result


def _match_requests(scenarios, shape: str) -> tuple:
    """A function serving MATCH_REQUESTs in-process, and one one-job
    MATCH_REQUEST per job template of the seed-1 grid, as grid-wire sends
    them."""
    from vogrid import advertise, matchmaker, station
    from vogrid.classads import ad_to_json
    from vogrid.conftree import derive_service_config

    grid = scenarios.make_grid(SEED, shape)
    catalog = station.DatasetCatalog(grid["catalog"])
    stations = {}
    for spec in grid["sites"]:
        for node in derive_service_config(scenarios.site_config(spec), "station").children:
            st = station.station_from_config(node, scenarios.station_fixture(spec))
            stations[st.station_id] = st

    def query(dataset, station_id, output_bytes):
        return station.get_preference(catalog, stations[station_id], dataset,
                                      output_bytes).score

    service = matchmaker.MatchmakerService(query, clock=lambda: 0.0)
    for spec in grid["sites"]:
        config = scenarios.site_config(spec)
        for ad in advertise.generate_classads(advertise.select_patterns(config)):
            reply = service.handle_message({"type": "ADVERTISE", "id": 0,
                                            "ad": ad_to_json(ad),
                                            "gridmap": spec["gridmap"], "ttl": AD_TTL})
            if "error" in reply:
                raise SystemExit(f"opcount: ADVERTISE refused: {reply['error']}")
    requests = [{"type": "MATCH_REQUEST", "id": n, "jobs": [{
        "id": job["id"], "kind": "job",
        "attrs": dict(scenarios.job_attrs(job, with_run_seconds=False),
                      Rank="fun(Dataset, OTHER.Station_ID)")}]}
        for n, job in enumerate(grid["jobs"])]

    def serve(requests):
        return [service.handle_message(msg) for msg in requests]
    return serve, requests


def measure(tree: Path, workloads: list[str], top: int | None = None) -> dict:
    """The counts of `tree`'s seed-1 runs of each of `workloads`."""
    if str(tree / "src") not in sys.path:
        sys.path.insert(0, str(tree / "src"))
    from vogrid import sim

    if Path(sim.__file__).resolve().parent != (tree / "src" / "vogrid").resolve():
        raise SystemExit(f"opcount: imported vogrid from {sim.__file__}, not from {tree}")
    scenarios = _load_scenarios(tree)
    out: dict = {}
    for workload in workloads:
        shape, names = WORKLOADS[workload]
        requests = None
        if workload == "grid-wire":
            serve, requests = _match_requests(scenarios, shape)
            runs = {names[0]: (serve, (requests,))}
        else:
            runs = _sim_runs(scenarios, shape, names)
        for run, (fn, args) in runs.items():
            warm = fn(*args)
            counted, counts = count_opcodes(fn, *args)
            if _same(counted) != _same(warm):
                raise SystemExit(f"opcount: {workload} {run}: the counted run differs")
            modules = {m.__file__: name for name, m in list(sys.modules.items())
                       if getattr(m, "__file__", None)}
            functions = by_function(counts, modules)
            entry = out.setdefault(workload, {})[run] = {
                "opcodes": sum(functions.values()),
                "by_module": by_module(functions),
                "by_function": dict(list(functions.items())[:top]),
            }
            if requests is not None:
                entry["requests"] = len(requests)
                entry["opcodes_per_request"] = entry["opcodes"] / len(requests)
    return out


def _measured_apart(tree: Path, workloads: list[str]) -> dict:
    """`measure(tree, workloads)`, every function of each run, as this
    script finds it in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree),
         *(f"--workload={w}" for w in workloads)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"opcount: counting {tree} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)["workloads"]


def difference(counts: dict, against: dict, top: int | None = None) -> dict:
    """Per workload and run of `counts`, `measure`'s result for one tree:
    both totals and their difference, and each function's count less its
    count in `against`, the other tree's, largest change first, the
    functions that did not change left out, only the `top` largest kept."""
    out: dict = {}
    for workload, runs in counts.items():
        for run, entry in runs.items():
            base = against[workload][run]
            mine, theirs = entry["by_function"], base["by_function"]
            changes = [(name, mine.get(name, 0) - theirs.get(name, 0))
                       for name in mine.keys() | theirs.keys()]
            changes.sort(key=lambda item: (-abs(item[1]), item[0]))
            out.setdefault(workload, {})[run] = {
                "opcodes": {"against": base["opcodes"], "tree": entry["opcodes"],
                            "change": entry["opcodes"] - base["opcodes"]},
                "by_function": dict([c for c in changes if c[1]][:top]),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the source tree to measure")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="a workload to count (default: every one)")
    parser.add_argument("--top", type=int, default=None,
                        help="keep only this many functions per run, the largest")
    parser.add_argument("--against", type=Path, default=None,
                        help="another source tree: print the counts' difference")
    args = parser.parse_args(argv)
    tree, workloads = args.tree.resolve(), args.workload or list(WORKLOADS)
    doc = {"python": platform.python_version(), "seed": SEED}
    if args.against is None:
        doc["workloads"] = measure(tree, workloads, args.top)
    else:
        doc.update(tree=str(tree), against=str(args.against.resolve()))
        doc["workloads"] = difference(_measured_apart(tree, workloads),
                                      _measured_apart(args.against.resolve(), workloads),
                                      args.top)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
