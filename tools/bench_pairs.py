"""Run the benchmark on two source trees in alternating pairs and write one
JSON file of every result.

    python tools/bench_pairs.py --parent OLD_TREE --change NEW_TREE \
        --workload sim-burst --seeds 101-110 --seconds 30 --out BENCH_<n>.json

Both trees are byte-compiled first, so neither pays for compiling its
modules inside a timed run. Each pair runs the unchanged `bench/run.py` of
both trees on one seed, the parent first in odd-numbered pairs and the
change first in even-numbered ones. The file holds the raw result lines, each
side's median and quartiles per metric, how many pairs the change was ahead
in (by the metric's `better` in BENCHMARK.json), each pair's ratio of the
change to the parent with their median and quartiles, the CPU count and the
Python version. A ratio is oriented so that above 1 means the change was
better: change / parent for a metric where higher is better, parent /
change where lower is. Both sides' medians drift from one session to the
next on a shared machine, while the two runs of one pair drift together,
so the median ratio holds steadier than either side's median. The file also
holds each tree's opcode counts for the workloads among them that
`tools/opcount.py` counts, the simulator runs and grid-wire's one-job
MATCH_REQUEST (run once per tree: a count is the same on every run),
so that a claim can cite the work done beside the time taken, and each
tree's `src/vogrid` code lines, in total and by file (`tools/code_lines.py`),
so that it can cite the code it took. Uses only the standard library.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from code_lines import count_files
from opcount import WORKLOADS as COUNTED  # the workloads it counts

SIDES = ("parent", "change")
OPCOUNT = Path(__file__).resolve().with_name("opcount.py")


def seed_list(spec: str) -> list[int]:
    """Seeds from "1,4,7" or "101-110" (inclusive), or a mix of the two."""
    seeds = []
    for part in spec.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def metric_directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from a BENCHMARK.json document."""
    return {m["name"]: m["better"]
            for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of a tree's bench/run.py: its last output line, decoded."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    result["returncode"] = proc.returncode
    return result


def tree_opcodes(tree: Path, workloads: list[str], top: int = 25) -> dict:
    """`tools/opcount.py`'s counts of `tree` for the workloads among
    `workloads` that it counts, with the `top` largest functions of each
    run; {} when there are none, and the error output when the count fails."""
    wanted = [w for w in COUNTED if w in workloads]
    if not wanted:
        return {}
    proc = subprocess.run(
        [sys.executable, str(OPCOUNT), "--tree", str(tree), "--top", str(top),
         *(f"--workload={w}" for w in wanted)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout)["workloads"]
    except (ValueError, KeyError):
        return {"error": proc.stderr[-2000:]}


def tree_code_lines(tree: Path) -> dict:
    """`tools/code_lines.py`'s count of the tree's `src/vogrid`: the total,
    and each file's count by its path under `src/vogrid`."""
    package = tree / "src" / "vogrid"
    by_file = {path.relative_to(package).as_posix(): n
               for path, n in count_files([package]).items()}
    return {"total": sum(by_file.values()), "by_file": by_file}


def _spread(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def pair_ratio(parent: float, change: float, better: str) -> float | None:
    """The change's value over the parent's, oriented so that above 1 is
    better (`better` is "higher" or "lower"); None unless both are above 0."""
    if not (parent > 0 and change > 0):
        return None
    return change / parent if better == "higher" else parent / change


def summarize(rows: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median and quartiles, in how
    many pairs the change was ahead, and the pairs' ratios (`pair_ratio`,
    null for a pair without one) with the median and quartiles of those
    that exist. `rows` are the raw records, each with "workload", "pair",
    "side" and the bench "result"; a metric without a direction in `better`
    gets no ahead count and no ratios."""
    runs: dict[tuple[str, int], dict[str, dict]] = {}
    for row in rows:
        runs.setdefault((row["workload"], row["pair"]), {})[row["side"]] = row["result"]
    out: dict[str, dict] = {}
    for (workload, _), pair in sorted(runs.items()):
        if set(pair) != set(SIDES):
            continue
        metrics = out.setdefault(workload, {})
        names = set(pair["parent"].get("metrics", {}))
        names &= set(pair["change"].get("metrics", {}))
        for name in sorted(names):
            values = {side: pair[side]["metrics"][name]["value"] for side in SIDES}
            entry = metrics.setdefault(name, {"parent": [], "change": [],
                                              "better": better.get(name), "pairs": 0,
                                              "change_ahead": 0, "ratios": []})
            entry["pairs"] += 1
            for side in SIDES:
                entry[side].append(values[side])
            sign = {"higher": 1, "lower": -1}.get(entry["better"], 0)
            entry["change_ahead"] += sign * (values["change"] - values["parent"]) > 0
            if sign:
                entry["ratios"].append(
                    pair_ratio(values["parent"], values["change"], entry["better"]))
    for metrics in out.values():
        for entry in metrics.values():
            for side in SIDES:
                entry[side] = _spread(entry[side])
            if entry["better"] is None:
                del entry["change_ahead"], entry["ratios"]
                continue
            known = [r for r in entry["ratios"] if r is not None]
            entry["ratio"] = _spread(known) if known else None
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="the tree to compare against")
    parser.add_argument("--change", type=Path, required=True, help="the tree under test")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help='one seed per pair, as "101-110" or "1,4,7"')
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        for part in ("src", "bench"):
            compileall.compile_dir(str(tree / part), quiet=1)
    better = metric_directions(json.loads((trees["change"] / "BENCHMARK.json").read_text()))
    opcodes = {side: tree_opcodes(tree, args.workload) for side, tree in trees.items()}
    code = {side: tree_code_lines(tree) for side, tree in trees.items()}
    rows = []
    for workload in args.workload:
        for pair, seed in enumerate(args.seeds, 1):
            for side in (SIDES if pair % 2 else SIDES[::-1]):
                result = run_bench(trees[side], workload, seed, args.seconds, args.trace)
                rows.append({"workload": workload, "pair": pair, "seed": seed,
                             "side": side, "result": result})
                print(json.dumps(rows[-1]), flush=True)
    doc = {
        "command": ["bench/run.py", "--seconds", args.seconds, "--trace", args.trace],
        "order": "parent first in odd-numbered pairs, change first in even ones",
        "bytecode": "both trees byte-compiled before the first run",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "summary": summarize(rows, better),
        "opcodes": opcodes,
        "code_lines": code,
        "runs": rows,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
