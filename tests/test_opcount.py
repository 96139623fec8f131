"""The opcode counter in tools/."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from opcount import by_function, by_module, count_opcodes, main  # noqa: E402


def _loop(n: int) -> int:
    total = 0
    for k in range(n):
        total += k
    return total


def test_a_count_is_exact_and_follows_the_work():
    result, counts = count_opcodes(_loop, 10)
    assert result == 45
    again = count_opcodes(_loop, 10)[1]
    assert again == counts  # the same work, the same count
    more = count_opcodes(_loop, 20)[1]
    [code] = counts
    assert code is _loop.__code__
    # each further step of the loop costs the same few opcodes
    step = (more[code] - counts[code]) / 10
    assert step == int(step) and 3 <= step <= 12


def test_counts_are_named_by_module_and_function():
    _, counts = count_opcodes(_loop, 5)
    functions = by_function(counts, {__file__: "tests.opcount"})
    assert list(functions) == ["tests.opcount:_loop"]
    assert by_module(functions) == {"tests.opcount": sum(counts.values())}


def test_it_counts_the_seed_1_burst_run_of_this_tree(capsys):
    assert main(["--workload", "sim-burst", "--top", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    run = doc["workloads"]["sim-burst"]["data-aware"]
    assert list(doc["workloads"]) == ["sim-burst"] and doc["seed"] == 1
    assert len(run["by_function"]) == 5
    assert sum(run["by_module"].values()) == run["opcodes"] > 100_000
    assert "vogrid.sim" in run["by_module"]
