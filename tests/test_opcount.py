"""The opcode counter in tools/."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import opcount  # noqa: E402
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
    # job states are read as module names and written as themselves: no
    # `enum` code runs (a `.value` read once ran 1,792 opcodes of it here)
    assert "enum" not in run["by_module"]


def test_it_counts_one_match_request_per_wire_template(capsys):
    assert main(["--workload", "grid-wire"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["workloads"]) == ["grid-wire"]
    run = doc["workloads"]["grid-wire"]["MATCH_REQUEST"]
    assert run["requests"] == 128  # the seed-1 wire grid's job templates
    assert sum(run["by_module"].values()) == run["opcodes"] == 128 * run["opcodes_per_request"]
    # served in-process on the matchmaker's path, ranked by the stations
    for function in ("vogrid.matchmaker:MatchmakerService._match_request",
                     "vogrid.matchmaker:run_match_cycle",
                     "vogrid.station:get_preference"):
        assert run["by_function"][function] > 0


def test_each_counted_match_request_is_answered_with_a_match():
    # a count of error replies would measure nothing of the match pass
    scenarios = opcount._load_scenarios(Path(opcount.__file__).resolve().parents[1])
    serve, requests = opcount._match_requests(scenarios, "wire")
    replies = serve(requests)
    assert len(replies) == len(requests) == 128
    for reply, msg in zip(replies, requests):
        [decision] = reply["result"]["decisions"]
        assert decision["job_id"] == msg["jobs"][0]["id"]
        assert decision["outcome"] == "matched"
