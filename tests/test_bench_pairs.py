"""The paired benchmark runner in tools/: its summary of result lines."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import (  # noqa: E402
    metric_directions, pair_ratio, seed_list, summarize, tree_code_lines, tree_opcodes)
from code_lines import code_lines  # noqa: E402


def _row(workload, pair, side, **values):
    return {"workload": workload, "pair": pair, "seed": 100 + pair, "side": side,
            "result": {"correct": True, "metrics": {
                name: {"value": value, "unit": "x"} for name, value in values.items()}}}


def test_summary_gives_quartiles_and_the_pairs_the_change_led():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [12.0, 11.5, 13.0, 15.0, 10.0]
    setup_p = [0.2, 0.3, 0.2, 0.4, 0.3]
    setup_c = [0.1, 0.3, 0.1, 0.5, 0.2]
    rows = []
    for pair in range(1, 6):
        rows.append(_row("w", pair, "parent", jobs_per_s=parent[pair - 1],
                         setup_s=setup_p[pair - 1], other=1.0))
        rows.append(_row("w", pair, "change", jobs_per_s=change[pair - 1],
                         setup_s=setup_c[pair - 1], other=2.0))
    rows.append(_row("w", 6, "parent", jobs_per_s=100.0))  # a pair with one side only
    summary = summarize(rows, {"jobs_per_s": "higher", "setup_s": "lower"})
    jobs = summary["w"]["jobs_per_s"]
    assert jobs["pairs"] == 5
    assert jobs["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert jobs["change"] == {"median": 12.0, "q1": 11.5, "q3": 13.0}
    assert jobs["change_ahead"] == 4  # pair 2 went the other way
    # lower is better: ahead in pairs 1, 3 and 5; pair 2 is a tie
    assert summary["w"]["setup_s"]["change_ahead"] == 3
    # a metric with no direction gets no ahead count
    assert "change_ahead" not in summary["w"]["other"]
    assert summary["w"]["other"]["better"] is None


def test_one_pair_has_its_values_as_quartiles():
    rows = [_row("w", 1, "parent", m=3.0), _row("w", 1, "change", m=2.0)]
    entry = summarize(rows, {"m": "lower"})["w"]["m"]
    assert entry["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert entry["change_ahead"] == 1


def test_each_pair_has_a_ratio_oriented_so_that_above_one_is_better():
    assert pair_ratio(10.0, 12.0, "higher") == 1.2
    assert pair_ratio(0.2, 0.1, "lower") == 2.0
    assert pair_ratio(0.0, 3.0, "higher") is None  # no ratio without both above 0
    assert pair_ratio(-5.0, 3.0, "lower") is None
    parent = [10.0, 20.0, 10.0, 40.0, 0.0]
    change = [11.0, 18.0, 13.0, 44.0, 5.0]
    rows = [_row("w", pair, side, up=values[pair - 1], down=values[pair - 1], other=1.0)
            for pair in range(1, 6)
            for side, values in (("parent", parent), ("change", change))]
    summary = summarize(rows, {"up": "higher", "down": "lower"})["w"]
    up, down = summary["up"], summary["down"]
    assert up["ratios"] == [1.1, 0.9, 1.3, 1.1, None]
    assert up["ratio"] == pytest.approx({"median": 1.1, "q1": 1.05, "q3": 1.15})
    assert down["ratios"] == [10 / 11, 20 / 18, 10 / 13, 40 / 44, None]
    assert down["ratio"]["median"] == (10 / 11 + 40 / 44) / 2
    assert "ratios" not in summary["other"] and "ratio" not in summary["other"]
    # no pair with a ratio: none to summarize
    only_zero = summarize([_row("w", 1, "parent", m=0.0), _row("w", 1, "change", m=0.0)],
                          {"m": "lower"})["w"]["m"]
    assert only_zero["ratios"] == [None] and only_zero["ratio"] is None


def test_the_written_file_holds_each_pairs_ratio(tmp_path, monkeypatch):
    # per seed, the parent's rate and the change's; run_bench stands in for the runs
    rates = {1: (100.0, 110.0), 2: (200.0, 190.0), 3: (50.0, 60.0)}
    monkeypatch.setattr(bench_pairs, "run_bench", lambda tree, workload, seed, *_: {
        "correct": True, "metrics": {"jobs_per_s": {
            "value": rates[seed][tree.name == "change"], "unit": "jobs/s"}}})
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "vogrid").mkdir(parents=True)
        (tmp_path / side / "bench").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "grid-wire", "--seeds", "1-3",
                             "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["summary"]["grid-wire"]["jobs_per_s"]
    assert entry["ratios"] == [1.1, 0.95, 1.2]
    assert entry["ratio"] == pytest.approx({"median": 1.1, "q1": 1.025, "q3": 1.15})
    assert entry["parent"]["median"] == 100.0 and entry["change"]["median"] == 110.0
    assert entry["change_ahead"] == 2


def test_seed_lists_and_metric_directions():
    assert seed_list("101-103,7") == [101, 102, 103, 7]
    better = metric_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["jobs_per_s"] == "higher" and better["setup_s"] == "lower"
    assert better["classads.symmetric_match.pass_ratio"] == "higher"


def test_each_tree_records_the_opcodes_of_its_simulator_workloads():
    assert tree_opcodes(ROOT, ["no-such"]) == {}  # counts nothing, runs nothing
    counts = tree_opcodes(ROOT, ["grid-wire", "sim-burst"], top=3)
    assert list(counts) == ["sim-burst", "grid-wire"]
    run = counts["sim-burst"]["data-aware"]
    assert run["opcodes"] > 100_000 and len(run["by_function"]) == 3
    # and the service path beside them: grid-wire's one-job MATCH_REQUEST
    served = counts["grid-wire"]["MATCH_REQUEST"]
    assert served["requests"] == 128 and len(served["by_function"]) == 3
    assert served["opcodes_per_request"] == served["opcodes"] / 128


def test_each_tree_records_its_code_lines(tmp_path, monkeypatch):
    package = ROOT / "src" / "vogrid"
    lines = tree_code_lines(ROOT)
    assert lines["by_file"]["jobs.py"] == code_lines((package / "jobs.py").read_text())
    assert lines["by_file"]["classads/ads.py"] == \
        code_lines((package / "classads" / "ads.py").read_text())
    assert set(lines["by_file"]) == \
        {p.relative_to(package).as_posix() for p in package.rglob("*.py")}
    assert lines["total"] == sum(lines["by_file"].values())
    # the file the runner writes holds both trees' counts
    sources = {"parent": {"a.py": "x = 1\n"},
               "change": {"a.py": "x = 1\n# a comment\n", "sub/b.py": "y = [\n    2]\n"}}
    for side, files in sources.items():
        for name, text in files.items():
            path = tmp_path / side / "src" / "vogrid" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        (tmp_path / side / "bench").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: {
        "correct": True, "metrics": {"jobs_per_s": {"value": 1.0, "unit": "jobs/s"}}})
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--workload", "grid-wire", "--seeds", "1",
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["code_lines"] == {
        "parent": {"total": 1, "by_file": {"a.py": 1}},
        "change": {"total": 3, "by_file": {"a.py": 1, "sub/b.py": 2}}}
    # grid-wire is counted, but neither stand-in tree holds a matchmaker
    assert [list(doc["opcodes"][side]) for side in ("parent", "change")] == [["error"]] * 2
