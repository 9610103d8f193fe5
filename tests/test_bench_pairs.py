"""The summary that tools/bench_pairs.py writes for paired benchmark runs."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def pair(seed, parent, change):
    return {"seed": seed, "first": "parent", "parent": {"metrics": parent}, "change": {"metrics": change}}


PAIRS = [
    pair(1, {"ops": 100.0, "ms": 1.0}, {"ops": 120.0, "ms": 0.8}),
    pair(2, {"ops": 110.0, "ms": 1.0}, {"ops": 110.0, "ms": 1.2}),
    pair(3, {"ops": 90.0, "ms": 1.4}, {"ops": 130.0, "ms": 0.9}),
    pair(4, {"ops": 105.0, "ms": 1.1}, {"ops": 100.0, "ms": 0.7}),
    pair(5, {"ops": 95.0, "ms": 0.9}, {"ops": 125.0, "ms": 0.9}),
]


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    out = bench_pairs.summarize(PAIRS, {"ops": "higher", "ms": "lower"})
    assert (out["ops"]["wins"], out["ops"]["losses"]) == (3, 1)
    assert (out["ms"]["wins"], out["ms"]["losses"]) == (3, 1)
    assert out["ops"]["pairs"] == out["ms"]["pairs"] == 5


def test_each_side_gets_its_median_and_quartiles():
    out = bench_pairs.summarize(PAIRS, {"ops": "higher"})["ops"]
    assert out["parent"] == {"q1": 95.0, "median": 100.0, "q3": 105.0}
    assert out["change"] == {"q1": 110.0, "median": 120.0, "q3": 125.0}
    assert out["median_change"] == pytest.approx(0.2)


def test_a_single_pair_is_its_own_quartiles():
    out = bench_pairs.summarize(PAIRS[:1], {"ms": "lower"})["ms"]
    assert out["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert out["wins"] == 1


def test_plan_items_parse_and_refuse_bad_input():
    assert bench_pairs.parse_plan("obstructed=10@101") == ("obstructed", 10, 101)
    with pytest.raises(argparse.ArgumentTypeError, match="workload=pairs@first_seed"):
        bench_pairs.parse_plan("obstructed:10")


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\nw = 4")  # no final newline, as wc -l
    (tmp_path / "src" / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "setup.py").write_text("outside = True\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def test_a_run_keeps_its_per_call_and_slope_tables(tmp_path, monkeypatch):
    """run_once reads the end-to-end metrics from the last line the run
    prints, and the per-call and slope tables from the report it wrote;
    summarize counts wins on the metrics alone."""
    tables = {
        "per_call_ms": {"decide": {"p50": 0.4, "p90": 1.2, "n": 171},
                        "verify_certificate": {"p50": 0.1, "p90": 0.3, "n": 171}},
        "slopes": {"decide.knt": {"exponent": 1.02, "sizes": [10, 900], "ms": [0.02, 1.9], "cases": 40}},
    }
    out = tmp_path / "bench" / "out"
    out.mkdir(parents=True)
    (out / "obstructed-seed5-trace0.json").write_text(json.dumps({**tables, "metrics": {"ops": 1.0}}))
    (out / "obstructed-seed6-trace0.json").write_text(json.dumps({"per_call_ms": {}, "slopes": {}}))
    line = {"correct": True, "attempted": 9, "failed": 0, "metrics": {"ops": {"value": 550.0, "unit": "ops/s"}}}
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((cmd, cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout="report\n" + json.dumps(line) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run = bench_pairs.run_once(tmp_path, "obstructed", 5, 2.0)
    assert calls == [([bench_pairs.sys.executable, "bench/run.py", "--workload", "obstructed", "--seed", "5",
                       "--seconds", "2.0", "--trace", "0"], tmp_path)]
    assert run == {"correct": True, "attempted": 9, "failed": 0, "metrics": {"ops": 550.0}, **tables}
    other = bench_pairs.run_once(tmp_path, "obstructed", 6, 2.0)
    summary = bench_pairs.summarize([{"seed": 5, "first": "parent", "parent": run, "change": other}], {"ops": "higher"})
    assert set(summary) == {"ops"} and summary["ops"]["wins"] == 0
