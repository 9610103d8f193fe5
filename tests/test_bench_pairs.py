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


FAKE_RUN = '''import json, sys, time
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
if seed == {fail_seed}:
    print("set-up of seed", seed, file=sys.stderr)
    print("boom: the last line", file=sys.stderr)
    {fail}
out = Path("bench/out")
out.mkdir(exist_ok=True)
(out / f"{{args['--workload']}}-seed{{seed}}-trace0.json").write_text(json.dumps({{"per_call_ms": {{}}, "slopes": {{}}}}))
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {{"ops_per_s": {{"value": 100.0 + seed}}, "answer_ms.p50": {{"value": 1.0}}}}}}))
'''


def fake_checkout(root, fail_seed=None, fail="sys.exit(3)"):
    """A checkout whose bench/run.py prints a result line and writes its
    report, except on ``fail_seed``, where it writes to stderr and runs ``fail``."""
    (root / "bench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "bench" / "run.py").write_text(FAKE_RUN.format(fail_seed=fail_seed, fail=fail))
    spec = {"command": ["python3", "bench/run.py"], "end_to_end": [
        {"name": "ops_per_s", "better": "higher"}, {"name": "answer_ms.p50", "better": "lower"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


@pytest.mark.parametrize("fail, status", [("sys.exit(3)", "exit status 3"), ("time.sleep(60)", "timed out after")])
def test_a_failed_or_hung_run_names_itself_and_keeps_the_pairs_run(tmp_path, monkeypatch, fail, status):
    """The change side fails on the second pair's seed: the script stops
    with the side, workload, seed, status and stderr's last lines, and the
    first pair is kept in the record."""
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "RUN_GRACE_S", 1.5)
    parent = fake_checkout(tmp_path / "parent")
    change = fake_checkout(tmp_path / "change", fail_seed=6, fail=fail)
    argv = ["--parent", str(parent), "--change", str(change), "--label", "t", "--seconds", "0.01",
            "obstructed=3@5"]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    message = str(info.value)
    assert message.startswith(f"bench_pairs: the change run failed, obstructed seed 6: {status}")
    assert "boom: the last line" in message and "1 pair(s) of obstructed kept" in message
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    pairs = record["workloads"]["obstructed"]["pairs"]
    assert [p["seed"] for p in pairs] == [5]
    assert pairs[0]["change"]["metrics"]["ops_per_s"] == 105.0


def test_every_pair_is_recorded_as_it_ends(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    parent, change = fake_checkout(tmp_path / "parent"), fake_checkout(tmp_path / "change")
    argv = ["--parent", str(parent), "--change", str(change), "--label", "t", "--seconds", "0.01",
            "obstructed=2@5", "exact=1@9"]
    assert bench_pairs.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert {w: [p["seed"] for p in v["pairs"]] for w, v in record["workloads"].items()} == {
        "obstructed": [5, 6], "exact": [9]}
    assert [p["first"] for p in record["workloads"]["obstructed"]["pairs"]] == ["parent", "change"]
