"""Smoke tests for the benchmark harness, at the smallest rung of every ladder.

    python -m pytest bench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()
import workloads as ws  # noqa: E402
from tracer import Tracer  # noqa: E402

SHRINK = 16


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """run.main on shrunken workloads, writing its record to a temp dir;
    returns the parsed result line."""
    monkeypatch.setattr(ws, "iter_cases", functools.partial(ws.iter_cases, shrink=SHRINK))
    monkeypatch.setattr(run, "OUT", tmp_path)

    def go(workload, trace, capsys):
        argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        assert run.main(argv) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return go


@pytest.mark.parametrize("workload", sorted(ws.WORKLOADS))
def test_every_smoke_op_passes_its_check(workload):
    cases = list(ws.iter_cases(workload, 1, shrink=SHRINK))
    assert {c.family for c in cases} == {f.name for f in ws.WORKLOADS[workload]}
    for case in cases:
        times: dict[str, float] = {}
        assert ws.run_op(case, times), (case.family, case.size)
        assert case.call in times


def test_same_seed_same_inputs():
    a = list(ws.iter_cases("colorable", 5, shrink=SHRINK))
    b = list(ws.iter_cases("colorable", 5, shrink=SHRINK))
    assert [(c.family, c.inst) for c in a] == [(c.family, c.inst) for c in b]


def test_a_wrong_answer_fails_the_op():
    case = next(ws.iter_cases("exact", 1, shrink=SHRINK))
    assert case.expect == ws.COLORABLE
    wrong = ws.Case(case.family, case.size, case.call, ws.OBSTRUCTED, case.inst)
    assert not ws.run_op(wrong, {})


@pytest.mark.parametrize("workload", sorted(ws.WORKLOADS))
def test_end_to_end_line(workload, smoke, capsys):
    line = smoke(workload, 0, capsys)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == list(run.load_spec()["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_counts_repeat(smoke, capsys):
    first = smoke("obstructed", 1, capsys)["metrics"]
    second = smoke("obstructed", 1, capsys)["metrics"]
    assert list(first) == list(run.load_spec()["per_layer"])
    counts = [k for k in first if k.endswith(".calls")]
    assert counts and all(first[k]["value"] == second[k]["value"] for k in counts)
    assert first["obstruction.find_certificate.hit_share"]["value"] == 1.0
    assert 0 < first["obstruction.pattern_adjacent.edge_share"]["value"] < 1


def test_tracer_restores_the_package():
    import dpcover

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("dpcover.")]
    before = {(m.__name__, k): v for m in [dpcover, *modules] for k, v in vars(m).items()}
    tracer = Tracer(dpcover, modules)
    tracer.install()
    assert dpcover.decide is not before[("dpcover", "decide")]
    assert dpcover.obstruction.decide is dpcover.decide
    tracer.uninstall()
    after = {(m.__name__, k): v for m in [dpcover, *modules] for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_refuses_to_run_without_the_package(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark's own files.
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
