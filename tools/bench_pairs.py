"""Paired benchmark runs of two checkouts, summarised into BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --label 9 \
        --seconds 20 obstructed=10@101 colorable=5@201 exact=5@301

Each ``workload=pairs@first_seed`` runs ``bench/run.py`` once per pair on
each checkout, with seeds first_seed, first_seed + 1, ..., and the side that
runs first alternating from pair to pair (the parent on even pairs). Every
run reads the end-to-end metrics from the last line ``bench/run.py`` prints.
The record, written to BENCH_<label>.json at the root of the repository that
holds this script, keeps every pair's values, each side's median and
quartiles, and per metric the number of pairs the change won and lost (ties
count for neither), with the direction taken from BENCHMARK.json. Each run
also keeps the per-call and slope tables of the report it wrote under
bench/out/, ungated. The record also keeps each checkout's ``src/`` line
count, so the tracked code size and the timings come from one record.

Each run is bounded by a timeout of 10 x --seconds + RUN_GRACE_S. A run
that times out or exits non-zero stops the record: the script exits with
a message naming the side, workload, seed and exit status, with the last
lines of the run's stderr. The record is written after every pair, so the
pairs already run are kept.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_GRACE_S = 120  # a run may take 10 x its --seconds plus this (set-up, report) before it is stopped
STDERR_TAIL = 20  # lines of a failed run's stderr kept in its message


class RunFailed(Exception):
    """A bench run that timed out or exited non-zero."""


def _tail(text: str | bytes | None) -> str:
    if isinstance(text, bytes):
        text = text.decode(errors="replace")
    return "\n".join((text or "").splitlines()[-STDERR_TAIL:])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced bench run: correctness, counts and
    {metric: value}, with the run's per-call and slope tables beside them.
    Raises RunFailed, naming the workload, seed and exit status with the
    tail of stderr, when the run times out or exits non-zero."""
    timeout = 10 * seconds + RUN_GRACE_S
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        message = f"{workload} seed {seed}: timed out after {timeout:g} s"
        raise RunFailed(f"{message}\n{_tail(exc.stderr)}") from None
    if proc.returncode != 0:
        raise RunFailed(f"{workload} seed {seed}: exit status {proc.returncode}\n{_tail(proc.stderr)}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": line["correct"],
        "attempted": line["attempted"],
        "failed": line["failed"],
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        **run_tables(checkout, workload, seed),
    }


def run_tables(checkout: Path, workload: str, seed: int) -> dict:
    """``per_call_ms`` (per public call, such as decide and
    verify_certificate) and ``slopes`` from the report the run wrote to
    bench/out/<workload>-seed<seed>-trace0.json. They are kept as read, and
    no win or loss is counted on them."""
    report = json.loads((checkout / "bench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {key: report[key] for key in ("per_call_ms", "slopes")}


def src_lines(checkout: Path) -> int:
    """Lines of the Python files under the checkout's src/, as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and the first and third quartiles (inclusive method)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric: each side's quartiles, the change's wins and losses over
    the pairs, and the relative change of the medians. ``better`` maps a
    metric to "higher" or "lower"."""
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        stats = {side: quartiles(values[side]) for side in SIDES}
        base = stats["parent"]["median"]
        out[name] = {
            **stats,
            "wins": sum(d > 0 for d in diffs),
            "losses": sum(d < 0 for d in diffs),
            "pairs": len(pairs),
            "median_change": (stats["change"]["median"] - base) / base if base else None,
        }
    return out


def git_head(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or None


def parse_plan(item: str) -> tuple[str, int, int]:
    """``workload=pairs@first_seed`` -> (workload, pairs, first_seed)."""
    try:
        workload, rest = item.split("=")
        pairs, seed = rest.split("@")
        return workload, int(pairs), int(seed)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected workload=pairs@first_seed, got {item!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--label", required=True, help="the record is written to BENCH_<label>.json")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("plan", nargs="+", type=parse_plan, help="workload=pairs@first_seed")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": spec["command"] + ["--seconds", str(args.seconds), "--trace", "0"],
        "commits": {side: git_head(path) for side, path in checkouts.items()},
        "src_lines": {side: src_lines(path) for side, path in checkouts.items()},
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "workloads": {},
    }
    out_path = ROOT / f"BENCH_{args.label}.json"
    for workload, n_pairs, first_seed in args.plan:
        pairs = []
        for i in range(n_pairs):
            seed = first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                try:
                    pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
                except RunFailed as exc:
                    out_path.write_text(json.dumps(record, indent=1) + "\n")
                    raise SystemExit(f"bench_pairs: the {side} run failed, {exc}\n"
                                     f"{len(pairs)} pair(s) of {workload} kept in {out_path}") from None
            pairs.append(pair)
            record["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, better)}
            out_path.write_text(json.dumps(record, indent=1) + "\n")  # kept after each pair
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} ops_per_s {pair[side]['metrics']['ops_per_s']:.1f}" for side in SIDES
            ), flush=True)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
