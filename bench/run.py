"""dpcover benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload obstructed --seed 1 --seconds 20 --trace 0

Builds the workload's instances from the seed (timed as set-up), then runs
whole passes over them -- one operation at a time, each started after the
previous one returned -- until ``--seconds`` have gone by. Every answer is
checked. Every timing is reference-normalised (see kernel.py and README.md).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
The lines before it are a readable report, and a full record (plus, when
traced, every span) is written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from kernel import NOMINAL_S, kernel_seconds  # noqa: E402
from tracer import OPS, SETUP, Tracer  # noqa: E402

SETUP_REPEATS = 3


def load_spec() -> dict[str, dict[str, str]]:
    """Metric names and units, in order, from the repository's BENCHMARK.json:
    {"end_to_end": {name: unit}, "per_layer": {name: unit}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def load_package():
    """Import dpcover from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dpcover
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import dpcover from {src}: {exc}")
    if not Path(dpcover.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: dpcover was imported from {dpcover.__file__}, not {src}")
    return dpcover


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile; infinite values (failed ops) sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares exponent of time against size on log-log axes."""
    pts = [(math.log(s), math.log(t)) for s, t in points if t > 0 and math.isfinite(t)]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Clock:
    """Reference-normalised timing: a raw interval is scaled by NOMINAL_S over
    the kernel time measured around it -- the median of the kernel runs right
    after it, right before it and the one before that, so that one kernel run
    slowed by an interrupt does not skew the interval."""

    def __init__(self):
        for _ in range(20):  # warm up the interpreter's caches
            kernel_seconds()
        self.kernels = [kernel_seconds(), kernel_seconds()]

    def factor(self) -> float:
        """Run the kernel once more; factor for the interval just ended."""
        self.kernels.append(kernel_seconds())
        return NOMINAL_S / statistics.median(self.kernels[-3:])


def timed_setup(ws, workload, seed, clock, repeats, tracer=None):
    """Build the cases ``repeats`` times, normalising each case's build on
    its own; returns the last build and the set-up seconds of each."""
    setups = []
    for _ in range(repeats):
        cases: list = []
        gc.collect()
        total = 0.0
        pending = ws.iter_cases(workload, seed)
        while True:
            if tracer is not None:
                tracer.begin(SETUP, -1)
            t0 = time.perf_counter()
            case = next(pending, None)
            raw = time.perf_counter() - t0
            factor = clock.factor()
            if tracer is not None:
                tracer.end(factor)
            total += raw * factor
            if case is None:
                break
            cases.append(case)
        setups.append(total)
    return cases, setups


def run_pass(ws, cases, order, clock, results, tracer=None, pass_no=0):
    """One closed-loop pass over ``cases`` in ``order``."""
    for idx in order:
        case = cases[idx]
        times: dict[str, float] = {}
        error = None
        if tracer is not None:
            tracer.begin(OPS, pass_no * len(cases) + idx)
        t0 = time.perf_counter()
        try:
            passed = ws.run_op(case, times)
        except Exception as exc:  # a failed op is counted, never fatal
            passed, error = False, f"{type(exc).__name__}: {str(exc)[:120]}"
        raw = time.perf_counter() - t0
        factor = clock.factor()
        if tracer is not None:
            tracer.end(factor)
        results.append(
            {"case": idx, "pass": pass_no, "passed": passed, "error": error,
             "raw_s": raw, "norm_s": raw * factor,
             "calls_ms": {k: v * factor * 1e3 for k, v in times.items()}}
        )


def measure(ws, cases, seconds, seed, clock, tracer=None, first_pass=0):
    """Whole passes until ``seconds`` have elapsed, at least one."""
    rng = random.Random(f"order/{seed}")
    results: list[dict] = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        order = list(range(len(cases)))
        rng.shuffle(order)
        run_pass(ws, cases, order, clock, results, tracer, first_pass + passes)
        passes += 1
    return results, passes, time.perf_counter() - start


def call_samples(cases, results) -> list[float]:
    """Normalised ms of the answering call (decide, solve or solve_signed)
    per op; a failed op counts as +inf."""
    return [r["calls_ms"][cases[r["case"]].call] if r["passed"] else math.inf for r in results]


def per_call_table(cases, results):
    """Percentiles per package call, for the readable report."""
    by_call: dict[str, list[float]] = defaultdict(list)
    for r in results:
        case = cases[r["case"]]
        for name in (case.call, case.check):
            if name is not None:
                by_call[name].append(r["calls_ms"].get(name, math.inf) if r["passed"] else math.inf)
    return {
        name: {"p50": nearest_rank(v, 0.5), "p90": nearest_rank(v, 0.9), "n": len(v)}
        for name, v in sorted(by_call.items())
    }


def slope_table(cases, results):
    """Per family and call: (size, median normalised ms) per case, and the
    fitted log-log exponent."""
    per_case: dict[tuple[int, str], list[float]] = defaultdict(list)
    for r in results:
        if r["passed"]:
            for name, ms in r["calls_ms"].items():
                per_case[(r["case"], name)].append(ms)
    groups: dict[str, list[tuple[int, float]]] = defaultdict(list)
    for (idx, name), ms in per_case.items():
        case = cases[idx]
        call = {"solve_signed": "solve", "verify_certificate": "verify"}.get(name, name)
        if call in ("decide", "verify", "solve"):
            groups[f"{call}.slope.{case.family}"].append((case.size, statistics.median(ms)))
    table = {}
    for key, pts in sorted(groups.items()):
        exp = slope(pts)
        if exp is not None:
            sizes = sorted({s for s, _ in pts})
            table[key] = {"exponent": exp, "sizes": [sizes[0], sizes[-1]],
                          "ms": [min(t for _, t in pts), max(t for _, t in pts)], "cases": len(pts)}
    return table


def run_probe(ws, workload, clock):
    """The seed-failing instance of a workload, run once outside the measure."""
    if workload not in ws.PROBES:
        return None
    family, param = ws.PROBES[workload]
    case = ws.make_case(family, random.Random(0), param)
    times: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        outcome = "passed" if ws.run_op(case, times) else "wrong answer"
    except Exception as exc:
        outcome = type(exc).__name__
    norm = (time.perf_counter() - t0) * clock.factor()
    return {"family": family.name, "size": case.size, "outcome": outcome, "ms": norm * 1e3}


def end_to_end(cases, results, setups):
    passed = sum(r["passed"] for r in results)
    answer = call_samples(cases, results)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": passed / sum(r["norm_s"] for r in results),
        "answer_ms.p50": nearest_rank(answer, 0.5),
        "answer_ms.p90": nearest_rank(answer, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(names, tracer, passes, n_ops, overhead_share):
    """Per-layer metrics by name: ``<layer>.calls`` and ``<layer>.self_ms``
    per pass (per set-up for gen.* and instance_from_json), and the ratios."""
    calls = tracer.calls[OPS]
    self_ms = {k: v * 1e3 / passes for k, v in tracer.self_s[OPS].items()}
    setup_ms = {k: v * 1e3 for k, v in tracer.self_s[SETUP].items()}
    extra = tracer.extra[OPS]
    out = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name == "trace.overhead_share":
            value = overhead_share
        elif stat == "calls":
            value = calls[layer] / passes
        elif stat == "self_ms":
            value = (setup_ms if layer.startswith("gen.") or "instance_from" in layer else self_ms).get(layer, 0.0)
        elif stat == "calls_per_op":
            value = calls[layer] / (passes * n_ops)
        elif stat == "hit_share":
            value = extra[f"{layer}.hit"] / calls[layer] if calls[layer] else 0.0
        elif stat == "edge_share":
            value = extra[f"{layer}.edge"] / calls[layer] if calls[layer] else 0.0
        else:
            raise ValueError(f"no way to compute per-layer metric {name!r}")
        out[name] = value
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    package = load_package()
    import workloads as ws

    if args.workload not in ws.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(ws.WORKLOADS)}")

    clock = Clock()
    cases, setups = timed_setup(ws, args.workload, args.seed, clock, SETUP_REPEATS)
    gc.collect()
    gc.freeze()  # the inputs live for the whole run; keep them out of GC passes
    n_ops = len(cases)

    tracer = None
    if args.trace:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("dpcover.")]
        tracer = Tracer(package, modules)
        # One untraced pass is the base for the overhead share and the slopes.
        base, _, _ = measure(ws, cases, 0, args.seed, clock)
        tracer.install()
        try:
            timed_setup(ws, args.workload, args.seed, clock, 1, tracer)
            results, passes, wall = measure(ws, cases, args.seconds, args.seed, clock, tracer, first_pass=1)
        finally:
            tracer.uninstall()
        traced_per_pass = sum(r["norm_s"] for r in results) / passes
        overhead = traced_per_pass / sum(r["norm_s"] for r in base) - 1
        units = spec["per_layer"]
        metrics = per_layer(units, tracer, passes, n_ops, overhead)
        slopes = slope_table(cases, base)
        slope_source = base
    else:
        results, passes, wall = measure(ws, cases, args.seconds, args.seed, clock)
        units = spec["end_to_end"]
        values = end_to_end(cases, results, setups)
        metrics = {name: values[name] for name in units}
        slopes = slope_table(cases, results)
        slope_source = results

    probe = run_probe(ws, args.workload, clock)
    attempted = len(results)
    failed = sum(not r["passed"] for r in results)
    errors = Counter(r["error"] for r in results if r["error"])
    kernel_ms = [k * 1e3 for k in clock.kernels]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": n_ops,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "errors": dict(errors),
        "setup_s": setups,
        "measured_wall_s": wall,
        "raw_op_s": sum(r["raw_s"] for r in results),
        "normalised_op_s": sum(r["norm_s"] for r in results),
        "kernel_ms": {"nominal": NOMINAL_S * 1e3, "median": statistics.median(kernel_ms),
                      "min": min(kernel_ms), "max": max(kernel_ms), "runs": len(kernel_ms)},
        "kernel_speed": NOMINAL_S * 1e3 / statistics.median(kernel_ms),
        "per_call_ms": per_call_table(cases, slope_source),
        "slopes": slopes,
        "probe": probe,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print_report(report, units)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


def print_report(report, units) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    print(f"  {report['passes']} passes x {report['ops_per_pass']} ops, "
          f"{report['failed']}/{report['attempted']} failed (failed_share {report['failed_share']:.4f})")
    for err, n in report["errors"].items():
        print(f"    {n} x {err}")
    print(f"  raw op time {report['raw_op_s']:.3f} s, normalised {report['normalised_op_s']:.3f} s, "
          f"kernel speed {report['kernel_speed']:.3f} x nominal "
          f"(kernel {report['kernel_ms']['min']:.3f}..{report['kernel_ms']['max']:.3f} ms)")
    print("  per call (normalised ms):")
    for name, st in report["per_call_ms"].items():
        print(f"    {name}_ms.p50 {st['p50']:.4f}  {name}_ms.p90 {st['p90']:.4f}  (n={st['n']})")
    print("  log-log slope against |V| + |E|*t^2:")
    for key, st in report["slopes"].items():
        print(f"    {key} {st['exponent']:.3f}  sizes {st['sizes'][0]}..{st['sizes'][1]}  "
              f"ms {st['ms'][0]:.3f}..{st['ms'][1]:.3f}  ({st['cases']} cases)")
    if report["probe"]:
        p = report["probe"]
        print(f"  probe {p['family']} size {p['size']}: {p['outcome']} after {p['ms']:.1f} ms")
    print("  metrics:")
    for k, v in report["metrics"].items():
        print(f"    {k} {v:.6g} {units[k]}")


if __name__ == "__main__":
    sys.exit(main())
