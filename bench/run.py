#!/usr/bin/env python3
"""Benchmark of the ulrich toolkit.

Run from the root of a checkout:

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all                  # every workload
    python3 bench/run.py --workload verdict --save a.jsonl
    python3 bench/run.py --compare a.jsonl b.jsonl
    python3 bench/run.py --record                        # rewrite expected.json

One process with one closed-loop client: each operation starts when the
previous one has returned.  The package is imported from ``src/`` of the
checkout and driven through its public functions and ``cli.main``.  The last
line of standard output is a JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import stats
from tracing import Tracer, span_figures, write_spans
from workloads import (ORACLE_TYPES, WORKLOADS, Classify, Sweep, Verdict,
                       classify_inputs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
MIN_PASSES = 3        # untraced passes in a --trace 0 run
MIN_PAIRS = 2         # untraced/traced pass pairs in a --trace 1 run
LAST_START_S = 120    # no pass starts later than this into the timed phase
SETUP_STARTS = 11     # timed interpreter starts for setup_s, after one warm-up
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import ulrich.cli; ulrich.cli.build_parser()")

# Answer fields a later version may change on purpose: differences from the
# recorded values are printed with their sign, not counted as failures.
DRIFTING = ("nodes", "checkpoint_bytes")

TRACING_NOTE = ("tracing_overhead_s is the median traced pass wall time minus "
                "the median untraced pass wall time; traced and untraced passes "
                "alternate within one run on the same inputs")


def load_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_package():
    """Import ``ulrich`` from ``src/`` of this checkout, or exit with an error."""
    init = SRC / "ulrich" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ulrich
    import ulrich.cli  # noqa: F401  (not imported by the package itself)
    if Path(ulrich.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported ulrich from {ulrich.__file__}, not {init}")
    return ulrich


def machine_block() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing ulrich and building the parser."""
    cmd = [sys.executable, "-I", "-S", "-c", SETUP_CODE, str(SRC)]
    times = []
    for k in range(SETUP_STARTS + 1):
        t = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(perf_counter() - t)
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_passes(pkg, workload, seconds: float, trace: bool):
    """Repeat passes for ``seconds``; with tracing, alternate plain and traced."""
    tracer = Tracer() if trace else None
    plain, traced, spans = [], [], []
    start = perf_counter()
    while True:
        gc.collect()
        if trace and len(plain) > len(traced):
            tracer.install(pkg)
            try:
                result = workload.run_pass(pkg, tracer)
            finally:
                tracer.uninstall()
            spans.append(tracer.take())
            traced.append(result)
        else:
            result = workload.run_pass(pkg, None)
            plain.append(result)
        elapsed = perf_counter() - start
        if trace:
            enough = len(traced) >= MIN_PAIRS and len(traced) == len(plain)
        else:
            enough = len(plain) >= MIN_PASSES
        if enough and elapsed >= seconds:
            break
        if elapsed + result.wall > LAST_START_S and (traced or not trace):
            break
    return plain, traced, spans, tracer


def median_figures(results) -> dict[str, float]:
    keys = {k for r in results for k in r.figures}
    return {k: stats.median([r.figures.get(k, 0.0) for r in results]) for k in keys}


def per_layer_metrics(names, plain, traced, spans) -> dict[str, float]:
    """Per-layer figures: 0 for a function or figure the workload never reaches."""
    metrics = dict.fromkeys(names, 0.0)
    metrics.update(median_figures(plain))
    per_pass = [span_figures(s) for s in spans]
    for key in per_pass[0]:
        metrics[key] = stats.median([f[key] for f in per_pass])
    if metrics["search.nodes"]:
        metrics["search.us_per_node"] = (metrics["search.time_branching_search.self_s"]
                                         / metrics["search.nodes"] * 1e6)
    metrics["tracing_overhead_s"] = (stats.median([r.wall for r in traced])
                                     - stats.median([r.wall for r in plain]))
    unknown = set(metrics) - set(names)
    if unknown:
        raise KeyError(f"figures without a per-layer metric: {sorted(unknown)}")
    return metrics


def diff_answer(new: dict, old: dict) -> tuple[list[str], int]:
    """Field-by-field comparison of two answers: (report parts, mismatches)."""
    parts, mismatches = [], 0
    for field in sorted(set(new) & set(old)):
        if new[field] == old[field]:
            parts.append(f"{field} {new[field]}")
        elif field in DRIFTING:
            parts.append(f"{field} {new[field]} (was {old[field]}, "
                         f"{new[field] - old[field]:+d})")
        else:
            mismatches += 1
            parts.append(f"{field} {new[field]} MISMATCH (was {old[field]})")
    return parts, mismatches


def compare_recorded(answers: dict, recorded: dict):
    """(lines, mismatches) of this run's answers against expected.json."""
    lines, mismatches = [], 0
    for key, answer in sorted(answers.items()):
        if key not in recorded:
            lines.append(f"  {key}: {answer} (nothing recorded)")
            continue
        parts, bad = diff_answer(answer, recorded[key])
        mismatches += bad
        lines.append(f"  {key}: " + ", ".join(parts))
    return lines, mismatches


def fmt(value, unit) -> str:
    return f"{value:.6g} {unit}"


def run_workload(pkg, name: str, seed: int, seconds: float, trace: bool,
                 save: str | None) -> bool:
    e2e_units, layer_units = load_units()
    print(f"== workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    machine = machine_block()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    setup = measure_setup()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, str(OUT))
    for line in workload.describe():
        print(line)
    plain, traced, spans, tracer = run_passes(pkg, workload, seconds, trace)
    results = plain + traced
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    recorded = json.loads(EXPECTED.read_text()).get(name, {}) if EXPECTED.exists() else {}
    lines, mismatches = compare_recorded(plain[0].answers, recorded)
    failed += mismatches
    walls = [r.wall for r in plain]
    q1, q2, q3 = stats.quartiles(walls)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          "one closed-loop client, one process")
    print("end-to-end (untraced passes):")
    e2e = {"wall_s": q2, "setup_s": stats.median(setup), "peak_rss_mb": peak_rss_mb()}
    print(f"  wall_s       {fmt(q2, 's')}  median of {len(walls)} passes, "
          f"quartiles {q1:.4f} .. {q3:.4f}")
    print(f"  setup_s      {fmt(e2e['setup_s'], 's')}  median of {len(setup)} "
          "interpreter starts (import ulrich, cli.build_parser())")
    print(f"  peak_rss_mb  {fmt(e2e['peak_rss_mb'], 'MB')}  max of self and children")
    print(f"  error_rate   {failed / max(attempted, 1):.6g}  "
          f"({failed} failed of {attempted} attempted)")
    if name == "verdict":
        samples = len(plain[0].latencies)
        tail = stats.tail_percentile(samples)
        fig = median_figures(plain)
        print(f"  verdicts_per_s  {fmt(fig['verdict.per_s'], '1/s')}")
        print(f"  verdict_p50_us  {fmt(fig['verdict.p50_us'], 'us')}  "
              f"{samples} samples per pass")
        print(f"  verdict_p99_us  {fmt(fig['verdict.p99_us'], 'us')}  "
              f"highest percentile with >= {stats.MIN_TAIL_SAMPLES} samples "
              f"beyond it: p{tail:g}")
    print("exact answers of the first pass (recorded in bench/expected.json):")
    for line in lines:
        print(line)
    for problem in [p for r in results for p in r.problems][:20]:
        print(f"FAILED: {problem}")
    if trace:
        metrics = per_layer_metrics(layer_units, plain, traced, spans)
        path = OUT / f"spans-{name}-seed{seed}.jsonl"
        write_spans(path, spans)
        print(f"per-layer (traced passes; {TRACING_NOTE}; "
              f"{sum(map(len, spans))} spans written to {path.relative_to(ROOT)}):")
        if tracer.missing:
            print("  not traced, missing from the package: " + ", ".join(tracer.missing))
        for key, unit in layer_units.items():
            print(f"  {key:44s} {fmt(metrics[key], unit)}")
        units = layer_units
    else:
        metrics, units = {k: e2e[k] for k in e2e_units}, e2e_units
    correct = failed == 0
    if save:
        with open(save, "a") as fh:
            fh.write(json.dumps({
                "workload": name, "seed": seed, "seconds": seconds,
                "trace": int(trace), "machine": machine, "correct": correct,
                "attempted": attempted, "failed": failed, "metrics": metrics,
                "answers": plain[0].answers}) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return correct


def record(pkg) -> int:
    """Rewrite expected.json from the current package, gates permitting."""
    OUT.mkdir(exist_ok=True)
    classify = Classify(DEFAULT_SEED, str(OUT))
    classify.types = sorted({t for seed in range(64) for t in classify_inputs(seed)})
    runs = [classify, Sweep(DEFAULT_SEED, str(OUT))]
    for oracle_type in ORACLE_TYPES:
        verdict = Verdict(DEFAULT_SEED, str(OUT))
        verdict.ops, verdict.oracle_type = [], oracle_type
        runs.append(verdict)
    out, ok = {}, True
    for workload in runs:
        result = workload.run_pass(pkg, None)
        for problem in result.problems:
            print(f"FAILED: {problem}")
        ok = ok and not result.failed
        out.setdefault(workload.name, {}).update(result.answers)
    if not ok:
        print("not recorded: the gate failed")
        return 1
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


def load_results(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                by_workload.setdefault(row["workload"], []).append(row)
    return by_workload


def compare(path_a: str, path_b: str) -> int:
    """Print answer differences and metric deltas between two saved result sets."""
    a, b = load_results(path_a), load_results(path_b)
    errors = 0
    for name in sorted(set(a) & set(b)):
        print(f"== {name}: {len(a[name])} runs in A, {len(b[name])} runs in B")
        answers = [{}, {}]
        for side, rows in zip(answers, (a[name], b[name])):
            for row in rows:
                for key, answer in row["answers"].items():
                    side.setdefault(key, answer)
        for key in sorted(set(answers[0]) & set(answers[1])):
            parts, bad = diff_answer(answers[1][key], answers[0][key])
            errors += bad
            print(f"  {key}: " + ", ".join(parts))
        for metric in sorted({m for r in a[name] for m in r["metrics"]}
                             & {m for r in b[name] for m in r["metrics"]}):
            qa = stats.quartiles([r["metrics"][metric] for r in a[name]
                                  if metric in r["metrics"]])
            qb = stats.quartiles([r["metrics"][metric] for r in b[name]
                                  if metric in r["metrics"]])
            rel = f"{(qb[1] - qa[1]) / qa[1]:+.2%}" if qa[1] else "n/a"
            print(f"  {metric:44s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {rel}")
    print("answers differ" if errors else "answers agree")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase (at least the minimum passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="PATH",
                        help="append this run's metrics and answers as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two files written by --save")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current package")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    pkg = load_package()
    if args.record:
        return record(pkg)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = run_workload(pkg, name, args.seed, args.seconds, bool(args.trace),
                          args.save) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
