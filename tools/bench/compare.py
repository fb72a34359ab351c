#!/usr/bin/env python3
"""Compare a bench_scaling JSON result against a committed baseline.

Usage:
    compare.py CURRENT.json BASELINE.json [--max-regress X]
    compare.py --bench BENCH_EXE BASELINE.json [--max-regress X]

With --bench, runs `BENCH_EXE --smoke --json <tmp>` first and compares that
output.  The `bench-smoke` ctests use the first form on the one smoke run
that `bench_smoke_run` writes.

Checks (exit 1 on any violation):
  * schema must be gather-bench-scaling-v1 on both sides;
  * GATHER_PROF call counters are exact algorithmic invariants of the fixed
    grid: any counter that increases relative to the baseline -- or any new
    counter site -- fails (more calls means the pipeline lost a cache hit or
    grew a redundant pass);
  * per-phase fast-path wall times may not regress by more than --max-regress
    (default 3.0: generous, because the smoke sizes are sub-millisecond and
    shared-machine timing noise is real; the counters are the tight gate).

Only grid points present on both sides are compared, so a smoke run (n = 32,
64) checks against the committed full baseline.
"""

import argparse
import json
import subprocess
import sys
import tempfile

SCHEMA = "gather-bench-scaling-v1"


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"compare.py: {path}: schema {doc.get('schema')!r}, "
                 f"expected {SCHEMA!r}")
    return doc


def compare(current, baseline, max_regress):
    failures = []

    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for site, calls in sorted(cur_counters.items()):
        if site not in base_counters:
            failures.append(f"new counter site prof.{site}.calls = {calls} "
                            "(not in baseline)")
        elif calls > base_counters[site]:
            failures.append(f"prof.{site}.calls increased: "
                            f"{base_counters[site]} -> {calls}")
    for site in sorted(set(base_counters) - set(cur_counters)):
        print(f"note: counter prof.{site}.calls absent from current run")

    base_phases = baseline.get("phases", {})
    for name, phase in sorted(current.get("phases", {}).items()):
        base_points = {p["n"]: p for p in base_phases.get(name, {}).get(
            "points", [])}
        for point in phase.get("points", []):
            base = base_points.get(point["n"])
            if base is None or base["fast_ns"] == 0 or point["fast_ns"] == 0:
                continue
            ratio = point["fast_ns"] / base["fast_ns"]
            status = "ok" if ratio <= max_regress else "FAIL"
            print(f"{name:>10} n={point['n']:<4} fast "
                  f"{point['fast_ns'] / 1e3:10.1f} us  baseline "
                  f"{base['fast_ns'] / 1e3:10.1f} us  x{ratio:.2f}  {status}")
            if ratio > max_regress:
                failures.append(f"phase {name} n={point['n']}: fast path "
                                f"{ratio:.2f}x baseline "
                                f"(limit {max_regress:.2f}x)")
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("inputs", nargs="+", metavar="JSON",
                    help="CURRENT.json BASELINE.json, or just BASELINE.json "
                         "with --bench")
    ap.add_argument("--bench", metavar="EXE",
                    help="run EXE --smoke --json <tmp> as the current side")
    ap.add_argument("--max-regress", type=float, default=3.0)
    args = ap.parse_args()

    if args.bench:
        if len(args.inputs) != 1:
            ap.error("--bench takes exactly one JSON argument (the baseline)")
        with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
            subprocess.run([args.bench, "--smoke", "--json", tmp.name],
                           check=True, stdout=subprocess.DEVNULL)
            current = load(tmp.name)
        baseline = load(args.inputs[0])
    else:
        if len(args.inputs) != 2:
            ap.error("expected CURRENT.json BASELINE.json")
        current = load(args.inputs[0])
        baseline = load(args.inputs[1])

    failures = compare(current, baseline, args.max_regress)
    for failure in failures:
        print(f"compare.py: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("compare.py: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
