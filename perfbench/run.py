#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload campaign_small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke          # tiny sizes: self-test + metric names

Run from anywhere; everything is built and written under .bench_build/ at the
root of the checkout.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer ones.
Exit status 2 means the benchmark could not run (no source tree, build
failure, harness crash); it then prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run; reported on stderr with exit status 2."""


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise BenchError("no gather source tree next to perfbench/")
    tmp = os.path.join(BUILD, "tmp")  # keep compiler scratch files in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w", encoding="utf-8") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                          "-DPERFBENCH_BUILD_JOBS=" + jobs])
        steps.append(["cmake", "--build", BUILD, "--parallel", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                raise BenchError("build failed, see " + log_path)


def run_harness(args):
    env = dict(os.environ)
    # Sharded view fills (GATHER_GEOM_JOBS > 1) drop config.views counts.
    env.pop("GATHER_GEOM_JOBS", None)
    proc = subprocess.Popen([HARNESS] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("harness timed out")
    if proc.returncode != 0:
        raise BenchError("harness failed (%d): %s" % (proc.returncode, err.strip()))
    return out


def expected_outputs(workload, seed, outputs):
    """The recorded outputs this run must reproduce, or None."""
    table = load_json(os.path.join(HERE, "expected.json"))[workload]
    if "by_rotation" in table:  # check_4x4: every seed maps to one rotation
        return table["by_rotation"].get(outputs.get("rotation"))
    return table["seeds"].get(str(seed))


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def run(workload, seed, seconds, trace, size="full"):
    """Run one workload; print the report and return the result object."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--size", size]
    spans = None
    if trace:
        spans = os.path.join(BUILD, "spans", "%s-seed%d.csv" % (workload, seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        args += ["--spans-out", spans]
    report = json.loads(run_harness(args))

    problems = list(report["problems"])
    attempted = report["attempted"]
    failed = report["failed"]
    expected = expected_outputs(workload, seed, report["outputs"]) if size == "full" else None
    if expected is not None:
        mismatches = ["output %s = %s, expected %s" % (k, report["outputs"].get(k), v)
                      for k, v in sorted(expected.items()) if report["outputs"].get(k) != v]
        if mismatches:
            problems += mismatches
            failed = attempted

    env = report["env"]
    print("# perfbench %s seed=%d trace=%d size=%s simd=%s nproc=%d jobs=%d geom_jobs=%d "
          "GATHER_GEOM_JOBS=unset units=%d measured_s=%.1f"
          % (workload, seed, report["trace"], size, env["simd"], env["nproc"], env["jobs"],
             env["geom_jobs"], report["units"], report["measured_s"]))
    print("# outputs %s (%s)" % (
        " ".join("%s=%s" % kv for kv in sorted(report["outputs"].items())),
        "checked against perfbench/expected.json" if expected is not None
        else "no recorded expectation for this seed; checked for repeatability"))
    for m in report["metrics"]:
        note = ("  " + m["note"]) if m["note"] else ""
        print("%-22s %-14s %-9s samples=%d%s"
              % (m["name"], fmt(m["value"]), m["unit"], m["samples"], note))
    print("%-22s %-14s %-9s attempted=%d failed=%d"
          % ("fail_frac", fmt(failed / attempted if attempted else 1.0), "ratio",
             attempted, failed))
    for p in problems:
        print("# problem: " + p)

    if trace:
        print("# per-layer metrics (traced units; per-unit means, counts exact)")
        for m in report["layers"]:
            print("%-30s %-14s %-6s samples=%d" % (m["name"], fmt(m["value"]), m["unit"],
                                                   m["samples"]))
        layers = {m["name"]: m["value"] for m in report["layers"]}
        selfs = sorted(((v, n[len("layer."):-len(".self_ms")]) for n, v in layers.items()
                        if n.startswith("layer.") and n.endswith(".self_ms")), reverse=True)
        total = sum(v for v, _ in selfs) or 1.0
        print("# self time by layer: " + ", ".join(
            "%s %.1f%%" % (name, 100.0 * v / total) for v, name in selfs if v > 0))
        print("# first-ranked layer: %s; tracing overhead %+.4g s per unit "
              "(traced %.4g s - untraced %.4g s)"
              % (report["top_layer"], layers["trace.overhead_s"], layers["trace.wall_s"],
                 layers["trace.untraced_wall_s"]))
        print("# spans: " + os.path.relpath(spans, ROOT))

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    by_name = {m["name"]: m for m in (report["layers"] if trace else report["metrics"])}
    metrics = {}
    for spec in wanted:
        m = by_name.get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            raise BenchError("metric %s missing or in the wrong unit" % spec["name"])
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def smoke():
    """Tiny sizes: the harness self-test, then every workload in both modes
    must be correct and print exactly BENCHMARK.json's metrics, non-zero,
    with their units."""
    print(run_harness(["--self-test"]).strip())
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ok = True
    for w in bench["workloads"]:
        for trace in (False, True):
            result = run(w["name"], 1, 1, trace, size="tiny")
            wanted = {m["name"]: m["unit"] for m in
                      (bench["per_layer"] if trace else bench["end_to_end"])}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (result["correct"] and got == wanted and
                    all(v["value"] != 0 for v in result["metrics"].values()))
            print("smoke %s trace=%d: %s" % (w["name"], trace, "ok" if good else "FAILED"))
            ok = ok and good
    print("smoke: " + ("ok" if ok else "FAILED"))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    try:
        build()
        if a.smoke:
            return 0 if smoke() else 1
        if not a.workload:
            p.error("--workload is required")
        result = run(a.workload, a.seed, a.seconds, a.trace == 1)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
