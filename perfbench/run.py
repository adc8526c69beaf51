#!/usr/bin/env python3
"""Builds the location-service benchmark and runs one workload.

    python3 perfbench/run.py --workload update_path --seed 1 --seconds 10 --trace 0

Builds ../src plus the driver in perfbench/src into .bench_build/perfbench
(build output on standard error), then runs the driver from the checkout
root. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: every end_to_end metric of
BENCHMARK.json with --trace 0, every per_layer metric with --trace 1 (0
where the workload does not reach the layer). BENCHMARK.json is the only
list of metric names and units.
Exits non-zero without a result line when the build or the run breaks, and
with the driver's code (1) when an answer was wrong.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("update_path", "query_path", "city_rush")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(TRACES, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--trace-dir", TRACES]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = {k: (float(v["value"]), v["unit"]) for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        sys.stderr.write(run.stdout)
        print(f"perfbench: no result line (exit {run.returncode})", file=sys.stderr)
        return 4
    want = expected_metrics(a.trace)
    wrong_unit = sorted(k for k, (_, unit) in got.items() if k in want and unit != want[k])
    # Every end-to-end metric must be measured; a per-layer metric the
    # workload never reaches reads 0.
    missing = [] if a.trace else sorted(set(want) - set(got))
    if wrong_unit or missing:
        sys.stderr.write(run.stdout)
        print(f"perfbench: metrics disagree with BENCHMARK.json: units of {wrong_unit}, "
              f"missing {missing}", file=sys.stderr)
        return 5
    extra = sorted(set(got) - set(want))
    if extra:
        print(f"perfbench: not in BENCHMARK.json, left out: {extra}", file=sys.stderr)
    result["metrics"] = {k: {"value": got[k][0] if k in got else 0.0, "unit": unit}
                         for k, unit in want.items()}
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
