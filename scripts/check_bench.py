#!/usr/bin/env python3
"""Bench-regression gate: compare BENCH_*.json against committed baselines.

Usage:
    scripts/check_bench.py --build-dir build [--baseline-dir bench/baselines]
                           [--summary-file "$GITHUB_STEP_SUMMARY"]

Each baseline file under --baseline-dir describes one bench output:

    {
      "bench_file": "BENCH_batched.json",
      "checks": [
        {"metric": "leaf_datagram_ratio", "kind": "min_ratio",
         "baseline": 5.677, "tolerance": 0.15},
        {"metric": "batched_updates_per_sec", "kind": "min", "floor": 200000},
        {"metric": "updates_applied_equivalent", "kind": "equals",
         "expected": true}
      ]
    }

Check kinds:
  min_ratio -- fail if value < baseline * (1 - tolerance). Used for
               DETERMINISTIC metrics (message counts, datagram ratios,
               batching factors): any >15% regression is a real code change,
               not runner noise, so the default tolerance is 0.15.
  min       -- fail if value < floor. Used for wall-clock throughput, whose
               absolute value varies across runners; the floor is set
               conservatively low so it only catches order-of-magnitude
               collapses (a 1-core container and a 4-core CI runner must
               both pass the same committed baseline).
  max       -- fail if value > ceiling (lower-is-better metrics, e.g.
               allocations per message on the zero-alloc hot path).
  equals    -- fail if value != expected (booleans / exact counts).

Every check runs on every host. Exit status: 0 when every check passes,
1 otherwise. A delta
summary is always printed to stdout (the CI job log) and, when
--summary-file is given, appended there as a markdown table
($GITHUB_STEP_SUMMARY).
"""

import argparse
import json
import os
import sys


def lookup(doc, dotted_path):
    """Resolves 'a.b.c' inside nested dicts."""
    node = doc
    for part in dotted_path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def run_check(check, doc):
    """Returns (passed, detail_string, value)."""
    metric = check["metric"]
    value = lookup(doc, metric)
    if value is None:
        return False, "metric missing from bench output", None
    kind = check["kind"]
    if kind == "min_ratio":
        base = check["baseline"]
        tol = check.get("tolerance", 0.15)
        bar = base * (1.0 - tol)
        delta = (value - base) / base if base else 0.0
        detail = f"{value:g} vs baseline {base:g} ({delta:+.1%}, bar {bar:g})"
        return value >= bar, detail, value
    if kind == "min":
        floor = check["floor"]
        detail = f"{value:g} vs floor {floor:g}"
        return value >= floor, detail, value
    if kind == "max":
        ceiling = check["ceiling"]
        detail = f"{value:g} vs ceiling {ceiling:g}"
        return value <= ceiling, detail, value
    if kind == "equals":
        expected = check["expected"]
        detail = f"{value!r} vs expected {expected!r}"
        return value == expected, detail, value
    return False, f"unknown check kind {kind!r}", value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="directory holding the BENCH_*.json outputs")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory holding the committed baseline specs")
    parser.add_argument("--summary-file", default=os.environ.get(
        "GITHUB_STEP_SUMMARY", ""),
        help="markdown summary sink (defaults to $GITHUB_STEP_SUMMARY)")
    args = parser.parse_args()

    specs = sorted(
        f for f in os.listdir(args.baseline_dir) if f.endswith(".json"))
    if not specs:
        print(f"error: no baseline specs in {args.baseline_dir}")
        return 1

    rows = []
    failures = 0
    for spec_name in specs:
        with open(os.path.join(args.baseline_dir, spec_name)) as f:
            spec = json.load(f)
        bench_path = os.path.join(args.build_dir, spec["bench_file"])
        if not os.path.exists(bench_path):
            print(f"FAIL {spec['bench_file']}: output missing "
                  f"(did the bench step run?)")
            rows.append((spec["bench_file"], "-", "output missing", "FAIL"))
            failures += 1
            continue
        with open(bench_path) as f:
            doc = json.load(f)
        for check in spec["checks"]:
            passed, detail, _ = run_check(check, doc)
            status = "ok" if passed else "FAIL"
            print(f"{status:4} {spec['bench_file']}: {check['metric']}: {detail}")
            rows.append((spec["bench_file"], check["metric"], detail, status))
            if not passed:
                failures += 1

    print(f"\nbench gate: {len(rows) - failures}/{len(rows)} checks passed"
          + (f", {failures} FAILED" if failures else ""))

    if args.summary_file:
        with open(args.summary_file, "a") as f:
            f.write("## Bench regression gate\n\n")
            f.write("| bench | metric | delta | status |\n")
            f.write("|---|---|---|---|\n")
            for bench, metric, detail, status in rows:
                icon = "✅" if status == "ok" else "❌"
                f.write(f"| {bench} | {metric} | {detail} | {icon} |\n")
            f.write("\n")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
