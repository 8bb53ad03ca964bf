#!/usr/bin/env python3
"""Median and quartiles of each metric across result files of run.py.

Usage, from the repository root:

  python3 perfbench/summarize.py .bench_build/perfbench/results/scan_churn_seed*_trace0.json

Prints one row per (workload, metric): the number of runs, the median, the
first and third quartile, and the quartile spread as a share of the median
next to the metric's bound in BENCHMARK.json. Use it for the baseline in
NOTES.md and to compare two commits over the same held-out seeds.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def main(paths):
    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        spec = json.load(open("BENCHMARK.json"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    failed = {}
    for path in paths:
        doc = json.load(open(path))
        workload = doc["meta"]["workload"]
        result = doc["result"]
        failed[workload] = failed.get(workload, 0) + result["failed"]
        for name, metric in result["metrics"].items():
            runs.setdefault((workload, name), []).append(metric["value"])
    print("%-12s %-32s %4s %14s %14s %14s %8s %6s"
          % ("workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"))
    for (workload, name), values in sorted(runs.items()):
        q1, q2, q3 = stats.quartiles(values)
        spread = stats.iqr_share(values)
        print("%-12s %-32s %4d %14.6g %14.6g %14.6g %8s %6s"
              % (workload, name, len(values), q2, q1, q3,
                 "-" if spread is None else "%.4f" % spread, bounds.get(name, "")))
    for workload, n in sorted(failed.items()):
        print("%s: %d failed ops over all runs" % (workload, n))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
