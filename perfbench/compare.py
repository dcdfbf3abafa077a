#!/usr/bin/env python3
"""Compare two benchmark result files, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

A result file is what run.py appends to (.bench_build/results.jsonl by
default): one JSON record per run. Only untraced, full-size records are
compared. For every workload present in both files and every end-to-end
metric named in BENCHMARK.json, the verdict is one of:

  improved    the new median is better by more than the base runs' spread
              and the new run wins at least 9 in 10 index-paired runs (or,
              when the spread exceeds the bound, every new run beats every
              base run)
  unchanged   the medians differ by no more than the metric's bound
  worse       the new median is worse than the base by more than the bound
  unresolved  the base runs spread wider than the bound, so no claim holds

Exits 1 when any pairing is worse, 0 otherwise. Standard library only.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402


def load_runs(path):
    """{workload: {metric: [values in file order]}} from a results file."""
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace") or rec.get("tiny"):
                continue
            per_metric = runs.setdefault(rec["workload"], {})
            for name, value in rec["metrics"].items():
                per_metric.setdefault(name, []).append(value)
    return runs


def compare(base, new, metrics):
    """Rows of (workload, metric, verdict, change, spread, n_base, n_new)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            b = base[workload].get(m["name"])
            n = new[workload].get(m["name"])
            if not b or not n:
                continue
            verdict, rel, sp = benchlib.classify(b, n, m["better"], m["bound"])
            rows.append((workload, m["name"], verdict, rel, sp, len(b),
                         len(n)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=benchlib.BENCHMARK_JSON)
    args = parser.parse_args(argv)
    metrics = benchlib.load_benchmark(args.benchmark)["end_to_end"]
    rows = compare(load_runs(args.base), load_runs(args.new), metrics)
    if not rows:
        print("no workload has untraced runs in both files")
        return 1
    print("%-12s %-20s %-10s %9s %8s %s" % (
        "workload", "metric", "verdict", "change", "spread", "runs"))
    for workload, name, verdict, rel, sp, nb, nn in rows:
        # change: positive = worse, as a share of the base median
        print("%-12s %-20s %-10s %+8.1f%% %7.1f%% %d/%d" % (
            workload, name, verdict, 100 * rel, 100 * sp, nb, nn))
    return 1 if any(r[2] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
