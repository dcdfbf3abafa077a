"""Metric definitions and arithmetic shared by run.py, compare.py and the
self-tests. Standard library only.

The workloads binary (workloads.cpp) reports raw figures: bytes, chunks, wall and CPU
seconds, latency samples and per-layer counters. Everything derived from them
-- rates, CPU per GiB, percentiles, ratios -- is computed here, so the
arithmetic lives in one tested place.
"""

import json
import math
import os
import statistics

MIB = 1024.0 * 1024.0
GIB = 1024.0 * MIB

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


def load_benchmark(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


# Workload and metric catalog: names, units and direction, from BENCHMARK.json.
_BENCHMARK = load_benchmark()
WORKLOADS = tuple(w["name"] for w in _BENCHMARK["workloads"])
END_TO_END = {m["name"]: (m["unit"], m["better"])
              for m in _BENCHMARK["end_to_end"]}  # every workload reports all
PER_LAYER = {m["name"]: (m["unit"], m["better"])
             for m in _BENCHMARK["per_layer"]}

# Workloads that exercise a layer metric; one not listed here is exercised by
# every workload. On any other workload the metric reads 0: that layer does
# no work there.
_ENGINE = ("bulk_tcp", "small_tcp", "agent_loop")
_AGENT = ("agent_loop",)
_SERVE = ("serve_fanin",)
LAYER_SCOPE = {
    "common.ring_stalls_per_chunk": _ENGINE,
    "common.ring_parks_per_chunk": _ENGINE,
    "common.pool_hit_frac": _ENGINE,
    "net.chunks_per_write": _ENGINE,
    "net.syscalls_per_chunk": _ENGINE,
    "net.copies_per_chunk": _ENGINE,
    "net.recv_syscalls_per_chunk": _ENGINE,
    "net.recv_copies_per_chunk": _ENGINE,
    "net.tcp_inproc_ratio": ("bulk_tcp", "small_tcp"),
    "transfer.read.busy_frac": _ENGINE,
    "transfer.read.blocked_frac": _ENGINE,
    "transfer.network.busy_frac": _ENGINE,
    "transfer.network.blocked_frac": _ENGINE,
    "transfer.write.busy_frac": _ENGINE,
    "transfer.write.blocked_frac": _ENGINE,
    "transfer.busy_cpu_ratio": _ENGINE,
    "transfer.read_service_us.p50": _ENGINE,
    "transfer.read_service_us.p99": _ENGINE,
    "transfer.net_service_us.p50": _ENGINE,
    "transfer.net_service_us.p99": _ENGINE,
    "transfer.write_service_us.p50": _ENGINE,
    "transfer.write_service_us.p99": _ENGINE,
    "transfer.sender_wait_us.p50": _ENGINE,
    "transfer.sender_wait_us.p99": _ENGINE,
    "transfer.recv_wait_us.p50": _ENGINE,
    "transfer.recv_wait_us.p99": _ENGINE,
    "transfer.stats_ms.p50": _ENGINE,
    "transfer.stats_ms.p99": _ENGINE,
    "transfer.step_overrun_ms.p50": _AGENT,
    "transfer.step_overrun_ms.p90": _AGENT,
    "probe.explore_s": _AGENT,
    "probe.rate_error.read": _AGENT,
    "probe.rate_error.network": _AGENT,
    "probe.rate_error.write": _AGENT,
    "sim.steps_per_s": _AGENT,
    "rl.train_s": _AGENT,
    "optimizers.decide_us.p50": _AGENT,
    "optimizers.decide_us.p99": _AGENT,
    "serve.open_ms.p50": _SERVE,
    "serve.open_ms.p99": _SERVE,
    "serve.close_ms.p50": _SERVE,
    "serve.close_ms.p99": _SERVE,
    "serve.tenant_share_min": _SERVE,
    "serve.tenant_share_max": _SERVE,
    "serve.worker_busy_frac": _SERVE,
    "serve.admission_defers": _SERVE,
    "serve.admission_rejects": _SERVE,
    "serve.registry_metrics": _SERVE,
    "serve.stats_query_ok": _SERVE,
}


def layer_workloads(name):
    return LAYER_SCOPE.get(name, WORKLOADS)


# Percentile levels a tail timing may be reported at, lowest first.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_level(n):
    """The highest level in TAIL_LEVELS that leaves at least ten samples
    beyond it among n samples. Below 20 samples no level qualifies and the
    median (50) is returned; callers flag such a run as under-sampled."""
    best = TAIL_LEVELS[0]
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10.0 - 1e-9:
            best = level
    return best


def timing_summary(samples):
    """Median and tail of a timing sample, with the level and the count."""
    n = len(samples)
    level = tail_level(n)
    return {
        "p50": percentile(samples, 50),
        "tail": percentile(samples, level),
        "tail_level": level,
        "count": n,
        "under_sampled": n < 20,
    }


def rate_mib_s(nbytes, seconds):
    return nbytes / MIB / seconds


def cpu_s_per_gib(cpu_s, nbytes):
    return cpu_s / (nbytes / GIB)


def cpu_us_per_chunk(cpu_s, chunks):
    return cpu_s * 1e6 / chunks


def merge_reports(raws):
    """One workloads report from several processes of the same workload and
    seed: totals are summed, samples pooled, the stage-thread mean weighted
    by wall time, and peak RSS taken as the median of the processes' peaks.
    Ledger fields are left to ledger(), which reads every process."""
    if len(raws) == 1:
        return raws[0]
    merged = dict(raws[0])
    for key in ("bytes", "chunks", "wall_s", "cpu_s"):
        merged[key] = sum(r[key] for r in raws)
    for key in ("threads", "setup_s", "object_ms"):
        merged[key] = [x for r in raws for x in r[key]]
    merged["rss_mib"] = statistics.median(r["rss_mib"] for r in raws)
    if merged["wall_s"] > 0:
        merged["stage_threads_mean"] = sum(
            r["stage_threads_mean"] * r["wall_s"] for r in raws) / merged[
                "wall_s"]
    return merged


def end_to_end(raw):
    """End-to-end metrics from one untraced workloads report."""
    if raw["wall_s"] <= 0 or raw["bytes"] <= 0 or raw["chunks"] <= 0:
        raise ValueError("no completed data phase reported")
    objects = timing_summary(raw["object_ms"])
    values = {
        "throughput_mib_s": rate_mib_s(raw["bytes"], raw["wall_s"]),
        "chunks_per_s": raw["chunks"] / raw["wall_s"],
        "cpu_s_per_gib": cpu_s_per_gib(raw["cpu_s"], raw["bytes"]),
        "cpu_us_per_chunk": cpu_us_per_chunk(raw["cpu_s"], raw["chunks"]),
        "threads": statistics.median(raw["threads"]),
        "rss_mib": raw["rss_mib"],
        "setup_s": statistics.median(raw["setup_s"]),
        "object_p50_ms": objects["p50"],
        "object_tail_ms": objects["tail"],
        "agent_threads_mean": raw["stage_threads_mean"],
    }
    return values, objects


def per_layer(traced, untraced):
    """Per-layer metrics from a traced workloads report; `untraced` is the
    untraced report of the same workload and seed (tracing overhead, and the
    TCP side of net.tcp_inproc_ratio)."""
    values = {}
    layer = traced.get("layer", {})
    samples = traced.get("layer_samples", {})
    for name in PER_LAYER:
        values[name] = 0.0
        if name in layer:
            values[name] = float(layer[name])
            continue
        base, _, suffix = name.rpartition(".")
        if suffix in ("p50", "p90", "p99") and samples.get(base):
            values[name] = percentile(samples[base], float(suffix[1:]))
    traced_rate = rate_mib_s(traced["bytes"], traced["wall_s"])
    untraced_rate = rate_mib_s(untraced["bytes"], untraced["wall_s"])
    values["telemetry.trace_overhead_frac"] = 1.0 - traced_rate / untraced_rate
    inproc = traced.get("inproc_bytes_per_s", 0.0)
    if inproc > 0:
        values["net.tcp_inproc_ratio"] = untraced_rate * MIB / inproc
    return values


def ledger(raws):
    """(correct, attempted, failed, failures) over the workloads reports of
    one run. Any named failed check makes the run incorrect, even one the
    binary did not count as a failed operation."""
    attempted = sum(int(r["attempted"]) for r in raws)
    failed = sum(int(r["failed"]) for r in raws)
    failures = {}
    for r in raws:
        for name, n in r["failures"].items():
            failures[name] = failures.get(name, 0) + int(n)
    correct = failed == 0 and not failures and attempted > 0
    return correct, attempted, failed, failures


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's final stdout line as a dict."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }


def validate_result(obj, expected_names):
    """Raise ValueError unless `obj` is a well-formed result line that
    carries exactly `expected_names`."""
    if not isinstance(obj, dict):
        raise ValueError("result is not an object")
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(obj))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError("%s is not a whole number" % key)
    if obj["attempted"] < 1 or not 0 <= obj["failed"] <= obj["attempted"]:
        raise ValueError("attempted/failed out of range")
    metrics = obj["metrics"]
    if set(metrics) != set(expected_names):
        raise ValueError("metric names differ: %s" %
                         sorted(set(metrics) ^ set(expected_names)))
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"}:
            raise ValueError("metric %s keys are %s" % (name, sorted(entry)))
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("metric %s is not a number" % name)
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite" % name)
        if not isinstance(entry["unit"], str) or not entry["unit"]:
            raise ValueError("metric %s has no unit" % name)


def spread(values):
    """Interquartile distance as a share of the median (0 for fewer than two
    values or a zero median)."""
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    if med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def classify(base, new, better, bound):
    """Compare two sets of runs of one metric on one workload.

    Returns (verdict, relative change of the medians, base spread), where the
    relative change is positive when `new` is worse. A metric whose base
    spread exceeds its bound is 'unresolved' unless every new run beats every
    base run. 'improved' also needs the medians to differ by more than the
    base spread and `new` to win at least nine tenths of the index-paired
    runs.
    """
    mb = statistics.median(base)
    mn = statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    rel = sign * (mn - mb) / abs(mb) if mb else 0.0
    sp = spread(base)

    def beats(a, b):
        return a < b if better == "lower" else a > b

    all_better = all(beats(n, b) for n in new for b in base)
    if sp > bound:
        return ("improved" if all_better else "unresolved"), rel, sp
    if rel > bound:
        return "worse", rel, sp
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if beats(n, b))
    if pairs and -rel > sp and wins >= 0.9 * len(pairs):
        return "improved", rel, sp
    return "unchanged", rel, sp
