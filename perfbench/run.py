#!/usr/bin/env python3
"""AutoMDT benchmark: one command for every workload.

    python3 perfbench/run.py --workload bulk_tcp --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/workloads.cpp together with the AutoMDT libraries from src/ into
.bench_build/; later runs only re-check the build.

--trace 0 prints every end-to-end metric; the untraced pass of a workload
is split into PROCESSES processes whose figures are pooled.
--trace 1 runs the workload twice with the same seed, untraced (as for
--trace 0) and then traced in one process, and prints every per-layer
metric, including the tracing overhead between the two; it also writes the
Chrome trace to .bench_build/traces/. The last stdout line is always one JSON
object with the keys correct, attempted, failed and metrics. A failed
correctness check prints that line with "correct": false and exits 1; a build
or workload failure exits 1 without a result line.

Each run also appends a detail record (metrics, sample counts, environment,
seed) to .bench_build/results.jsonl, or to --results FILE; compare.py reads
those files.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench_workloads")
# Budget for all workload invocations of one run, after the build.
RUN_BUDGET_S = 170
# Processes an untraced run is split into, each measuring an equal share of
# --seconds. The engine workloads' rate and serve_fanin's peak RSS differ by
# up to 12% from one process to the next, so their figures pool several
# processes. agent_loop would repeat its exploration and training in every
# process, so it runs once.
PROCESSES = {"bulk_tcp": 4, "small_tcp": 4, "serve_fanin": 4}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the binary up to date. False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_workloads",
         "-j", jobs], stdout=sys.stderr, check=False).returncode == 0


def run_workload(args, deadline, trace, seconds, trace_out=None):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_BUDGET_S)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("workload failed with exit code %d" % proc.returncode)
        return None
    return json.loads(lines[-1])


def cpu_info():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    wanted = ("sse4_2", "sha_ni", "avx2", "avx512f", "avx512bw", "avx512vl")
    return model, sorted(f for f in wanted if f in flags)


def source_digest():
    """SHA-256 over the sources the benchmark is built from (the checkout need
    not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    root = os.path.dirname(HERE)
    for top in ("src", os.path.basename(HERE)):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False,
                              cwd=os.path.dirname(HERE))
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(raw):
    model, flags = cpu_info()
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_flags": flags,
        "kernel": platform.release(),
        "build_type": build_type(),
        "commit": git_commit(),
        "source_digest": source_digest(),
    }
    env.update(raw.get("environment", {}))
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: tiny datasets and budgets")
    parser.add_argument("--results", default=os.path.join(BUILD_DIR,
                                                          "results.jsonl"))
    args = parser.parse_args()

    t0 = time.monotonic()
    if not build():
        log("build failed")
        return 1
    build_s = time.monotonic() - t0
    deadline = time.monotonic() + RUN_BUDGET_S

    processes = PROCESSES.get(args.workload, 1)
    raws = []
    for _ in range(processes):
        raw = run_workload(args, deadline, trace=False,
                           seconds=args.seconds / processes)
        if raw is None:
            return 1
        raws.append(raw)
    untraced = benchlib.merge_reports(raws)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "build_s": build_s}
    try:
        if args.trace:
            trace_dir = os.path.join(BUILD_DIR, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_out = os.path.join(
                trace_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))
            traced = run_workload(args, deadline, trace=True,
                                  seconds=args.seconds, trace_out=trace_out)
            if traced is None:
                return 1
            raws.append(traced)
            metrics = benchlib.per_layer(traced, untraced)
            units = {n: u for n, (u, _) in benchlib.PER_LAYER.items()}
            detail["trace_file"] = trace_out
            detail["trace_events"] = traced.get("trace_events")
            detail["trace_dropped"] = traced.get("trace_dropped")
            detail["layer_sample_counts"] = {
                k: len(v) for k, v in traced["layer_samples"].items()}
        else:
            metrics, objects = benchlib.end_to_end(untraced)
            units = {n: u for n, (u, _) in benchlib.END_TO_END.items()}
            detail["objects"] = {k: objects[k] for k in
                                 ("count", "tail_level", "under_sampled")}
            detail["setup_samples"] = len(untraced["setup_s"])
            detail["processes"] = processes
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        log("cannot derive metrics: %r" % (exc,))
        return 1

    correct, attempted, failed, failures = benchlib.ledger(raws)
    result = benchlib.result_line(correct, attempted, failed, metrics, units)

    detail.update({"correct": correct, "attempted": attempted,
                   "failed": failed, "failures": failures,
                   "metrics": metrics, "environment": environment(untraced)})
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a") as f:
        f.write(json.dumps(detail, sort_keys=True) + "\n")

    env = detail["environment"]
    print("workload %s  seed %d  %s run  (%d ops, %d failed)" % (
        args.workload, args.seed, "traced" if args.trace else "untraced",
        attempted, failed))
    print("environment: " + json.dumps(env, sort_keys=True))
    if not args.trace:
        obj = detail["objects"]
        print("objects: %d, tail = p%g%s" % (
            obj["count"], obj["tail_level"],
            " (under-sampled)" if obj["under_sampled"] else ""))
    for name in sorted(metrics):
        print("  %-36s %14.6g %s" % (name, metrics[name], units[name]))
    for name, n in sorted(failures.items()):
        print("  FAILED CHECK %s x%d" % (name, n))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
