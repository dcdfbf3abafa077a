#!/usr/bin/env python3
"""Self-tests for the benchmark's own helpers.

    python3 perfbench/selftest.py          # helpers, schema, compare tool
    python3 perfbench/selftest.py --smoke  # plus a tiny run of every workload

Run from the repository root. The smoke pass builds the benchmark on first use
and runs each workload at tiny size, untraced and traced, checking that the
result line is well formed and every correctness check passed.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import compare  # noqa: E402

ROOT = os.path.dirname(HERE)


def raw_report(**overrides):
    raw = {
        "bytes": 8 * benchlib.GIB, "chunks": 32768.0, "wall_s": 4.0,
        "cpu_s": 16.0, "threads": [14, 15, 14], "rss_mib": 30.5,
        "stage_threads_mean": 6.0, "setup_s": [0.3, 0.1, 0.2],
        "object_ms": [float(i) for i in range(1, 101)],
        "layer": {}, "layer_samples": {},
    }
    raw.update(overrides)
    return raw


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_tail_level_leaves_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_level(5), 50.0)
        self.assertEqual(benchlib.tail_level(39), 50.0)
        self.assertEqual(benchlib.tail_level(40), 75.0)
        self.assertEqual(benchlib.tail_level(99), 75.0)
        self.assertEqual(benchlib.tail_level(100), 90.0)
        self.assertEqual(benchlib.tail_level(200), 95.0)
        self.assertEqual(benchlib.tail_level(999), 95.0)
        self.assertEqual(benchlib.tail_level(1000), 99.0)
        self.assertEqual(benchlib.tail_level(10000), 99.9)
        for n in range(20, 3000, 7):
            level = benchlib.tail_level(n)
            self.assertGreaterEqual(n * (1 - level / 100.0), 10 - 1e-9)

    def test_summary_carries_count_and_level(self):
        s = benchlib.timing_summary([float(i) for i in range(1, 1001)])
        self.assertEqual(s["count"], 1000)
        self.assertEqual(s["tail_level"], 99.0)
        self.assertEqual(s["tail"], 990.0)
        self.assertEqual(s["p50"], 500.0)
        self.assertFalse(s["under_sampled"])
        self.assertTrue(benchlib.timing_summary([1.0, 2.0])["under_sampled"])


class Arithmetic(unittest.TestCase):
    def test_rates(self):
        self.assertAlmostEqual(benchlib.rate_mib_s(512 * benchlib.MIB, 2.0),
                               256.0)
        self.assertAlmostEqual(benchlib.cpu_s_per_gib(3.0, 2 * benchlib.GIB),
                               1.5)
        self.assertAlmostEqual(benchlib.cpu_us_per_chunk(2.0, 1e6), 2.0)

    def test_end_to_end(self):
        values, objects = benchlib.end_to_end(raw_report())
        self.assertEqual(set(values), set(benchlib.END_TO_END))
        self.assertAlmostEqual(values["throughput_mib_s"], 2048.0)
        self.assertAlmostEqual(values["chunks_per_s"], 8192.0)
        self.assertAlmostEqual(values["cpu_s_per_gib"], 2.0)
        self.assertAlmostEqual(values["cpu_us_per_chunk"], 16e6 / 32768)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertEqual(values["threads"], 14)
        self.assertAlmostEqual(values["object_p50_ms"], 50.0)
        self.assertEqual(objects["tail_level"], 90.0)
        self.assertAlmostEqual(values["object_tail_ms"], 90.0)
        with self.assertRaises(ValueError):
            benchlib.end_to_end(raw_report(wall_s=0.0))

    def test_per_layer_fills_every_metric(self):
        traced = raw_report(
            wall_s=5.0, layer={"net.chunks_per_write": 12.5},
            layer_samples={"transfer.stats_ms": [1.0, 2.0, 3.0, 40.0]})
        values = benchlib.per_layer(traced, raw_report())
        self.assertEqual(set(values), set(benchlib.PER_LAYER))
        self.assertEqual(values["net.chunks_per_write"], 12.5)
        self.assertEqual(values["transfer.stats_ms.p50"], 2.0)
        self.assertEqual(values["transfer.stats_ms.p99"], 40.0)
        self.assertEqual(values["serve.open_ms.p50"], 0.0)
        self.assertAlmostEqual(values["telemetry.trace_overhead_frac"], 0.2)
        self.assertEqual(values["net.tcp_inproc_ratio"], 0.0)

    def test_tcp_inproc_ratio_uses_untraced_rate(self):
        # Traced TCP ran at 1638.4 MiB/s, untraced at 2048 MiB/s; the
        # in-process rate is 4096 MiB/s, so the ratio is 2048 / 4096.
        traced = raw_report(wall_s=5.0,
                            inproc_bytes_per_s=4096.0 * benchlib.MIB)
        values = benchlib.per_layer(traced, raw_report())
        self.assertAlmostEqual(values["net.tcp_inproc_ratio"], 0.5)

    def test_merge_reports(self):
        a = raw_report(rss_mib=20.0)
        b = raw_report(bytes=4 * benchlib.GIB, wall_s=2.0, cpu_s=4.0,
                       rss_mib=30.0, stage_threads_mean=3.0,
                       threads=[9], setup_s=[0.4])
        c = raw_report(rss_mib=25.0)
        merged = benchlib.merge_reports([a, b, c])
        self.assertEqual(merged["bytes"], 20 * benchlib.GIB)
        self.assertEqual(merged["wall_s"], 10.0)
        self.assertEqual(merged["cpu_s"], 36.0)
        self.assertEqual(merged["rss_mib"], 25.0)
        self.assertEqual(len(merged["object_ms"]), 300)
        self.assertEqual(merged["threads"], [14, 15, 14, 9, 14, 15, 14])
        self.assertAlmostEqual(merged["stage_threads_mean"],
                               (6 * 4 + 3 * 2 + 6 * 4) / 10.0)
        self.assertIs(benchlib.merge_reports([a]), a)

    def test_spread(self):
        self.assertEqual(benchlib.spread([5.0]), 0.0)
        self.assertAlmostEqual(benchlib.spread([1.0, 2.0, 3.0, 4.0, 5.0]),
                               (4.5 - 1.5) / 3.0)


class Schema(unittest.TestCase):
    def setUp(self):
        self.units = {n: u for n, (u, _) in benchlib.END_TO_END.items()}
        values, _ = benchlib.end_to_end(raw_report())
        self.line = benchlib.result_line(True, 10, 0, values, self.units)

    def test_valid_line(self):
        text = json.dumps(self.line)
        benchlib.validate_result(json.loads(text), benchlib.END_TO_END)

    def test_rejects_malformed(self):
        bad = json.loads(json.dumps(self.line))
        del bad["metrics"]["setup_s"]
        with self.assertRaises(ValueError):
            benchlib.validate_result(bad, benchlib.END_TO_END)
        bad = json.loads(json.dumps(self.line))
        bad["attempted"] = 0
        with self.assertRaises(ValueError):
            benchlib.validate_result(bad, benchlib.END_TO_END)
        bad = json.loads(json.dumps(self.line))
        bad["extra"] = 1
        with self.assertRaises(ValueError):
            benchlib.validate_result(bad, benchlib.END_TO_END)
        bad = json.loads(json.dumps(self.line))
        bad["metrics"]["rss_mib"]["value"] = "12"
        with self.assertRaises(ValueError):
            benchlib.validate_result(bad, benchlib.END_TO_END)

    def test_bounds(self):
        e2e = benchlib.load_benchmark()["end_to_end"]
        for m in e2e:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in e2e if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e))

    def test_layer_scopes_name_known_metrics_and_workloads(self):
        for name, where in benchlib.LAYER_SCOPE.items():
            self.assertIn(name, benchlib.PER_LAYER)
            self.assertLessEqual(set(where), set(benchlib.WORKLOADS))


class Ledger(unittest.TestCase):
    def test_counts_and_failures(self):
        ok = {"attempted": 5, "failed": 0, "failures": {}}
        bad = {"attempted": 3, "failed": 1, "failures": {"engine.x": 1}}
        self.assertEqual(benchlib.ledger([ok]), (True, 5, 0, {}))
        self.assertEqual(benchlib.ledger([ok, bad]),
                         (False, 8, 1, {"engine.x": 1}))
        self.assertFalse(benchlib.ledger([{"attempted": 0, "failed": 0,
                                           "failures": {}}])[0])

    def test_named_failure_alone_is_incorrect(self):
        # A failed check that was not counted as a failed operation (for
        # example a tenant that never connected) still fails the run.
        raw = {"attempted": 40, "failed": 0,
               "failures": {"serve.client_connect": 1}}
        correct, _, failed, failures = benchlib.ledger([raw])
        self.assertFalse(correct)
        self.assertEqual(failed, 0)
        self.assertEqual(failures, {"serve.client_connect": 1})


class CompareTool(unittest.TestCase):
    def test_classify(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(benchlib.classify(
            base, [130.0] * 5, "lower", 0.1)[0], "worse")
        self.assertEqual(benchlib.classify(
            base, [100.2, 99.8, 100.1, 99.9, 100.0], "lower", 0.1)[0],
            "unchanged")
        self.assertEqual(benchlib.classify(
            base, [90.0, 89.0, 91.0, 90.5, 89.5], "lower", 0.1)[0],
            "improved")
        self.assertEqual(benchlib.classify(
            base, [90.0, 89.0, 91.0, 90.5, 89.5], "higher", 0.1)[0],
            "unchanged")
        noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
        self.assertEqual(benchlib.classify(
            noisy, [120.0] * 5, "lower", 0.1)[0], "unresolved")
        self.assertEqual(benchlib.classify(
            noisy, [40.0] * 5, "lower", 0.1)[0], "improved")

    def test_files(self):
        def record(workload, value, trace=0):
            return json.dumps({"workload": workload, "trace": trace,
                               "tiny": False,
                               "metrics": {"throughput_mib_s": value}})
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base.jsonl")
            new = os.path.join(tmp, "new.jsonl")
            with open(base, "w") as f:
                f.write("\n".join(record("bulk_tcp", v)
                                  for v in (100, 101, 99, 100)) + "\n")
                f.write(record("bulk_tcp", 1.0, trace=1) + "\n")
            with open(new, "w") as f:
                f.write("\n".join(record("bulk_tcp", v)
                                  for v in (70, 71, 69, 70)) + "\n")
            metrics = [{"name": "throughput_mib_s", "better": "higher",
                        "bound": 0.1}]
            rows = compare.compare(compare.load_runs(base),
                                   compare.load_runs(new), metrics)
            self.assertEqual(len(rows), 1)
            self.assertEqual(rows[0][2], "worse")
            self.assertEqual(rows[0][5], 4)


class Smoke(unittest.TestCase):
    """Tiny run of every workload through run.py, untraced and traced."""

    def run_one(self, workload, trace):
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny",
                 "--results", os.path.join(tmp, "r.jsonl")],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
                check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        names = benchlib.PER_LAYER if trace else benchlib.END_TO_END
        benchlib.validate_result(line, names)
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        return line

    def test_workloads(self):
        for workload in benchlib.WORKLOADS:
            with self.subTest(workload=workload):
                e2e = self.run_one(workload, 0)["metrics"]
                for name in benchlib.END_TO_END:
                    self.assertGreater(e2e[name]["value"], 0, name)
                layers = self.run_one(workload, 1)["metrics"]
                for name in benchlib.PER_LAYER:
                    if workload not in benchlib.layer_workloads(name):
                        self.assertEqual(layers[name]["value"], 0, name)


if __name__ == "__main__":
    argv = [a for a in sys.argv if a != "--smoke"]
    if "--smoke" not in sys.argv and len(argv) == 1:
        argv += ["PercentileRule", "Arithmetic", "Schema", "Ledger",
                 "CompareTool"]
    unittest.main(argv=argv)
