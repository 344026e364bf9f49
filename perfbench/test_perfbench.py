#!/usr/bin/env python3
"""Tests of the benchmark's own helpers and a tiny-n smoke of every workload.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary like perfbench/run.py does (the first build takes
a minute).
"""

import json
import os
import random
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402

SMOKE_LIMIT_S = 30


def benchmark_names(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


class TailRule(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        rng = random.Random(7)
        for n in range(metrics.TAIL_BEYOND + 1, 400, 7):
            xs = [rng.random() for _ in range(n)]
            value, pct, beyond, count = metrics.tail(xs)
            self.assertEqual(count, n)
            self.assertEqual(beyond, metrics.TAIL_BEYOND)
            self.assertEqual(sum(x > value for x in xs), metrics.TAIL_BEYOND)
            self.assertAlmostEqual(pct, 100.0 * (n - metrics.TAIL_BEYOND) / n)

    def test_hundred_samples_is_p90(self):
        self.assertEqual(metrics.tail(list(range(1, 101)))[:3], (90, 90.0, 10))

    def test_too_few_samples_report_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0, 3))


class LayerSplit(unittest.TestCase):
    def test_busy_plus_self_is_the_op_time(self):
        layers = {"traced_ops": 4, "op_ms": 400.0, "relay_ms": 250.0, "plan_ms": 60.0,
                  "kernel_ms": 3.0, "sparse_ms": 7.0}
        op_ms, busy, self_ms = metrics.layer_split(layers)
        self.assertAlmostEqual(op_ms, 100.0)
        self.assertAlmostEqual(sum(busy.values()) + self_ms, op_ms)
        self.assertAlmostEqual(self_ms, 20.0)


class TinySmoke(unittest.TestCase):
    """Every workload at tiny n, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        cls.raw = {}
        for workload in run.WORKLOADS:
            for trace in (False, True):
                start = time.monotonic()
                raw = run.run_binary(cls.exe, workload, seed=5, seconds=1, trace=trace,
                                     tiny=True)
                cls.raw[workload, trace] = (raw, time.monotonic() - start)

    def test_finishes_in_seconds_and_correct(self):
        for (workload, trace), (raw, wall) in self.raw.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertLess(wall, SMOKE_LIMIT_S)
                self.assertGreater(raw["attempted"], 0)
                self.assertEqual(raw["failed"], 0, raw["failures"])

    def test_metric_names_match_benchmark_json(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(set(metrics.end_to_end(self.raw[workload, False][0])),
                                 benchmark_names("end_to_end"))
                self.assertEqual(set(metrics.per_layer(self.raw[workload, True][0])),
                                 benchmark_names("per_layer"))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in run.WORKLOADS:
            for name, (value, _) in metrics.end_to_end(self.raw[workload, False][0]).items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(value, 0)

    def test_traced_layers_add_up_to_the_op_time(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                raw = self.raw[workload, True][0]
                self.assertGreater(raw["layers"]["traced_ops"], 0)
                m = metrics.per_layer(raw)
                shares = sum(m[k][0] for k in ("comm.relay.share", "core.plan.share",
                                               "linalg.kernels.share", "core.protocol.share"))
                sparse = m["core.sparse_mm.busy_ms"][0]
                op_ms = raw["layers"]["op_ms"] / raw["layers"]["traced_ops"]
                self.assertAlmostEqual(shares + sparse / op_ms, 1.0, places=9)


class EntryPoint(unittest.TestCase):
    def test_last_line_is_the_result_object(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "count_sparse",
             "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)


if __name__ == "__main__":
    unittest.main()
