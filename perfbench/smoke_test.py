#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload driver runs on the
tiny network in seconds, prints every metric with its unit, and a corrupted
output trips the correctness gate.

    python3 perfbench/smoke_test.py
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))
from run import expected_layers  # noqa: E402

WORKLOADS = ("resnet18_batch", "vgg32_open", "vgg32_linked")
E2E = {"setup_s": "s", "peak_rss_mb": "MiB", "throughput_img_s": "img/s",
       "latency_p50_ms": "ms", "latency_p99_ms": "ms",
       "sustained_rps": "req/s", "ops": "count", "ops_failed": "count"}
BATCH_WORKLOADS = ("resnet18_batch", "vgg32_linked")


def run(workload, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--model", "tiny", *extra],
        stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def table(lines):
    """{name: unit} of the metric rows of the human-readable report."""
    rows = {}
    for line in lines:
        m = re.fullmatch(r"\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?\d+)?) (\S+)", line)
        if m:
            rows[m.group(1)] = m.group(3)
    return rows


class Smoke(unittest.TestCase):
    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w)
                self.assertEqual(code, 0, "\n".join(lines))
                rows = table(lines)
                for name, unit in E2E.items():
                    self.assertEqual(rows.get(name), unit, name)
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, 1)
                self.assertEqual(code, 0, "\n".join(lines))
                rows = table(lines)
                for name in expected_layers(w, tiny=True):
                    self.assertIn(name, rows)
                self.assertTrue(any(l.startswith("trace: ") for l in lines))
                if w in BATCH_WORKLOADS:
                    self.assertTrue(any(l.startswith("kernels.bottleneck: ")
                                        for l in lines))

    def test_corrupted_output_trips_the_gate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = run(w, 0, "--corrupt")
                self.assertNotEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
