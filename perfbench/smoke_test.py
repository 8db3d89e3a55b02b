#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload at tiny sizes, untraced
and traced, and asserts that every metric of BENCHMARK.json is printed by
name and that the output oracle passed.

  python3 perfbench/smoke_test.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)

    def check(self, workload, trace):
        code, output = run.run_once(workload, seed=3, seconds=1, trace=trace,
                                    tiny=True, capture=True)
        lines = output.strip().splitlines()
        self.assertEqual(code, 0, "\n".join(lines[-30:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        expected = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        printed = {line.split()[0] for line in lines[:-1] if line.strip()}
        for metric in expected:
            self.assertIn(metric["name"], printed)
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"])
        self.assertIn("failed_share", printed)
        self.assertTrue(any(l.startswith("context: ") for l in lines))

    def test_workloads(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
