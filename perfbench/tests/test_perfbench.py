#!/usr/bin/env python3
"""Benchmark-local test: the stats unit test passes, and a smoke run (tiny
inputs) of every workload in BENCHMARK.json prints every declared metric
with its declared unit, traced and untraced, and passes its checks.

  python3 perfbench/tests/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = run.declared()

    def test_stats_unit_test(self):
        unit = os.path.join(run.build_dir(), "perfbench_unit_test")
        self.assertEqual(subprocess.run([unit]).returncode, 0)

    def check_smoke(self, workload, trace):
        code, lines = run.run_once(self.binary, workload, 3, 1, trace,
                                   smoke=True, echo=False)
        self.assertEqual(code, 0, "\n".join(lines[-30:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])
        # Both runs print every end-to-end metric by name.
        printed = run.printed_metrics(lines)
        for m in self.spec["end_to_end"]:
            self.assertIn(m["name"], printed)

    def test_smoke_every_workload_untraced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_smoke(w["name"], 0)

    def test_smoke_every_workload_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_smoke(w["name"], 1)


if __name__ == "__main__":
    unittest.main()
