"""BENCHMARK.json and the benchmark code name the same workloads and metrics.

Run: python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import layers  # noqa: E402
import run  # noqa: E402


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_metrics(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         run.END_TO_END)

    def test_per_layer_metrics(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         layers.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
