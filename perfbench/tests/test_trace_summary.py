"""Tests of perfbench/trace_summary.py on hand-made traces.

Run: python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import trace_summary  # noqa: E402


def span(name, tid, begin, end, pid=1):
    return [{"name": name, "cat": "glove", "ph": "B", "ts": begin,
             "pid": pid, "tid": tid},
            {"name": name, "cat": "glove", "ph": "E", "ts": end,
             "pid": pid, "tid": tid}]


def interleave(*streams):
    """Merges per-thread event lists by timestamp, as the exporter may."""
    events = [event for stream in streams for event in stream]
    return sorted(events, key=lambda event: event["ts"])


class SummarizeTest(unittest.TestCase):
    def test_nested_and_cross_thread_spans(self):
        # Thread 1: run [0, 1000] holding batch [100, 400] (which holds
        # fetch [120, 170]) and reconcile [500, 900].  Thread 2: two shard
        # spans that overlap run in time but sit on another thread.
        thread1 = [
            {"name": "run", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "batch", "ph": "B", "ts": 100, "pid": 1, "tid": 1},
            {"name": "fetch", "ph": "B", "ts": 120, "pid": 1, "tid": 1},
            {"name": "fetch", "ph": "E", "ts": 170, "pid": 1, "tid": 1},
            {"name": "batch", "ph": "E", "ts": 400, "pid": 1, "tid": 1},
            {"name": "reconcile", "ph": "B", "ts": 500, "pid": 1, "tid": 1},
            {"name": "reconcile", "ph": "E", "ts": 900, "pid": 1, "tid": 1},
            {"name": "run", "ph": "E", "ts": 1000, "pid": 1, "tid": 1},
        ]
        thread2 = span("shard", 2, 150, 350) + span("shard", 2, 360, 390)
        spans = trace_summary.summarize(interleave(thread1, thread2))

        self.assertEqual(spans["run"]["count"], 1)
        self.assertAlmostEqual(spans["run"]["total_s"], 1000e-6)
        # Only the same-thread children batch and reconcile are covered.
        self.assertAlmostEqual(spans["run"]["self_s"], (1000 - 300 - 400) * 1e-6)
        self.assertAlmostEqual(spans["batch"]["self_s"], (300 - 50) * 1e-6)
        self.assertAlmostEqual(spans["fetch"]["self_s"], 50e-6)
        self.assertAlmostEqual(spans["reconcile"]["self_s"], 400e-6)
        self.assertEqual(spans["shard"]["count"], 2)
        self.assertAlmostEqual(spans["shard"]["total_s"], 230e-6)
        self.assertAlmostEqual(spans["shard"]["self_s"], 230e-6)
        self.assertAlmostEqual(spans["shard"]["max_s"], 200e-6)

    def test_same_tid_in_two_processes_is_two_threads(self):
        events = interleave(span("outer", 7, 0, 100, pid=1),
                            span("inner", 7, 10, 20, pid=2))
        spans = trace_summary.summarize(events)
        self.assertAlmostEqual(spans["outer"]["self_s"], 100e-6)

    def test_recursive_span_counts_each_level(self):
        events = [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "B", "ts": 10, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 30, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 50, "pid": 1, "tid": 1},
        ]
        spans = trace_summary.summarize(events)
        self.assertEqual(spans["a"]["count"], 2)
        self.assertAlmostEqual(spans["a"]["total_s"], 70e-6)
        self.assertAlmostEqual(spans["a"]["self_s"], 50e-6)

    def test_unbalanced_stream_is_rejected(self):
        with self.assertRaises(ValueError):
            trace_summary.summarize(span("a", 1, 0, 10)[:1])
        mismatched = [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 5, "pid": 1, "tid": 1},
        ]
        with self.assertRaises(ValueError):
            trace_summary.summarize(mismatched)

    def test_sample_trace_from_a_real_run(self):
        spans = trace_summary.load(Path(__file__).parent / "data" /
                                   "sample_trace.json")
        self.assertEqual(spans["stream.shard"]["count"], 4)
        self.assertEqual(spans["stream.shard_batch"]["count"], 2)
        # engine.run only wraps engine.strategy (and validation).
        self.assertLess(spans["engine.run"]["self_s"], 1e-3)


if __name__ == "__main__":
    unittest.main()
