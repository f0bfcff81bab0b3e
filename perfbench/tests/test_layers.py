"""Tests of perfbench/layers.py on a checked-in sample run.

The sample is a traced `perfbench_harness anonymize` run over a 3000-user
glovebin dataset with 800-user shards on two workers: a footer planning
pass, two shard-batch block fetches and one reconcile fetch.

Run: python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import layers  # noqa: E402
import trace_summary  # noqa: E402

DATA = Path(__file__).parent / "data"


class SampleRunTest(unittest.TestCase):
    def setUp(self):
        self.report = json.loads((DATA / "sample_report.json").read_text())
        self.ledger = json.loads((DATA / "sample_ledger.json").read_text())
        self.spans = trace_summary.load(DATA / "sample_trace.json")
        self.counters = layers.parse_metrics_text(
            (DATA / "sample_metrics.txt").read_text())
        self.m = layers.layer_metrics([self.report], self.ledger, self.spans,
                                      self.counters, serve=False)
        self.passes = self.ledger["passes"]

    def test_every_metric_but_the_overhead_is_extracted(self):
        names = {name for name, _ in layers.PER_LAYER}
        self.assertEqual(set(self.m), names - {"trace.overhead_share"})

    def test_counters_come_from_the_metrics_text(self):
        self.assertEqual(self.counters["core.heap.popped"], 713147)
        self.assertNotIn("stream.shard.members", self.counters)
        self.assertEqual(self.m["core.heap.popped"], 713147)
        self.assertAlmostEqual(self.m["core.heap.stale_share"], 633482 / 713147)
        self.assertAlmostEqual(self.m["core.heap.refine_share"], 78509 / 637324)
        self.assertEqual(self.m["sink.samples_written"], 11277)
        self.assertEqual(self.m["reconcile.chunks"], 1)

    def test_source_passes(self):
        self.assertEqual(self.m["source.passes"], 4)
        self.assertEqual(layers.ledger_problems(self.report, self.ledger), [])
        self.assertAlmostEqual(self.m["source.pass1_s"],
                               self.passes[0]["source_s"])
        self.assertAlmostEqual(self.m["source.rescan_s"],
                               sum(p["source_s"] for p in self.passes[1:]))
        # Block fetches decode whole blocks: 73 + 73 + 72 of 73 blocks.
        decoded = 2315 * (73 + 73 + 72) / 73
        self.assertAlmostEqual(self.m["source.fingerprints_decoded"], decoded)
        # The rescans keep every fingerprint once: 2023 in shards + 292
        # deferred to reconcile.
        self.assertAlmostEqual(self.m["source.useful_share"], 2315 / decoded)

    def test_plan_exec_and_reconcile_exclude_source_and_sink_time(self):
        pass_time = lambda p: p["source_s"] + p["sink_s"]  # noqa: E731
        self.assertAlmostEqual(
            self.m["exec.phase_s"],
            self.spans["stream.shard_batch"]["total_s"] -
            pass_time(self.passes[1]) - pass_time(self.passes[2]))
        self.assertAlmostEqual(
            self.m["reconcile.s"],
            self.report["metrics"]["reconcile_seconds"] -
            pass_time(self.passes[3]))
        self.assertAlmostEqual(
            self.m["plan.s"], self.report["metrics"]["plan_seconds"] -
            self.spans["stream.pass1.scan"]["total_s"])
        self.assertEqual(self.m["plan.shards"], 4)
        self.assertAlmostEqual(self.m["plan.deferred_share"], 292 / 2315)

    def test_exec_rows(self):
        rows = [row["total_seconds"] for row in self.report["shards"]]
        self.assertAlmostEqual(self.m["exec.busy_s"], sum(rows))
        self.assertAlmostEqual(self.m["exec.max_shard_s"], max(rows))
        self.assertAlmostEqual(self.m["exec.parallel_efficiency"],
                               sum(rows) / (2 * self.m["exec.phase_s"]))

    def test_shares_of_engine_wall(self):
        engine = self.report["timings"]["total_seconds"]
        self.assertAlmostEqual(self.m["reconcile.share"],
                               self.m["reconcile.s"] / engine)
        covered = (self.m["source.pass1_s"] + self.m["source.rescan_s"] +
                   self.m["plan.s"] + self.m["exec.phase_s"] +
                   self.m["reconcile.s"] + self.m["sink.write_s"])
        self.assertAlmostEqual(self.m["layers.coverage_share"],
                               covered / engine)
        self.assertGreater(self.m["layers.coverage_share"], 0.9)

    def test_serve_metrics_are_zero_outside_serve(self):
        for name in ("serve.publish_s", "serve.update_s",
                     "serve.queue_block_waits", "serve.events_dropped_share"):
            self.assertEqual(self.m[name], 0)

    def test_serve_reads_sink_time_from_the_snapshot_spans(self):
        spans = {"serve.publish": {"count": 2, "total_s": 3.0, "self_s": 0.5,
                                   "max_s": 2.0},
                 "serve.publish.snapshot": {"count": 2, "total_s": 0.25,
                                            "self_s": 0.25, "max_s": 0.2}}
        counters = {"serve.events_ingested": 400,
                    "serve.events_dropped_published": 100,
                    "serve.queue_block_waits": 3}
        m = layers.layer_metrics([self.report, self.report], None, spans,
                                 counters, serve=True)
        self.assertEqual(m["source.passes"], 0)
        self.assertEqual(m["sink.write_s"], 0.25)
        self.assertEqual(m["serve.publish_s"], 3.0)
        self.assertEqual(m["serve.publish_max_s"], 2.0)
        self.assertAlmostEqual(m["serve.update_s"],
                               2 * self.report["timings"]["total_seconds"])
        self.assertEqual(m["serve.events_dropped_share"], 0.25)
        self.assertEqual(m["serve.queue_block_waits"], 3)


if __name__ == "__main__":
    unittest.main()
