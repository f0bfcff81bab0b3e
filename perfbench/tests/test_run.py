"""Tests of perfbench/run.py's cross-run release digest check.

Run: python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

CONTEXT = {"workload": "city_halo_k2", "source_digest": "s1",
           "build_type": "Release", "compiler": "g++ 12"}


class EarlierDigestsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.path = Path(self.tmp.name) / "results.jsonl"

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, *records):
        with open(self.path, "w", encoding="utf-8") as out:
            for record in records:
                out.write(json.dumps(record) + "\n")

    def test_no_results_file_means_no_earlier_digests(self):
        self.assertEqual(run.earlier_digests(self.path, CONTEXT), {})

    def test_only_records_of_the_same_build_and_workload_count(self):
        self.write(
            {"context": CONTEXT, "digests": {"7000": "a", "7001": "b"}},
            {"context": dict(CONTEXT, source_digest="s2"),
             "digests": {"7000": "other sources"}},
            {"context": dict(CONTEXT, workload="serve_replay_k5"),
             "digests": {"7000": "other workload"}},
            {"context": CONTEXT, "digests": {"7000": "c"}},
            {"context": CONTEXT})
        self.assertEqual(run.earlier_digests(self.path, CONTEXT),
                         {7000: {"a", "c"}, 7001: {"b"}})

    def test_a_truncated_last_line_is_skipped(self):
        self.write({"context": CONTEXT, "digests": {"7000": "a"}})
        with open(self.path, "a", encoding="utf-8") as out:
            out.write('{"context": {"workload"')
        self.assertEqual(run.earlier_digests(self.path, CONTEXT),
                         {7000: {"a"}})


if __name__ == "__main__":
    unittest.main()
