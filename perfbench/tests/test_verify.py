"""Tests of perfbench/verify.py on hand-made releases.

Run: python3 -m unittest discover -s perfbench/tests
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import verify  # noqa: E402

HEADER = "# members,x,dx,y,dy,t,dt,contributors\n"


def release(directory, name, groups, title="# glove fingerprint dataset: x\n"):
    """Writes a release CSV with two sample rows per group."""
    path = Path(directory) / name
    rows = [f"{'+'.join(map(str, group))},0,100,0,100,{t},1,{len(group)}\n"
            for group in groups for t in (10, 20)]
    path.write_text(title + HEADER + "".join(rows))
    return path


class ReleaseTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.users = set(range(6))

    def tearDown(self):
        self.tmp.cleanup()

    def problems(self, groups, suppressed=0, k=2):
        path = release(self.dir, "r.csv", groups)
        return verify.check_release(verify.read_groups(path), k, self.users,
                                    suppressed)

    def test_valid_release_passes(self):
        path = release(self.dir, "r.csv", [(0, 1), (2, 3, 4)])
        self.assertEqual(verify.read_groups(path), [(0, 1), (2, 3, 4)])
        self.assertEqual(self.problems([(0, 1), (2, 3, 4)], suppressed=1), [])

    def test_group_below_k_is_rejected(self):
        found = self.problems([(0, 1), (2,), (3, 4, 5)])
        self.assertEqual(len(found), 1)
        self.assertIn("fewer than k=2", found[0])

    def test_lost_user_is_rejected(self):
        found = self.problems([(0, 1), (2, 3, 4)])
        self.assertEqual(len(found), 1)
        self.assertIn("not conserved", found[0])

    def test_user_in_two_groups_is_rejected(self):
        found = self.problems([(0, 1), (1, 2), (3, 4, 5)])
        self.assertTrue(any("more than one group" in p for p in found))

    def test_unknown_user_is_rejected(self):
        found = self.problems([(0, 1), (2, 3), (4, 9)], suppressed=1)
        self.assertTrue(any("not input users" in p for p in found))

    def test_input_users_of_both_input_formats(self):
        dataset = release(self.dir, "in.csv", [(0,), (1,), (2,)])
        self.assertEqual(verify.dataset_users(dataset), {0, 1, 2})
        events = Path(self.dir) / "events.csv"
        events.write_text("# glove CDR trace: user_id,time_min,lat_deg,"
                          "lon_deg\n5,0.1,6.8,-5.2\n7,0.2,6.8,-5.2\n"
                          "5,0.3,6.8,-5.2\n")
        self.assertEqual(verify.dataset_users(events), {5, 7})

    def test_epoch_groups_may_only_widen(self):
        self.assertEqual(verify.check_epochs([(0, 1)], [(0, 1, 2)], 1), [])
        split = verify.check_epochs([(0, 1, 2)], [(0, 1), (2, 3)], 4)
        self.assertEqual(len(split), 1)
        self.assertIn("epoch 4", split[0])
        self.assertEqual(len(verify.check_epochs([(0, 1)], [(2, 3)], 1)), 1)

    def test_digest_ignores_the_path_bearing_first_line(self):
        groups = [(0, 1), (2, 3)]
        a = release(self.dir, "a.csv", groups,
                    "# glove fingerprint dataset: /tmp/a/in.csv-sharded-k2\n")
        b = release(self.dir, "b.csv", groups,
                    "# glove fingerprint dataset: /tmp/b/in.csv-sharded-k2\n")
        c = release(self.dir, "c.csv", [(0, 2), (1, 3)])
        self.assertEqual(verify.release_digest([a]), verify.release_digest([b]))
        self.assertNotEqual(verify.release_digest([a]),
                            verify.release_digest([c]))
        self.assertNotEqual(verify.release_digest([a]),
                            verify.release_digest([a, b]))


if __name__ == "__main__":
    unittest.main()
