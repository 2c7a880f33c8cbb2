"""Tests of the benchmark's arithmetic.  Run: python3 perfbench/test_stats.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(stats.percentile(v, 50), 50)
        self.assertEqual(stats.percentile(v, 99), 99)
        self.assertEqual(stats.percentile(v, 100), 100)
        self.assertEqual(stats.percentile([7], 99.9), 7)

    def test_tail_needs_ten_beyond(self):
        v = list(range(1, 101))          # 100 samples
        p, val, n = stats.tail(v)
        self.assertEqual((p, val, n), (90.0, 90, 10))   # p95 has only 5 beyond
        v = list(range(1, 80))           # 79 samples: p90 has 7 beyond
        self.assertEqual(stats.tail(v), (75.0, 60, 19))

    def test_tail_stays_at_p90_with_many_samples(self):
        # a fast run's count must not move the tail to another percentile
        v = list(range(1, 1001))
        self.assertEqual(stats.tail(v), (90.0, 900, 100))

    def test_tail_counts_strictly_beyond_with_ties(self):
        # 30 equal maxima: nothing is strictly beyond the high rungs
        v = [1.0] * 70 + [5.0] * 30
        p, val, n = stats.tail(v)
        self.assertEqual((p, val, n), (50.0, 1.0, 30))

    def test_tail_too_few_samples_falls_back(self):
        p, val, n = stats.tail([3, 1, 2])
        self.assertEqual((p, val), (50.0, 2))
        self.assertLess(n, 10)


class HostScale(unittest.TestCase):
    def test_mean_of_samples(self):
        # probe took 4 and 8 ms (mean 6) against a 3 ms reference: times
        # halve, rates double
        self.assertAlmostEqual(stats.host_scale([4.0, 8.0], 3.0, "mean"), 0.5)

    def test_rare_stall_counts_in_the_mean_only(self):
        # one stalled sample in ten moves the mean, not the median
        stalled = [1.0] * 9 + [11.0]
        self.assertAlmostEqual(stats.host_scale(stalled, 2.0, "mean"), 1.0)
        self.assertAlmostEqual(stats.host_scale(stalled, 2.0, "median"), 2.0)

    def test_no_samples_keeps_time_as_measured(self):
        self.assertEqual(stats.host_scale([], 3.0, "median"), 1.0)
        self.assertEqual(stats.paired_scaled([4.0, 5.0], [], 3.0), [4.0, 5.0])

    def test_paired_uses_each_times_own_sample(self):
        # the second set-up ran while the host was twice as slow; the
        # third has no probe sample after it
        self.assertEqual(stats.paired_scaled([6.0, 12.0, 9.0], [3.0, 6.0], 3.0),
                         [6.0, 6.0])


class Accounting(unittest.TestCase):
    def test_every_non_ok_is_failed(self):
        a = stats.account(["ok", "ok", "busy", "shed", "check_failed", "refused",
                           "deadline", "error"])
        self.assertEqual(a["attempted"], 8)
        self.assertEqual(a["failed"], 6)
        self.assertAlmostEqual(a["error_rate"], 0.75)
        self.assertEqual(a["by_class"]["check_failed"], 1)
        self.assertEqual(a["by_class"]["shed"], 1)

    def test_unknown_status_counts_as_error(self):
        a = stats.account(["ok", "weird"])
        self.assertEqual(a["failed"], 1)
        self.assertEqual(a["by_class"], {"error": 1})

    def test_all_ok(self):
        self.assertEqual(stats.account(["ok"] * 4)["error_rate"], 0.0)


class SelfTime(unittest.TestCase):
    def test_nested(self):
        # root 0..10, child 2..6 with grandchild 3..4
        spans = [(1, 1, 0, "root", 0.0, 10.0), (1, 2, 1, "a", 2.0, 6.0),
                 (1, 3, 2, "b", 3.0, 4.0)]
        s = stats.self_times(spans)
        self.assertEqual(s, {1: 6.0, 2: 3.0, 3: 1.0})
        by_name, n, bad = stats.per_op_check(spans)
        self.assertEqual((n, bad), (1, []))
        self.assertAlmostEqual(sum(by_name.values()), 10.0)

    def test_overlapping_children_counted_once(self):
        # two children of one parent overlap on 4..5
        spans = [(1, 1, 0, "root", 0.0, 10.0), (1, 2, 1, "a", 2.0, 5.0),
                 (1, 3, 1, "b", 4.0, 8.0)]
        self.assertEqual(stats.self_times(spans)[1], 4.0)   # 10 - |2..8|

    def test_child_outside_parent_is_clipped(self):
        spans = [(1, 1, 0, "root", 0.0, 10.0), (1, 2, 1, "a", 8.0, 12.0)]
        self.assertEqual(stats.self_times(spans)[1], 8.0)

    def test_overlap_makes_sum_exceed_wall(self):
        # overlapping siblings double-count their own time: flagged
        spans = [(1, 1, 0, "root", 0.0, 10.0), (1, 2, 1, "a", 0.0, 8.0),
                 (1, 3, 1, "b", 2.0, 10.0)]
        _, _, bad = stats.per_op_check(spans)
        self.assertEqual(bad, [1])

    def test_ops_are_separate(self):
        spans = [(1, 1, 0, "root", 0.0, 4.0), (2, 2, 0, "root", 1.0, 3.0),
                 (2, 3, 2, "a", 1.5, 2.5)]
        by_name, n, bad = stats.per_op_check(spans)
        self.assertEqual((n, bad), (2, []))
        self.assertAlmostEqual(by_name["root"], 5.0)
        self.assertAlmostEqual(by_name["a"], 1.0)


if __name__ == "__main__":
    unittest.main()
