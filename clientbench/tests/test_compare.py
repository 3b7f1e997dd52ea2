"""Tests of the comparison rule in compare.py (run by run.py --selftest)."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import compare  # noqa: E402


class JudgeTest(unittest.TestCase):
    PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_clear_gain_is_improved(self):
        change = [v * 1.05 for v in self.PARENT]
        j = compare.judge(self.PARENT, change, "higher", 0.1)
        self.assertEqual(j["verdict"], "improved")
        self.assertEqual(j["wins"], 10)

    def test_lower_is_better_direction(self):
        change = [v * 0.95 for v in self.PARENT]
        self.assertEqual(
            compare.judge(self.PARENT, change, "lower", 0.1)["verdict"],
            "improved")
        self.assertEqual(
            compare.judge(self.PARENT, change, "higher", 0.1)["verdict"],
            "within bound")

    def test_eight_wins_of_ten_is_not_a_gain(self):
        change = [v * 1.05 for v in self.PARENT]
        change[0] = self.PARENT[0] * 0.99
        change[1] = self.PARENT[1] * 0.99
        j = compare.judge(self.PARENT, change, "higher", 0.1)
        self.assertEqual(j["wins"], 8)
        self.assertEqual(j["verdict"], "within bound")

    def test_ties_count_for_neither_side(self):
        change = list(self.PARENT)
        change[0] += 50
        j = compare.judge(self.PARENT, change, "higher", 0.1)
        self.assertEqual((j["wins"], j["losses"]), (1, 0))
        self.assertEqual(j["verdict"], "within bound")

    def test_median_gap_must_exceed_parent_iqr(self):
        # Every pair wins, but by less than the parent's quartile spread.
        change = [v + 0.5 for v in self.PARENT]
        j = compare.judge(self.PARENT, change, "higher", 0.1)
        self.assertEqual(j["wins"], 10)
        self.assertLess(abs(j["change_median"] - j["parent_median"]),
                        j["parent_q3"] - j["parent_q1"])
        self.assertEqual(j["verdict"], "within bound")

    def test_worse_beyond_bound_is_regressed(self):
        change = [v * 0.85 for v in self.PARENT]
        j = compare.judge(self.PARENT, change, "higher", 0.1)
        self.assertEqual(j["verdict"], "regressed")
        # Within the bound, a small loss is not a regression.
        change = [v * 0.95 for v in self.PARENT]
        self.assertEqual(
            compare.judge(self.PARENT, change, "higher", 0.1)["verdict"],
            "within bound")

    def test_spread_beyond_bound_is_unresolved(self):
        parent = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [v * 0.8 for v in parent]
        j = compare.judge(parent, change, "higher", 0.1)
        self.assertGreater(j["spread"], 0.1)
        self.assertEqual(j["verdict"], "unresolved")

    def test_wide_spread_but_every_run_better(self):
        parent = [60, 70, 80, 90, 100, 65, 75, 85, 95, 99]
        change = [v + 200 for v in parent]
        self.assertEqual(
            compare.judge(parent, change, "higher", 0.1)["verdict"],
            "improved")

    def test_too_few_pairs(self):
        self.assertEqual(
            compare.judge(self.PARENT[:9], self.PARENT[:9], "higher",
                          0.1)["verdict"], "too few pairs")

    def test_quartiles_match_statistics_module(self):
        q1, med, q3 = compare.quartiles(self.PARENT)
        self.assertEqual(med, 100)
        self.assertLessEqual(q1, med)
        self.assertLessEqual(med, q3)


class ReportTest(unittest.TestCase):
    SPEC = {"end_to_end": [
        {"name": "throughput_tps", "unit": "1/s", "better": "higher",
         "bound": 0.1}]}

    @staticmethod
    def result(value, correct=True, failed=0):
        return {"correct": correct, "attempted": 1000, "failed": failed,
                "metrics": {"throughput_tps": {"value": value}}}

    def report(self, records):
        """Status of compare.report over `records`, output discarded."""
        with tempfile.TemporaryDirectory() as d:
            spec_path = os.path.join(d, "BENCHMARK.json")
            runs_path = os.path.join(d, "runs.jsonl")
            with open(spec_path, "w") as f:
                json.dump(self.SPEC, f)
            with open(runs_path, "w") as f:
                for rec in records:
                    f.write(json.dumps(rec) + "\n")
            with open(os.devnull, "w") as null:
                saved, sys.stdout = sys.stdout, null
                try:
                    return compare.report([runs_path], spec_path)
                finally:
                    sys.stdout = saved

    def pairs(self, parent, change, n=10):
        """Records of n pairs; parent and change map pair i to a result."""
        out = []
        for i in range(n):
            for side, result in (("parent", parent(i)), ("change", change(i))):
                out.append({"workload": "w", "pair": i, "side": side,
                            "seed": i, "result": result})
        return out

    def test_same_figures_pass(self):
        same = lambda i: self.result(100 + i % 3)  # noqa: E731
        self.assertEqual(self.report(self.pairs(same, same)), 0)

    def test_report_flags_regression(self):
        self.assertEqual(self.report(self.pairs(
            lambda i: self.result(100 + i % 3),
            lambda i: self.result(80 + i % 3))), 1)

    def test_change_failing_its_checks_fails(self):
        # Every pair but one is complete and equal, so only the broken run
        # of the change can make the report fail.
        records = self.pairs(lambda i: self.result(100 + i % 3),
                             lambda i: self.result(100 + i % 3), n=11)
        records[-1]["result"]["correct"] = False
        self.assertEqual(self.report(records), 1)

    def test_change_giving_no_result_fails(self):
        records = self.pairs(lambda i: self.result(100 + i % 3),
                             lambda i: self.result(100 + i % 3), n=11)
        records[-1]["result"] = None
        self.assertEqual(self.report(records), 1)

    def test_broken_parent_run_only_loses_its_pair(self):
        records = self.pairs(lambda i: self.result(100 + i % 3),
                             lambda i: self.result(100 + i % 3), n=11)
        records[0]["result"]["correct"] = False
        self.assertEqual(self.report(records), 0)

    def test_too_few_pairs_fails(self):
        same = lambda i: self.result(100 + i % 3)  # noqa: E731
        self.assertEqual(self.report(self.pairs(same, same, n=9)), 1)

    def test_no_gain_when_change_fails_more(self):
        self.assertEqual(
            compare.judge(JudgeTest.PARENT,
                          [v * 1.05 for v in JudgeTest.PARENT], "higher",
                          0.1, more_failures=True)["verdict"],
            "no gain: more failures")
        self.assertEqual(compare.fail_share(
            [self.result(1, failed=10), self.result(1, failed=30)]), 0.02)


if __name__ == "__main__":
    unittest.main()
