"""Hand-computed checks of the spread and bound comparison in spread.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spread  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        # statistics.quantiles (exclusive) of 1..10: q1 2.75, median 5.5,
        # q3 8.25, so the spread is 5.5 / 5.5 = 1.
        med, q1, q3, s = spread.spread(list(range(1, 11)))
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(s, 1.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(spread.worse_by(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(spread.worse_by(10.0, 9.0, "lower"), -0.1)
        self.assertAlmostEqual(spread.worse_by(200.0, 150.0, "higher"), 0.25)
        self.assertAlmostEqual(spread.worse_by(200.0, 250.0, "higher"), -0.25)

    def test_median_bound(self):
        first = {"w": {"setup_s": [1.0, 1.0, 1.0], "op_ms": [10, 10, 10],
                       "ops_per_s": [100, 100, 100]}}
        # op_ms 10 -> 10.9 is 9% worse (inside 10%); ops_per_s 100 -> 89
        # is 11% worse (outside); setup_s 1.0 -> 1.3 is 30% worse (outside
        # its 25%).
        second = {"w": {"setup_s": [1.3, 1.3, 1.3], "op_ms": [10.9, 10.9, 10.9],
                        "ops_per_s": [89, 89, 89]}}
        problems = spread.check_medians(SPEC, first, second)
        self.assertEqual(len(problems), 2)
        self.assertTrue(problems[0].startswith("w/setup_s"))
        self.assertTrue(problems[1].startswith("w/ops_per_s"))

    def test_spread_bound_exempts_setup(self):
        runs = {"w": {"setup_s": [1, 2, 3, 4], "op_ms": [10, 10, 10, 10],
                      "ops_per_s": [90, 100, 110, 120]}}
        # ops_per_s quartiles 92.5 / 117.5 around 105: spread 0.238 > 0.1.
        problems = spread.check_spreads(SPEC, runs)
        self.assertEqual(problems, ["w/ops_per_s: spread 0.2381 above bound 0.10"])


if __name__ == "__main__":
    unittest.main()
