"""Tests of run.py's compare mode: quartiles, win counting and verdicts.

    cd perfbench && python3 -m unittest test_run
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest

import run


def pairs(parent, change):
    return [float(v) for v in parent], [float(v) for v in change]


class QuartileTest(unittest.TestCase):
    def test_quartiles_are_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        self.assertEqual(run.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        q1, med, q3 = run.quartiles(values)
        self.assertEqual(med, statistics.median(values))
        self.assertLess(q1, med)
        self.assertLess(med, q3)


class VerdictTest(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_clear_gain_on_a_lower_is_better_metric_is_improved(self):
        p, c = pairs(self.parent, [v * 0.8 for v in self.parent])
        self.assertEqual(run.verdict(p, c, "lower", 0.1)[0], "improved")

    def test_gain_needs_nine_wins_in_ten(self):
        change = [v * 0.8 for v in self.parent]
        change[0], change[1] = 150.0, 150.0  # two losses: 8/10 wins
        p, c = pairs(self.parent, change)
        self.assertNotEqual(run.verdict(p, c, "lower", 0.1)[0], "improved")

    def test_ties_count_for_neither_side(self):
        p, c = pairs(self.parent, self.parent)
        self.assertFalse(any(run.better(x, y, "lower") for x, y in zip(c, p)))
        self.assertEqual(run.verdict(p, c, "lower", 0.1)[0], "no worse")

    def test_gain_needs_a_median_gap_beyond_the_parent_iqr(self):
        # Wins every pair, but by less than the parent's own spread.
        p, c = pairs(self.parent, [v - 0.5 for v in self.parent])
        self.assertEqual(run.verdict(p, c, "lower", 0.1)[0], "no worse")

    def test_higher_is_better_direction(self):
        p, c = pairs(self.parent, [v * 1.3 for v in self.parent])
        self.assertEqual(run.verdict(p, c, "higher", 0.1)[0], "improved")
        self.assertEqual(run.verdict(p, c, "lower", 0.1)[0], "unresolved")

    def test_regression_beyond_the_bound_is_unresolved(self):
        p, c = pairs(self.parent, [v * 1.2 for v in self.parent])
        name, why = run.verdict(p, c, "lower", 0.1)
        self.assertEqual(name, "unresolved")
        self.assertIn("worse", why)

    def test_parent_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        p, c = pairs(noisy, noisy[1:] + noisy[:1])
        name, why = run.verdict(p, c, "lower", 0.1)
        self.assertEqual(name, "unresolved")
        self.assertIn("spread", why)

    def test_fewer_than_ten_pairs_is_unresolved(self):
        p, c = pairs(self.parent[:9], [v * 0.5 for v in self.parent[:9]])
        self.assertEqual(run.verdict(p, c, "lower", 0.1)[0], "unresolved")


class CompareCommandTest(unittest.TestCase):
    def record(self, workload, seed, cells_per_s):
        metrics = {m["name"]: {"value": cells_per_s if m["name"] == "cells_per_s" else 1.0,
                               "unit": m["unit"]} for m in self.metrics}
        return json.dumps({"host": {"workload": workload, "seed": seed, "trace": 0},
                           "digest": "d%d" % seed,
                           "result": {"correct": True, "attempted": 100, "failed": 0,
                                      "metrics": metrics}})

    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.metrics = json.load(f)["end_to_end"]

    def test_compare_prints_a_verdict_per_workload_and_metric(self):
        with tempfile.TemporaryDirectory() as tmp:
            parent, change = os.path.join(tmp, "p.jsonl"), os.path.join(tmp, "c.jsonl")
            with open(parent, "w") as p, open(change, "w") as c:
                for seed in range(1, 11):
                    p.write(self.record("fig5_grid", seed, 6.0 + 0.01 * seed) + "\n")
                    c.write(self.record("fig5_grid", seed, 9.0 + 0.01 * seed) + "\n")
            out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "compare",
                                  parent, change], capture_output=True, text=True,
                                 env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("fig5_grid: 10 pairs, outputs identical", out.stdout)
        lines = {line.split()[0]: line for line in out.stdout.splitlines()[2:]}
        self.assertIn("improved", lines["cells_per_s"])
        self.assertIn("no worse", lines["setup_s"])


if __name__ == "__main__":
    unittest.main()
