#!/usr/bin/env python3
"""Tests for the benchmark's own logic.

  python3 perfbench/test_perfbench.py

The generator test builds and runs the driver (like run.py does), so the
first run compiles the product libraries.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


def span(name, start, end, parent=-1, update=1, critical=True):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "update": update, "critical": critical}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertIsNone(stats.tail_percentile(list(range(999)), 99))
        self.assertIsNotNone(stats.tail_percentile(list(range(1000)), 99))

    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(stats.percentile(list(range(1001)), 0.99), 990)
        self.assertEqual(stats.percentile([7], 0.99), 7)

    def test_median_and_quartiles_match_statistics_module(self):
        med, q1, q3 = stats.median_and_quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(stats.relative_spread([9, 10, 10, 11]), 1.5 / 10)


class FailedShare(unittest.TestCase):
    def test_updates_and_packets_both_count(self):
        phase = {"updates": 100, "failed_updates": 1,
                 "packets": 900, "failed_packets": 4}
        self.assertEqual(stats.failure_counts(phase), (1000, 5))
        self.assertAlmostEqual(stats.failed_share(phase), 0.005)

    def test_clean_run_is_zero(self):
        phase = {"updates": 3, "failed_updates": 0, "packets": 12,
                 "failed_packets": 0}
        self.assertEqual(stats.failed_share(phase), 0.0)


class SelfTime(unittest.TestCase):
    # update [0,100): apply [0,60) with compile [10,30) and install [30,35),
    # adopt [60,90) with migrate [70,80), first packet [90,99).
    SPANS = {
        0: span("update", 0, 100),
        1: span("controller.apply", 0, 60, parent=0),
        2: span("tofino.compile", 10, 30, parent=1),
        3: span("controller.install", 30, 35, parent=1),
        4: span("epoch.adopt", 60, 90, parent=0),
        5: span("flay.migrate", 70, 80, parent=4),
        6: span("sim.first_packet", 90, 99, parent=0),
    }

    def test_self_time_subtracts_children(self):
        s = stats.self_times(self.SPANS)
        self.assertEqual(s[0], 1)   # 100 - (60 + 30 + 9)
        self.assertEqual(s[1], 35)  # 60 - 20 - 5
        self.assertEqual(s[4], 20)
        self.assertEqual(s[2], 20)  # a leaf is all self time

    def test_overlapping_children_count_once(self):
        spans = {0: span("a", 0, 10), 1: span("b", 2, 6, parent=0),
                 2: span("c", 4, 8, parent=0), 3: span("d", 9, 20, parent=0)}
        self.assertEqual(stats.self_times(spans)[0], 10 - 6 - 1)

    def test_critical_path_coverage(self):
        cov = stats.critical_path_coverage(self.SPANS)
        self.assertAlmostEqual(cov[1], 0.99)

    def test_layer_summary(self):
        layers = stats.layer_summary(self.SPANS)
        self.assertEqual(layers["controller.apply"]["self_p50"], 35)
        self.assertEqual(layers["update"]["n"], 1)

    def test_chrome_trace_round_trip(self):
        trace = {"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {}},
            {"name": "update", "ph": "X", "pid": 1, "tid": 1, "ts": 1.5,
             "dur": 2.25, "args": {"span": 0, "parent": -1, "update": 7,
                                   "critical": True}},
        ]}
        s = stats.spans_from_trace(trace)
        self.assertEqual(s[0]["start"], 1500)
        self.assertEqual(s[0]["end"], 3750)
        self.assertEqual(s[0]["update"], 7)


class Compare(unittest.TestCase):
    def test_regression_beyond_bound(self):
        v, _ = compare.verdict([100] * 10, [120] * 10, 0.1, "lower")
        self.assertEqual(v, "regression")

    def test_wide_spread_is_unresolved(self):
        base = [80, 90, 100, 110, 120, 80, 90, 100, 110, 120]
        new = [x + 1 for x in base]
        self.assertEqual(compare.verdict(base, new, 0.1, "lower")[0], "unresolved")
        # A median worse by more than the bound is still only unresolved
        # while the runs overlap.
        worse = [x + 15 for x in base]
        self.assertEqual(compare.verdict(base, worse, 0.1, "lower")[0], "unresolved")

    def test_wide_spread_without_overlap_is_decided(self):
        base = [80, 90, 100, 110, 120, 80, 90, 100, 110, 120]
        worse = [x + 50 for x in base]
        self.assertEqual(compare.verdict(base, worse, 0.1, "lower")[0], "regression")
        self.assertEqual(compare.verdict(worse, base, 0.1, "lower")[0], "improved")

    def test_incorrect_runs_are_counted_not_compared(self):
        def line(correct, failed, value):
            return json.dumps({"workload": "w", "seed": 1, "trace": 0,
                               "correct": correct, "attempted": 100,
                               "failed": failed,
                               "metrics": {"m": {"value": value, "unit": "s"}}})
        base = compare.load([line(True, 0, 1.0), line(True, 0, 1.1)])
        new = compare.load([line(True, 0, 0.5), line(False, 3, 0.1)])
        self.assertEqual(new["w"]["metrics"]["m"], [0.5])
        self.assertEqual((new["w"]["runs"], new["w"]["incorrect"]), (2, 1))
        problems = compare.correctness_problems(base, new)
        self.assertEqual(len(problems), 2)  # an incorrect run; failures rose
        self.assertEqual(compare.correctness_problems(base, base), [])

    def test_steady_gain_is_improved(self):
        base = [100, 101, 99, 100, 100, 101, 99, 100, 100, 101]
        new = [90 + x % 2 for x in range(10)]
        self.assertEqual(compare.verdict(base, new, 0.1, "lower")[0], "improved")
        self.assertEqual(compare.verdict(base, base, 0.1, "lower")[0], "same")


class GeneratorDeterminism(unittest.TestCase):
    """Same seed: identical stream, shape, counts and final state digest.
    Another seed: a different stream."""

    UPDATES = 60

    @classmethod
    def setUpClass(cls):
        run.build()

    def shape(self, workload, seed):
        raw, _ = run.run_driver(workload, seed, 1, 0, updates=self.UPDATES)
        p = raw["untraced"]
        self.assertEqual(p["updates"], self.UPDATES)
        self.assertEqual(p["failed_updates"] + p["failed_packets"], 0)
        return (p["shape"], p["recompiles"], p["counters"], p["digest"],
                raw["bulk"]["updates"])

    def test_same_seed_same_stream(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.shape(workload, 3)
                self.assertEqual(a, self.shape(workload, 3))
                self.assertNotEqual(a[3], self.shape(workload, 4)[3])


if __name__ == "__main__":
    unittest.main()
