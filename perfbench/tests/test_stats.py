"""Unit tests for the benchmark's metric rules.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import loadgen  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def record(latency_s, ok=True):
    r = loadgen.Record(0, "hot", 0.0)
    r.start = 0.0
    r.end = latency_s
    if ok:
        r.status = 200
    else:
        r.error = "ConnectionRefusedError: refused"
    return r


class MetricNames(unittest.TestCase):
    def test_grammar(self):
        for good in ["wall_s", "low.hot.p50_ms", "9x", "a-b.c_d",
                     "x" * 64]:
            self.assertTrue(stats.valid_name(good), good)
        for bad in ["", "_x", ".x", "a b", "a/b", "x" * 65, "p50%"]:
            self.assertFalse(stats.valid_name(bad), bad)
        for good in ["ms", "s", "1/s", "count", "%", "Minsn/s"]:
            self.assertTrue(stats.valid_unit(good), good)
        for bad in ["", "m s", "x" * 17]:
            self.assertFalse(stats.valid_unit(bad), bad)

    def test_benchmark_json_names(self):
        with open(SPEC) as f:
            spec = json.load(f)
        names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
                 for m in spec[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(stats.valid_name(n), n)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(stats.valid_unit(m["unit"]), m["unit"])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        for n in run.CLIENT_LAYERS:
            self.assertIn(n, names)


class TailRule(unittest.TestCase):
    def test_rank_leaves_ten_beyond(self):
        for n in (11, 26, 39, 180, 200, 1000):
            rank = stats.tail_rank(n)
            self.assertEqual(n - rank, stats.TAIL_BEYOND)
        self.assertIsNone(stats.tail_rank(10))

    def test_percentile_labels(self):
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(26), 61)
        self.assertIsNone(stats.tail_percentile(5))

    def test_tail_value(self):
        values = list(range(1, 201))
        self.assertEqual(stats.tail(values), 190)
        self.assertEqual(sum(1 for v in values if v > stats.tail(values)), 10)
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 10)

    def test_windowed_tail(self):
        # three windows of 20 with tails 10, 30 and 50; the partial
        # fourth window is left out
        values = list(range(1, 21)) + list(range(21, 41)) + \
            list(range(41, 61)) + [1000] * 5
        self.assertEqual(stats.windowed_tail(values, 20), 30)


class Failures(unittest.TestCase):
    def test_failed_request_misses_every_limit(self):
        rs = [record(0.001) for _ in range(30)] + [record(0.001, ok=False)]
        lat = stats.latencies(rs)
        self.assertEqual(lat[-1], math.inf)
        self.assertAlmostEqual(stats.slo_share(rs, 1e9), 30 / 31)

    def test_non_200_is_a_failure(self):
        r = record(0.001)
        r.status = 503
        self.assertFalse(r.ok)
        self.assertEqual(stats.slo_share([r], 10.0), 0.0)

    def test_failures_push_the_tail(self):
        rs = [record(0.001) for _ in range(100)]
        rs += [record(0.001, ok=False) for _ in range(11)]
        self.assertEqual(stats.tail(stats.latencies(rs)), math.inf)
        self.assertEqual(stats.p50(stats.latencies(rs)), 0.001)


class CpuTimes(unittest.TestCase):
    def test_failed_request_is_infinitely_expensive(self):
        ok = record(0.004)
        ok.cpu_s = 0.003
        bad = record(0.004, ok=False)
        bad.cpu_s = 0.001
        self.assertEqual(stats.cpu_times([ok, bad]), [0.003, math.inf])


class Calibration(unittest.TestCase):
    def test_each_step_scaled_by_the_rounds_around_it(self):
        rounds = iter([[0.05] * 2, [0.10] * 2, [0.20, 0.05]])
        out = run.calibrated(lambda: next(rounds), [lambda: "a", lambda: "b"])
        self.assertEqual([v for v, _ in out], ["a", "b"])
        # medians of the four rounds on either side: 0.075, then 0.1
        self.assertAlmostEqual(out[0][1], run.CALIB_REF_S / 0.075)
        self.assertAlmostEqual(out[1][1], run.CALIB_REF_S / 0.1)


class Classify(unittest.TestCase):
    def test_classes(self):
        self.assertEqual(stats.classify('{"bench":"cmp","rc":true}'), "hot")
        self.assertEqual(stats.classify('{"spec":{"funcs":[]},"issue":4}'),
                         "submit")
        with self.assertRaises(ValueError):
            stats.classify('{"kernel":"k0123"}')


if __name__ == "__main__":
    unittest.main()
