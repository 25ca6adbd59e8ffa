#!/usr/bin/env python3
"""Tests for compare.py: one fixture per verdict, a slowdown of one part,
and the exact per-layer comparison.

    python3 bench/perf/compare_test.py [PATH_TO_TFR_PERF]

Given the tfr_perf binary, also checks that BENCHMARK.json declares
exactly the workloads and metrics tfr_perf reports.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

TFR_PERF = (sys.argv.pop(1)
            if len(sys.argv) > 1 and not sys.argv[1].startswith("-")
            else None)

BENCHMARK = {
    "workloads": [{"name": "w", "why": "fixture"}],
    "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.10},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "service.batches", "unit": "count", "better": "lower"},
        {"name": "service.latency_p999_delta", "unit": "delta",
         "better": "lower"},
        {"name": "sim.access_ns", "unit": "ns", "better": "lower"},
    ],
}

STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
NOISY = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]


def write_record(directory, run, record):
    path = os.path.join(directory, f"run{run:02d}")
    os.makedirs(path, exist_ok=True)
    name = "w.trace.result.json" if record["mode"] == "trace" else \
        "w.result.json"
    with open(os.path.join(path, name), "w") as f:
        json.dump(record, f)


def write_runs(directory, throughput, setup, parts=None):
    """One end-to-end record per run; `parts` maps a part name to one value
    per run, and the throughput then is their geometric mean."""
    for i, (t, s) in enumerate(zip(throughput, setup)):
        metric = {"value": t, "unit": "1/s"}
        if parts:
            values = {p: v[i] for p, v in parts.items()}
            metric["parts"] = values
            metric["value"] = math.prod(values.values()) ** (1 / len(values))
        write_record(directory, i, {
            "schema": "tfr-perf-v1", "workload": "w", "mode": "end_to_end",
            "metrics": {"throughput_per_s": metric,
                        "setup_s": {"value": s, "unit": "s"}},
        })


def write_traced(directory, batches, latency):
    write_record(directory, 0, {
        "schema": "tfr-perf-v1", "workload": "w", "mode": "trace",
        "seed": 1,
        "metrics": {
            "service.batches": {"value": batches, "unit": "count",
                                "exact": True},
            "service.latency_p999_delta": {"value": latency,
                                           "unit": "delta", "exact": True},
            "sim.access_ns": {"value": 30.0 + latency, "unit": "ns"},
        },
    })


def verdicts(parent_throughput, change_throughput, parent_setup=None,
             change_setup=None):
    with tempfile.TemporaryDirectory() as parent, \
            tempfile.TemporaryDirectory() as change:
        write_runs(parent, parent_throughput, parent_setup or STEADY)
        write_runs(change, change_throughput, change_setup or STEADY)
        rows = compare.compare(parent, change, BENCHMARK)
    return {name: v for _, name, _, _, _, v in rows}


class VerdictTest(unittest.TestCase):
    def test_improved(self):
        change = [v * 1.2 for v in STEADY]
        self.assertEqual(verdicts(STEADY, change)["throughput_per_s"],
                         "improved")

    def test_regressed(self):
        change = [v * 0.8 for v in STEADY]
        self.assertEqual(verdicts(STEADY, change)["throughput_per_s"],
                         "regressed")

    def test_lower_is_better_regresses_upward(self):
        slower_setup = [v * 1.5 for v in STEADY]
        got = verdicts(STEADY, STEADY, STEADY, slower_setup)
        self.assertEqual(got["setup_s"], "regressed")
        self.assertEqual(got["throughput_per_s"], "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self):
        change = list(reversed(NOISY))
        self.assertEqual(verdicts(NOISY, change)["throughput_per_s"],
                         "unresolved")

    def test_unchanged_within_bound(self):
        change = [v * (1.01 if i % 2 else 0.99) for i, v in enumerate(STEADY)]
        self.assertEqual(verdicts(STEADY, change)["throughput_per_s"],
                         "unchanged")

    def test_ties_count_for_neither_side(self):
        # Nine ties and one win is a 0.1 win fraction, not an improvement.
        change = list(STEADY)
        change[0] += 50
        with tempfile.TemporaryDirectory() as parent, \
                tempfile.TemporaryDirectory() as changed:
            write_runs(parent, STEADY, STEADY)
            write_runs(changed, change, STEADY)
            rows = compare.compare(parent, changed, BENCHMARK)
        win_frac, v = rows[0][4], rows[0][5]
        self.assertAlmostEqual(win_frac, 0.1)
        self.assertEqual(v, "unchanged")

    def test_missing_side(self):
        with tempfile.TemporaryDirectory() as parent, \
                tempfile.TemporaryDirectory() as change:
            write_runs(parent, STEADY, STEADY)
            rows = compare.compare(parent, change, BENCHMARK)
        self.assertEqual({r[5] for r in rows}, {"missing"})


class PartTest(unittest.TestCase):
    def test_one_slow_part_regresses_inside_the_metric_bound(self):
        # One part of four at 0.7x moves the geometric mean by only ~8.5%,
        # inside the 10% bound; the part's own row regresses.
        parts = {p: STEADY for p in "abcd"}
        slowed = dict(parts, c=[v * 0.7 for v in STEADY])
        with tempfile.TemporaryDirectory() as parent, \
                tempfile.TemporaryDirectory() as change:
            write_runs(parent, STEADY, STEADY, parts)
            write_runs(change, STEADY, STEADY, slowed)
            rows = compare.compare(parent, change, BENCHMARK)
        got = {label: v for _, label, _, _, _, v in rows}
        self.assertEqual(got["throughput_per_s"], "unchanged")
        self.assertEqual(got["throughput_per_s[c]"], "regressed")
        self.assertEqual(got["throughput_per_s[a]"], "unchanged")


class ExactTest(unittest.TestCase):
    def exact_rows(self, parent_values, change_values):
        with tempfile.TemporaryDirectory() as parent, \
                tempfile.TemporaryDirectory() as change:
            write_traced(parent, *parent_values)
            write_traced(change, *change_values)
            return compare.compare_exact(parent, change, BENCHMARK)

    def test_identical_counts_give_no_rows(self):
        rows, compared = self.exact_rows((162, 70.9), (162, 70.9))
        self.assertEqual(rows, [])
        self.assertEqual(compared, 2)  # sim.access_ns is not exact

    def test_a_count_moving_either_way_is_listed(self):
        rows, _ = self.exact_rows((162, 70.9), (150, 71.0))
        got = {name: v for _, _, name, _, _, v in rows}
        self.assertEqual(got, {"service.batches": "improved",
                               "service.latency_p999_delta": "regressed"})


@unittest.skipIf(TFR_PERF is None, "no tfr_perf binary given")
class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_tfr_perf(self):
        listed = json.loads(subprocess.run(
            [TFR_PERF, "--list"], capture_output=True, text=True,
            check=True).stdout)
        with open(compare.DEFAULT_BENCHMARK) as f:
            declared = json.load(f)
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         [w["name"] for w in listed["workloads"]])
        for table in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in declared[table]],
                [(m["name"], m["unit"]) for m in listed[table]], table)


if __name__ == "__main__":
    unittest.main()
