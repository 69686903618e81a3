#!/usr/bin/env python3
"""Unit tests for the timing-field classification of check_bench_regression.py,
its solver/milp_heuristics_* gates and the report shape docs/benchmarks.md
documents.

Run from the repository root:

    python3 scripts/test_check_bench_regression.py
"""

import importlib.util
import json
import os
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression", os.path.join(_HERE, "check_bench_regression.py"))
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)


def case(timing):
    return {"fingerprint": "00", "correctness": {"digest": "ab"},
            "timing": timing}


def diff(base_timing, cur_timing, band=8.0):
    failures, rows = [], []
    checker.diff_case("mc/sla_risk_200", case(base_timing), case(cur_timing),
                      band, failures, rows)
    return failures, {field: status for _, field, _, _, status in rows}


class TimingClassification(unittest.TestCase):
    def test_rate_is_informational(self):
        # Ends in "_sec" but is a rate: never gated, whatever its value.
        self.assertFalse(checker.gated_timing_field("scenarios_per_sec", 1250.0))
        self.assertFalse(checker.gated_timing_field("decisions_per_sec", 5e5))
        failures, status = diff({"scenarios_per_sec": 1000.0},
                                {"scenarios_per_sec": 20000.0})
        self.assertEqual(failures, [])
        self.assertEqual(status["scenarios_per_sec"], "info")

    def test_duration_above_floor_is_gated(self):
        self.assertTrue(checker.gated_timing_field("wall_sec", 0.16))
        self.assertTrue(checker.gated_timing_field("wall_ms", 10.7))
        failures, status = diff({"wall_sec": 0.16}, {"wall_sec": 0.3})
        self.assertEqual(failures, [])
        self.assertEqual(status["wall_sec"], "ok")
        # The band is symmetric: far slower or far faster both fail.
        for cur in (0.16 * 9, 0.16 / 9):
            failures, status = diff({"wall_sec": 0.16}, {"wall_sec": cur})
            self.assertEqual(len(failures), 1)
            self.assertEqual(status["wall_sec"], "FAIL")

    def test_duration_below_floor_is_informational(self):
        self.assertFalse(checker.gated_timing_field("wall_sec", 0.004))
        self.assertFalse(checker.gated_timing_field("wall_ms", 4.9))
        failures, status = diff({"wall_ms": 1.0}, {"wall_ms": 100.0})
        self.assertEqual(failures, [])
        self.assertEqual(status["wall_ms"], "info")

    def test_percentile_is_informational(self):
        self.assertFalse(checker.gated_timing_field("p99_us", 500.0))


def heuristics_failures(**overrides):
    """milp_heuristics_gates on one case shaped like the pinned n2000 entry,
    with `overrides` applied to its correctness fields."""
    cc = {"def_first_incumbent_nodes": 1447,
          "def_gap": 0.00035488222872036344,
          "heur_first_incumbent_nodes": 1447,
          "heur_gap": 0.00035478674841447357,
          "heur_status": "feasible",
          "heuristic_incumbents": 1,
          "strong_probes": 800}
    cc.update(overrides)
    failures = []
    checker.milp_heuristics_gates(
        {"cases": [{"name": "solver/milp_heuristics_n2000",
                    "correctness": cc}]}, failures)
    return failures


class MilpHeuristicsGates(unittest.TestCase):
    def test_pinned_shape_passes(self):
        self.assertEqual(heuristics_failures(), [])

    def test_equal_gap_passes(self):
        gap = 0.00035488222872036344
        self.assertEqual(heuristics_failures(heur_gap=gap, def_gap=gap), [])

    def test_gap_beyond_slack_fails(self):
        gap = 0.00035488222872036344
        failures = heuristics_failures(heur_gap=gap + 2e-6, def_gap=gap)
        self.assertEqual(len(failures), 1)
        self.assertIn("proven gap regressed", failures[0])

    def test_null_default_gap_passes(self):
        # The default rule proved no gap at all: nothing to regress against.
        self.assertEqual(heuristics_failures(def_gap=None,
                                             def_first_incumbent_nodes=-1),
                         [])

    def test_no_heuristic_incumbent_fails(self):
        failures = heuristics_failures(heuristic_incumbents=0)
        self.assertEqual(len(failures), 1)
        self.assertIn("no heuristic incumbent", failures[0])

    def test_later_first_incumbent_fails(self):
        failures = heuristics_failures(heur_first_incumbent_nodes=1448)
        self.assertEqual(len(failures), 1)
        self.assertIn("later than the default rule", failures[0])


class ReportSchema(unittest.TestCase):
    def test_committed_baseline_matches_documented_shape(self):
        # docs/benchmarks.md "Report schema": cases is a list of objects
        # {name, tier, fingerprint, correctness, timing}, with no config key.
        with open(os.path.join(_HERE, os.pardir, "BENCH_10.json")) as f:
            report = json.load(f)
        self.assertEqual(set(report),
                         {"schema_version", "mode", "catalog_fingerprint",
                          "cases"})
        self.assertIsInstance(report["cases"], list)
        self.assertTrue(report["cases"])
        for c in report["cases"]:
            self.assertEqual(set(c), {"name", "tier", "fingerprint",
                                      "correctness", "timing"}, c.get("name"))
            self.assertIn(c["tier"], ("smoke", "full"))
            self.assertIsInstance(c["correctness"], dict)
            self.assertIsInstance(c["timing"], dict)


if __name__ == "__main__":
    unittest.main()
