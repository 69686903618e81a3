#!/usr/bin/env python3
"""Unit tests for the timing-field classification of check_bench_regression.py.

Run from the repository root:

    python3 scripts/test_check_bench_regression.py
"""

import importlib.util
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


if __name__ == "__main__":
    unittest.main()
