#!/usr/bin/env python3
"""Unit tests for the bench-regression gate (scripts/check_bench.py).

Covers run_check() band boundaries for every check kind (min_ratio
tolerance bars, min collapse floors, max ceilings, equals invariants),
missing-metric and unknown-kind failure paths, and dotted-path lookup()
nesting. Run directly or via ctest (test_check_bench).
"""

import importlib.util
import os
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench.py"))
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


class LookupTest(unittest.TestCase):
    def test_flat_key(self):
        self.assertEqual(check_bench.lookup({"a": 3}, "a"), 3)

    def test_nested_path(self):
        self.assertEqual(check_bench.lookup({"a": {"b": {"c": 7}}}, "a.b.c"), 7)

    def test_missing_key_returns_none(self):
        self.assertIsNone(check_bench.lookup({"a": 1}, "b"))

    def test_descending_into_scalar_returns_none(self):
        self.assertIsNone(check_bench.lookup({"a": 5}, "a.b"))


class MinRatioTest(unittest.TestCase):
    def check(self, value, baseline=10.0, tolerance=None):
        spec = {"metric": "m", "kind": "min_ratio", "baseline": baseline}
        if tolerance is not None:
            spec["tolerance"] = tolerance
        passed, detail, got = check_bench.run_check(spec, {"m": value})
        self.assertEqual(got, value, detail)
        return passed

    def test_value_at_baseline_passes(self):
        self.assertTrue(self.check(10.0))

    def test_value_above_baseline_passes(self):
        self.assertTrue(self.check(15.0))

    def test_default_tolerance_band_is_15_percent(self):
        self.assertTrue(self.check(8.5))     # exactly at the bar
        self.assertFalse(self.check(8.49))   # just below

    def test_explicit_tolerance_overrides_default(self):
        self.assertTrue(self.check(9.5, tolerance=0.05))
        self.assertFalse(self.check(9.49, tolerance=0.05))

    def test_zero_baseline_passes_nonnegative_value(self):
        # bar = 0: any value >= 0 passes, no division by zero in the delta.
        self.assertTrue(self.check(0.0, baseline=0.0))


class MinFloorTest(unittest.TestCase):
    def check(self, value, floor):
        spec = {"metric": "m", "kind": "min", "floor": floor}
        passed, _, _ = check_bench.run_check(spec, {"m": value})
        return passed

    def test_collapse_floor_boundaries(self):
        self.assertTrue(self.check(200000, 200000))
        self.assertTrue(self.check(200001, 200000))
        self.assertFalse(self.check(199999, 200000))


class MaxCeilingTest(unittest.TestCase):
    def check(self, value, ceiling):
        spec = {"metric": "m", "kind": "max", "ceiling": ceiling}
        passed, _, _ = check_bench.run_check(spec, {"m": value})
        return passed

    def test_ceiling_boundaries(self):
        self.assertTrue(self.check(1.5, 1.5))
        self.assertTrue(self.check(0.0, 1.5))
        self.assertFalse(self.check(1.51, 1.5))


class EqualsTest(unittest.TestCase):
    def check(self, value, expected):
        spec = {"metric": "m", "kind": "equals", "expected": expected}
        passed, _, _ = check_bench.run_check(spec, {"m": value})
        return passed

    def test_boolean_invariants(self):
        self.assertTrue(self.check(True, True))
        self.assertFalse(self.check(False, True))

    def test_exact_counts(self):
        self.assertTrue(self.check(48, 48))
        self.assertFalse(self.check(47, 48))


class FailurePathTest(unittest.TestCase):
    def test_missing_metric_fails_with_detail(self):
        spec = {"metric": "absent", "kind": "min", "floor": 1}
        passed, detail, value = check_bench.run_check(spec, {"m": 1})
        self.assertFalse(passed)
        self.assertIn("missing", detail)
        self.assertIsNone(value)

    def test_unknown_kind_fails(self):
        spec = {"metric": "m", "kind": "median"}
        passed, detail, _ = check_bench.run_check(spec, {"m": 1})
        self.assertFalse(passed)
        self.assertIn("unknown", detail)


if __name__ == "__main__":
    unittest.main()
