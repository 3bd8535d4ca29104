#!/usr/bin/env python3
"""Tests for tools/check_perf.py's regression gate on synthetic JSONs.

Usage: check_perf_test.py PATH/TO/check_perf.py

Each case writes ext_scale-shaped JSON files into a temporary
directory, runs the gate on them and checks its exit status: a pass,
a fail, and repeats whose median decides the verdict either way.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_PERF = None

# Baseline QoServe/FCFS ratio 1.5 at r1; the 20% limit is then 1.8.
BASE_FCFS_NS = 200.0
BASE_QOSERVE_NS = 300.0


def scale_doc(qoserve_ns, fcfs_ns=BASE_FCFS_NS, scale=1):
    runs = [
        {"label": f"Sarathi-FCFS/r{scale}", "qps": 2, "wall_s": 0.1,
         "requests": 100, "events": 1000, "ns_per_event": fcfs_ns},
        {"label": f"QoServe/r{scale}", "qps": 2, "wall_s": 0.1,
         "requests": 100, "events": 1000, "ns_per_event": qoserve_ns},
    ]
    return {"bench": "ext_scale", "runs": runs}


class RegressionGate(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.baseline = self.write("base.json", scale_doc(BASE_QOSERVE_NS))

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, ratios, **kw):
        """Exit status of the gate on one NEW file per ratio."""
        news = [self.write(f"new{i}.json",
                           scale_doc(r * BASE_FCFS_NS, **kw))
                for i, r in enumerate(ratios)]
        proc = subprocess.run(
            [sys.executable, CHECK_PERF, "regression", *news,
             self.baseline, "--tolerance", "0.2"],
            capture_output=True, text=True)
        return proc.returncode

    def test_ratio_within_tolerance_passes(self):
        self.assertEqual(self.gate([1.7]), 0)

    def test_ratio_beyond_tolerance_fails(self):
        self.assertNotEqual(self.gate([1.9]), 0)

    def test_median_passes_over_one_slow_repeat(self):
        # The first repeat alone would fail; the median (1.7) passes.
        self.assertNotEqual(self.gate([2.0]), 0)
        self.assertEqual(self.gate([2.0, 1.6, 1.7]), 0)

    def test_median_fails_despite_one_fast_repeat(self):
        # One repeat alone would pass; the median (1.9) fails.
        self.assertEqual(self.gate([1.6]), 0)
        self.assertNotEqual(self.gate([1.6, 1.9, 2.0]), 0)

    def test_scale_missing_from_baseline_is_skipped(self):
        self.assertEqual(self.gate([3.0], scale=4), 0)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    CHECK_PERF = sys.argv.pop(1)
    unittest.main()
