#!/usr/bin/env python3
"""Checks tools/bench_compare.py's verdicts on two fixture run sets
(tests/data/bench_{parent,change}.json): 10 snb_serve pairs where the change
halves peak RSS, and 3 snb_spill pairs where it costs 31% more CPU and
fails one operation."""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(HERE), "tools", "bench_compare.py")
PARENT = os.path.join(HERE, "data", "bench_parent.json")
CHANGE = os.path.join(HERE, "data", "bench_change.json")


def run(*args):
    done = subprocess.run([sys.executable, TOOL] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    return done.returncode, done.stdout


def verdicts(report):
    """(workload, metric) -> verdict, from the report's rows."""
    out = {}
    workload = None
    for line in report.splitlines():
        if not line.startswith(" "):
            workload = line.split(":")[0]
        elif not line.split()[0] == "metric":
            out[(workload, line.split()[0])] = line.split()[-1]
    return out


class BenchCompareTest(unittest.TestCase):
    def test_verdicts(self):
        code, report = run(PARENT, CHANGE)
        self.assertEqual(code, 1, report)  # the spill regression
        v = verdicts(report)
        self.assertEqual(v[("snb_serve", "peak_rss_mb")], "gain")
        self.assertEqual(v[("snb_serve", "setup_s")], "flat")
        self.assertEqual(v[("snb_serve", "failed_share")], "ok")
        self.assertEqual(v[("snb_spill", "cpu_ms_per_request")], "worse")
        self.assertEqual(v[("snb_spill", "failed_share")], "worse")
        self.assertIn("snb_serve: 10 pairs", report)
        self.assertIn("10/10", report)

    def test_one_file_holding_both_sides(self):
        with open(PARENT) as p, open(CHANGE) as c:
            bench = {"parent": json.load(p), "change": json.load(c)}
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(bench, f)
        try:
            self.assertEqual(run(f.name), run(PARENT, CHANGE))
        finally:
            os.unlink(f.name)

    def test_identical_sides_are_flat(self):
        code, report = run(PARENT, PARENT)
        self.assertEqual(code, 0, report)
        self.assertNotIn("worse", report)
        self.assertNotIn("gain", report)


if __name__ == "__main__":
    unittest.main()
