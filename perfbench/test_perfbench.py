#!/usr/bin/env python3
"""Smoke tests of the perfbench benchmark.

Run from the repository root (builds the benchmark on first use, then takes
about two minutes):

    python3 perfbench/test_perfbench.py

Every workload of BENCHMARK.json runs at a short length in both modes; the
result must be correct and carry every metric the mode names, finite and
with its declared unit. The correctness checks must fail when a
deliberately different model scores the comparison sample.
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source tree clean

import compare  # noqa: E402

SMOKE_SECONDS = "2"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SMOKE_SECONDS, "--trace", str(trace)]
        + list(extra),
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class SmokeTest(unittest.TestCase):
    def check_mode(self, trace):
        expected = BENCH["per_layer" if trace else "end_to_end"]
        for workload in (w["name"] for w in BENCH["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                proc, result = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-2000:])
                self.assertIsNotNone(result)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
                for metric in expected:
                    value = result["metrics"][metric["name"]]
                    self.assertTrue(math.isfinite(value["value"]), metric["name"])
                    self.assertEqual(value["unit"], metric["unit"], metric["name"])
                    if not trace:
                        self.assertGreater(value["value"], 0, metric["name"])
                if not trace:
                    # Every set-up ran, so the scan workloads' fit-determinism
                    # check compared several fits.
                    setups = re.search(r"setup_s per set-up:((?: \S+)+)", proc.stdout)
                    self.assertIsNotNone(setups, proc.stdout[-3000:])
                    self.assertEqual(len(setups.group(1).split()), 3)

    def test_end_to_end_metrics(self):
        self.check_mode(0)

    def test_per_layer_metrics(self):
        self.check_mode(1)

    def test_different_reference_model_fails_the_checks(self):
        for workload in ("scan_amp_unique", "train_amp_mskcfg"):
            with self.subTest(workload=workload):
                proc, result = run(workload, 0, "--reference-seed-offset", "1")
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn("CHECK FAILED", proc.stdout)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_unknown_workload_is_refused(self):
        proc, result = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


class CompareRuleTest(unittest.TestCase):
    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr(self):
        parent = [100.0 + i for i in range(10)]
        change = [120.0 + i for i in range(10)]
        verdict = compare.judge(parent, change, "higher", 0.1)["verdict"]
        self.assertIn("GAIN", verdict)
        self.assertIn("within bound", verdict)

    def test_regression_beyond_the_bound(self):
        parent = [100.0 + 0.1 * i for i in range(10)]
        change = [80.0 + 0.1 * i for i in range(10)]
        self.assertIn("REGRESSION", compare.judge(parent, change, "higher", 0.1)["verdict"])

    def test_noisy_metric_is_unresolved(self):
        parent = [100.0, 150.0, 60.0, 130.0, 80.0, 120.0, 90.0, 140.0, 70.0, 110.0]
        change = list(reversed(parent))
        self.assertIn("unresolved", compare.judge(parent, change, "lower", 0.1)["verdict"])

    def test_failed_frac_compares_shares_not_counts(self):
        def write_set(folder, attempted, failed):
            os.makedirs(folder)
            for seed in range(10):
                result = {"correct": True, "attempted": attempted, "failed": failed,
                          "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
                with open(os.path.join(folder, "w-%d.log" % seed), "w") as f:
                    f.write(json.dumps(result) + "\n")

        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            # Twice the requests at the same failure share is no worse.
            write_set(os.path.join(tmp, "p1"), 100, 1)
            write_set(os.path.join(tmp, "c1"), 200, 2)
            self.assertEqual(compare.compare(os.path.join(tmp, "p1"), os.path.join(tmp, "c1"),
                                             os.path.join(ROOT, "BENCHMARK.json")), 0)
            write_set(os.path.join(tmp, "c2"), 100, 2)
            self.assertEqual(compare.compare(os.path.join(tmp, "p1"), os.path.join(tmp, "c2"),
                                             os.path.join(ROOT, "BENCHMARK.json")), 1)

    def test_few_pairs_make_no_claim(self):
        verdict = compare.judge([1.0, 1.1], [2.0, 2.1], "higher", None)["verdict"]
        self.assertEqual(verdict, "too few pairs")


if __name__ == "__main__":
    unittest.main(verbosity=2)
