#!/usr/bin/env python3
"""Tests for the bench-regression gate, bench/check_regression.py.

Each case writes synthetic BENCH files (the one schema of
bench/bench_common.h) into a private temp directory and runs the gate as
CI does, checking its exit status. Run directly or through ctest
(`ctest -R check_regression_test`).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                    "bench", "check_regression.py")

BASELINE = {
    "calibration_seconds": 0.03,
    "kernels": {"alpha": 0.040, "beta": 0.010, "gamma": 0.200},
}


def bench_file(calibration, kernels):
    return {"calibration_seconds": calibration, "kernels": kernels,
            "info": {"simd_level": "avx2", "sweep_groups": 50000}}


class CheckRegressionTest(unittest.TestCase):

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory(prefix="rvar_gate_test_")
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def gate(self, *currents, baseline=BASELINE):
        """Runs the gate on the given current docs; returns (code, output)."""
        args = [sys.executable, GATE,
                "--baseline", self.write("baseline.json", baseline),
                "--tolerance", "0.25"]
        for i, doc in enumerate(currents):
            args += ["--current", self.write(f"BENCH_{i}.json", doc)]
        result = subprocess.run(args, capture_output=True, text=True)
        return result.returncode, result.stdout + result.stderr

    def assertPasses(self, *currents):
        code, output = self.gate(*currents)
        self.assertEqual(code, 0, output)
        self.assertIn("gate passed", output)

    def assertFails(self, *currents, message):
        code, output = self.gate(*currents)
        self.assertNotEqual(code, 0, output)
        self.assertIn(message, output)

    def test_equal_inputs_pass(self):
        self.assertPasses(bench_file(0.03, dict(BASELINE["kernels"])))

    def test_kernel_at_1_3x_normalized_fails(self):
        kernels = dict(BASELINE["kernels"], beta=0.013)
        self.assertFails(bench_file(0.03, kernels),
                         message="FAIL: beta is 1.30x")

    def test_kernel_at_1_2x_normalized_passes(self):
        self.assertPasses(bench_file(0.03, dict(BASELINE["kernels"],
                                                beta=0.012)))

    def test_uniformly_2x_slower_machine_passes(self):
        kernels = {k: 2 * v for k, v in BASELINE["kernels"].items()}
        self.assertPasses(bench_file(0.06, kernels))

    def test_slower_kernel_on_2x_slower_machine_fails(self):
        kernels = {k: 2 * v for k, v in BASELINE["kernels"].items()}
        kernels["gamma"] = 2 * 1.3 * BASELINE["kernels"]["gamma"]
        self.assertFails(bench_file(0.06, kernels),
                         message="FAIL: gamma is 1.30x")

    def test_kernel_without_baseline_fails(self):
        kernels = dict(BASELINE["kernels"], delta=0.001)
        self.assertFails(bench_file(0.03, kernels),
                         message="FAIL: delta has no baseline entry")

    def test_baseline_kernel_missing_in_current_passes(self):
        # Each invocation passes only some of the BENCH files.
        self.assertPasses(bench_file(0.03, {"alpha": 0.040}))

    def test_non_positive_time_fails(self):
        for seconds in (0, -0.01):
            with self.subTest(seconds=seconds):
                kernels = dict(BASELINE["kernels"], alpha=seconds)
                self.assertFails(bench_file(0.03, kernels),
                                 message="non-positive time")

    def test_missing_calibration_fails(self):
        doc = bench_file(0.03, dict(BASELINE["kernels"]))
        del doc["calibration_seconds"]
        self.assertFails(doc, message="calibration_seconds")

    def test_non_positive_calibration_fails(self):
        self.assertFails(bench_file(0, dict(BASELINE["kernels"])),
                         message="calibration_seconds")

    def test_kernel_repeated_across_files_fails(self):
        self.assertFails(bench_file(0.03, {"alpha": 0.040, "beta": 0.010}),
                         bench_file(0.03, {"beta": 0.010, "gamma": 0.200}),
                         message="appears in more than one --current file")

    def test_split_files_each_with_own_calibration_pass(self):
        self.assertPasses(bench_file(0.03, {"alpha": 0.040}),
                          bench_file(0.06, {"beta": 0.020, "gamma": 0.400}))


if __name__ == "__main__":
    unittest.main()
