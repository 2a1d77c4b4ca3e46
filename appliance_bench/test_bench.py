#!/usr/bin/env python3
"""Tests of the appliance benchmark itself, on its smoke-size inputs.

Run from the root of the repository (builds on first use):

    python3 appliance_bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("local_read", "scaleout_read", "serve_mixed")

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    command = [sys.executable, script, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command + list(extra), cwd=cwd, text=True,
                          capture_output=True, timeout=900)


def result_of(process):
    return json.loads(process.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, section):
        process = run(workload, trace)
        self.assertEqual(process.returncode, 0, process.stderr)
        result = result_of(process)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        return result

    def test_every_workload_reports_its_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check_run(workload, 0, "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.check_run(workload, 1, "per_layer")

    def test_same_seed_issues_the_same_operations(self):
        first = result_of(run("serve_mixed", 0))
        second = result_of(run("serve_mixed", 0))
        self.assertEqual(first["attempted"], second["attempted"])

    def test_wrong_answer_is_a_counted_failure(self):
        for workload in ("local_read", "serve_mixed"):
            with self.subTest(workload=workload):
                process = run(workload, 0, "--tamper")
                self.assertNotEqual(process.returncode, 0)
                result = result_of(process)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_fails_without_the_appliance_sources(self):
        build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bare = os.path.join(ROOT, build_dir, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "appliance_bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            process = run("local_read", 0, cwd=bare,
                          script=os.path.join(bare, "appliance_bench",
                                              "run.py"))
            self.assertNotEqual(process.returncode, 0)
            self.assertEqual(process.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
