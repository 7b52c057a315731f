#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 e2ebench/test_bench.py            # from the repo root

Builds the benchmark on first use (see run.py) and runs short runs of
every workload: every named metric must be present, finite and carry
its unit; the exact counts must repeat for a seed and move with
another; a held-out seed must run end to end; and a directory holding
only the benchmark (no library sources) must fail without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts the library makes, not times: identical for a seed.
EXACT = ["core.mac_reuse_frac", "core.input_similarity",
         "core.first_exec_frac", "core.state_bytes", "out_rel_err_max"]


def run(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=900, check=False)
    return proc


def result(proc):
    lines = proc.stdout.decode().strip().splitlines()
    assert lines, proc.stderr.decode()[-2000:]
    return json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, res, wanted):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual([m["name"] for m in wanted], list(res["metrics"]))
        for m in wanted:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_metrics_present(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                proc = run(wl, 1, 0)
                self.assertEqual(proc.returncode, 0,
                                 proc.stderr.decode()[-2000:])
                res = result(proc)
                self.check_metrics(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_per_layer_metrics_present(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                proc = run(wl, 1, 1)
                self.assertEqual(proc.returncode, 0,
                                 proc.stderr.decode()[-2000:])
                self.check_metrics(result(proc), SPEC["per_layer"])

    def test_exact_counts_repeat_and_follow_seed(self):
        for wl in ("kaldi-stream", "eesen-seq"):
            with self.subTest(workload=wl):
                a = result(run(wl, 5, 1))["metrics"]
                b = result(run(wl, 5, 1))["metrics"]
                c = result(run(wl, 6, 1))["metrics"]
                for name in EXACT:
                    self.assertEqual(a[name]["value"], b[name]["value"],
                                     name)
                moved = [n for n in EXACT
                         if a[n]["value"] != c[n]["value"]]
                self.assertIn("core.mac_reuse_frac", moved)

    def test_held_out_seed(self):
        proc = run("kaldi-stream", 987654321, 0)
        self.assertEqual(proc.returncode, 0, proc.stderr.decode()[-2000:])
        self.assertTrue(result(proc)["correct"])

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("kaldi-stream", 1, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.decode().strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
