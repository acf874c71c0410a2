#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # about two minutes
    python3 perfbench/test_perfbench.py --guard    # also builds a Debug tree

Checks that the simulated-statistics digest is identical across two runs
with one seed and between 1 and 2 workers (serve_mixed) or shards
(power_mc); that every run reports zero failed operations and the
metrics BENCHMARK.json declares; and that run.py fails without printing
a result in a directory that holds only BENCHMARK.json and perfbench/.
With --guard it also checks that a build with asserts enabled is refused.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7


def bench(workload, seed=SEED, seconds=2, trace=0, extra=()):
    """Runs one workload through run.py; returns (result, digest)."""
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    digest = next(json.loads(l[len("digest: "):]) for l in lines
                  if l.startswith("digest: "))
    return json.loads(lines[-1]), digest


class Digest(unittest.TestCase):
    def check_run(self, result, trace=0):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            declared = json.load(f)["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})

    def test_serve_mixed_repeats_and_ignores_workers(self):
        a, da = bench("serve_mixed", extra=("--workers", "2"))
        b, db = bench("serve_mixed", extra=("--workers", "2"))
        c, dc = bench("serve_mixed", extra=("--workers", "1"))
        for r in (a, b, c):
            self.check_run(r)
        self.assertEqual(da, db)
        self.assertEqual(da, dc)

    def test_power_mc_repeats_and_ignores_shards(self):
        a, da = bench("power_mc", extra=("--shards", "2"))
        b, db = bench("power_mc", extra=("--shards", "2"))
        c, dc = bench("power_mc", extra=("--shards", "1"))
        for r in (a, b, c):
            self.check_run(r)
        self.assertEqual(da, db)
        self.assertEqual(da, dc)

    def test_batch_workloads_repeat(self):
        for workload in ("fault_campaign", "opt_flow"):
            a, da = bench(workload)
            b, db = bench(workload)
            self.check_run(a)
            self.check_run(b)
            self.assertEqual(da, db, workload)

    def test_seed_changes_inputs(self):
        _, da = bench("serve_mixed", seed=SEED)
        _, db = bench("serve_mixed", seed=SEED + 1)
        self.assertNotEqual(da["checksum"], db["checksum"])

    def test_traced_run_reports_per_layer_metrics(self):
        result, _ = bench("power_mc", trace=1)
        self.check_run(result, trace=1)
        self.assertGreater(result["metrics"]["sim_event.events.fp64"]["value"],
                           0)


class Contract(unittest.TestCase):
    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_empty") as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "power_mc",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


class Guard(unittest.TestCase):
    """Builds the benchmark with asserts enabled; it must refuse to run."""

    def test_debug_build_is_refused(self):
        build = os.path.join(ROOT, ".bench_build-debug")
        subprocess.run(["cmake", "-S", HERE, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Debug"], check=True,
                       stdout=subprocess.DEVNULL, timeout=600)
        subprocess.run(["cmake", "--build", build, "-j", "4"], check=True,
                       stdout=subprocess.DEVNULL, timeout=1800)
        out = subprocess.run(
            [os.path.join(build, "perfbench"), "--workload", "power_mc",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180)
        self.assertEqual(out.returncode, 3)
        self.assertEqual(out.stdout, "")
        self.assertIn("asserts are enabled", out.stderr)


if __name__ == "__main__":
    guard = "--guard" in sys.argv
    if guard:
        sys.argv.remove("--guard")
    suite = unittest.TestSuite()
    loader = unittest.TestLoader()
    for case in (Digest, Contract) + ((Guard,) if guard else ()):
        suite.addTests(loader.loadTestsFromTestCase(case))
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    sys.exit(0 if ok else 1)
