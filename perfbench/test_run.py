#!/usr/bin/env python3
"""The benchmark's own test: every workload at toy size (--tiny).

    python3 perfbench/test_run.py

For each workload it checks that run.py's last line has exactly the result
keys, that every metric BENCHMARK.json names is printed with its unit, that
the traced run exits 0 and passes its correctness gate, and that the exact
counts (unit count or bytes) are identical across two traced runs. Builds
like run.py does, into $CARGO_TARGET_DIR or .bench_build.
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
EXACT_UNITS = ("count", "bytes")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    return proc


class BenchmarkTest(unittest.TestCase):
    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for m in names:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"],
                             m["name"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        return result["metrics"]

    def test_workloads(self):
        s = spec()
        for w in (w["name"] for w in s["workloads"]):
            with self.subTest(workload=w):
                e2e = self.check_result(run(w, 0), s["end_to_end"])
                for m in s["end_to_end"]:
                    self.assertGreater(e2e[m["name"]]["value"], 0, m["name"])
                first = self.check_result(run(w, 1), s["per_layer"])
                second = self.check_result(run(w, 1), s["per_layer"])
                exact = {k: v["value"] for k, v in first.items()
                         if v["unit"] in EXACT_UNITS}
                self.assertTrue(exact)
                self.assertEqual(exact, {k: second[k]["value"] for k in exact})

    def test_fails_without_sources(self):
        """In a directory holding only the benchmark, it must fail fast."""
        parent = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
        os.makedirs(parent, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, os.path.basename(HERE)),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "build"))
            proc = subprocess.run(
                [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
                 "--workload", "service_hub", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, env=env, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
