#!/usr/bin/env python3
"""Golden-output regression for the figure benches.

Runs a figure bench in quick mode (BC_QUICK=1) inside a scratch directory
that also takes its plot and JSON files, and compares its stdout byte for
byte against a committed golden file. The simulations are deterministic,
so any difference is a change in behaviour: a mismatch prints a unified
diff and fails.

The other BC_* variables are cleared, so a developer's BC_THREADS,
BC_PROFILE or BC_METRICS_OUT cannot change what the bench prints.

Usage:
  check_golden.py <figure-bench> <golden-file>           compare
  check_golden.py <figure-bench> <golden-file> --update  re-baseline

Use --update only for an intended change of outputs, and say in the change
why the numbers moved.
"""

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_bench(bench):
    env = {k: v for k, v in os.environ.items() if not k.startswith("BC_")}
    env["BC_QUICK"] = "1"
    with tempfile.TemporaryDirectory() as tmpdir:
        proc = subprocess.run([str(bench)], env=env, cwd=tmpdir,
                              capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {bench.name} exited {proc.returncode}\n"
                 f"{proc.stdout}{proc.stderr}")
    return proc.stdout


def main():
    args = sys.argv[1:]
    update = "--update" in args
    args = [a for a in args if a != "--update"]
    if len(args) != 2:
        sys.exit("usage: check_golden.py <figure-bench> <golden-file> "
                 "[--update]")
    bench = Path(args[0]).resolve()
    golden = Path(args[1])
    actual = run_bench(bench)
    if update:
        golden.write_text(actual, encoding="utf-8")
        print(f"updated {golden} ({len(actual.splitlines())} lines)")
        return
    expected = golden.read_text(encoding="utf-8")
    if actual == expected:
        print(f"OK: {bench.name} matches {golden.name} "
              f"({len(actual.splitlines())} lines)")
        return
    diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                actual.splitlines(keepends=True),
                                fromfile=f"golden/{golden.name}",
                                tofile=f"{bench.name} (BC_QUICK=1)")
    sys.stdout.writelines(diff)
    sys.exit(f"FAIL: {bench.name} output differs from {golden.name}")


if __name__ == "__main__":
    main()
