#!/usr/bin/env python3
"""Golden-output regression for the figure benches.

Runs a figure bench in quick mode (BC_QUICK=1) inside a scratch directory
that also takes its plot and JSON files, and compares its stdout byte for
byte against a committed golden file. The simulations are deterministic,
so any difference is a change in behaviour: a mismatch prints a unified
diff and fails.

With --plots <dir>, every file the bench writes under bench_plots/ must
also equal the committed file of the same name in <dir> (the repository's
bench_plots/ holds the pinned BC_QUICK outputs).

The other BC_* variables are cleared, so a developer's BC_PROFILE or
BC_METRICS_OUT cannot change what the bench prints.

Usage:
  check_golden.py <figure-bench> <golden-file> [--plots <dir>]
      compare
  check_golden.py <figure-bench> <golden-file> [--plots <dir>] --update
      re-baseline the golden file (and the plot files)

Use --update only for an intended change of outputs, and say in the change
why the numbers moved.
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_bench(bench):
    """Returns the bench's stdout and {name: bytes} of its bench_plots/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BC_")}
    env["BC_QUICK"] = "1"
    with tempfile.TemporaryDirectory() as tmpdir:
        proc = subprocess.run([str(bench)], env=env, cwd=tmpdir,
                              capture_output=True, text=True)
        plot_dir = Path(tmpdir) / "bench_plots"
        plots = ({p.name: p.read_bytes() for p in sorted(plot_dir.iterdir())}
                 if plot_dir.is_dir() else {})
    if proc.returncode != 0:
        sys.exit(f"FAIL: {bench.name} exited {proc.returncode}\n"
                 f"{proc.stdout}{proc.stderr}")
    return proc.stdout, plots


def diff_text(expected, actual, expected_name, actual_name):
    return "".join(difflib.unified_diff(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True),
        fromfile=expected_name, tofile=actual_name))


def check_plots(bench, plots, plot_dir):
    """Returns one failure message per plot file that differs."""
    if not plots:
        return [f"{bench.name} wrote no files under bench_plots/"]
    failures = []
    for name, actual in plots.items():
        committed = plot_dir / name
        if not committed.is_file():
            failures.append(f"bench_plots/{name} is not committed")
            continue
        expected = committed.read_bytes()
        if actual != expected:
            failures.append(
                f"bench_plots/{name} differs\n" + diff_text(
                    expected.decode("utf-8"), actual.decode("utf-8"),
                    f"bench_plots/{name}", f"{bench.name} (BC_QUICK=1)"))
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="Compare a figure bench's BC_QUICK=1 outputs against "
                    "committed files.")
    parser.add_argument("bench", type=Path)
    parser.add_argument("golden", type=Path)
    parser.add_argument("--plots", type=Path, metavar="DIR",
                        help="also compare every bench_plots/ file with DIR")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed files instead")
    args = parser.parse_args()
    bench = args.bench.resolve()
    actual, plots = run_bench(bench)
    if args.update:
        args.golden.write_text(actual, encoding="utf-8")
        print(f"updated {args.golden} ({len(actual.splitlines())} lines)")
        if args.plots:
            for name, data in plots.items():
                (args.plots / name).write_bytes(data)
            print(f"updated {len(plots)} files in {args.plots}")
        return

    failures = []
    expected = args.golden.read_text(encoding="utf-8")
    if actual != expected:
        sys.stdout.write(diff_text(expected, actual,
                                   f"golden/{args.golden.name}",
                                   f"{bench.name} (BC_QUICK=1)"))
        failures.append(f"{bench.name} output differs from "
                        f"{args.golden.name}")
    if args.plots:
        failures += check_plots(bench, plots, args.plots)
    if failures:
        sys.exit("FAIL: " + "\nFAIL: ".join(failures))
    plotted = f" and {len(plots)} plot files" if args.plots else ""
    print(f"OK: {bench.name} matches {args.golden.name} "
          f"({len(actual.splitlines())} lines){plotted}")


if __name__ == "__main__":
    main()
