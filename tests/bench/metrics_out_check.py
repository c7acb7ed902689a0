#!/usr/bin/env python3
"""BC_METRICS_OUT regression for the figure benches.

Runs a figure bench in quick mode with BC_METRICS_OUT set, inside a scratch
directory that also takes its plot files, and checks that it exits 0 and
writes a metrics JSON with the documented top-level keys. The
exit-time dump reads the metrics registry, so the registry must outlive the
std::atexit handler that writes the file.

Usage: metrics_out_check.py <path-to-figure-bench>
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EXPECTED_KEYS = {"counters", "log_histograms", "profile"}


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: metrics_out_check.py <figure-bench>")
    bench = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmpdir:
        out = Path(tmpdir) / "metrics.json"
        env = dict(os.environ, BC_QUICK="1", BC_METRICS_OUT=str(out))
        proc = subprocess.run([str(bench)], env=env, cwd=tmpdir,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"FAIL: bench exited {proc.returncode}\n{proc.stderr}")
        if not out.is_file():
            sys.exit("FAIL: bench exited 0 but wrote no metrics file")
        metrics = json.loads(out.read_text(encoding="utf-8"))
    if set(metrics) != EXPECTED_KEYS:
        sys.exit(f"FAIL: metrics JSON keys {sorted(metrics)}")
    if not metrics["counters"]:
        sys.exit("FAIL: metrics JSON has no counters")
    print(f"OK: {len(metrics['counters'])} counters,"
          f" {len(metrics['profile'])} profile sites")


if __name__ == "__main__":
    main()
