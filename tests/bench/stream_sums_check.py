#!/usr/bin/env python3
"""A multi-scenario figure bench must stream every run's windows.

Runs a figure bench in quick mode with BC_METRICS_STREAM and
BC_METRICS_OUT set. The stream is opened once per process and every run
appends to it, so `seq` counts 0, 1, 2, ... across runs, and per counter
the window deltas sum to the end-of-process total in the metrics JSON.
A stream that each run truncated would hold only the last run's windows.

Usage: stream_sums_check.py <path-to-figure-bench>
"""

import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: stream_sums_check.py <figure-bench>")
    bench = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmpdir:
        stream = Path(tmpdir) / "stream.ndjson"
        out = Path(tmpdir) / "metrics.json"
        env = dict(os.environ, BC_QUICK="1", BC_METRICS_STREAM=str(stream),
                   BC_METRICS_OUT=str(out))
        proc = subprocess.run([str(bench)], env=env, cwd=tmpdir,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"FAIL: bench exited {proc.returncode}\n"
                     f"{proc.stderr[-400:]}")
        windows = [json.loads(line) for line in
                   stream.read_text(encoding="utf-8").splitlines()]
        counters = json.loads(out.read_text(encoding="utf-8"))["counters"]

    if not windows:
        sys.exit("FAIL: the metrics stream is empty")
    sums = defaultdict(int)
    for i, window in enumerate(windows):
        if window["seq"] != i:
            sys.exit(f"FAIL: line {i} has seq {window['seq']}")
        for name, delta in window["counters"].items():
            sums[name] += delta
    failures = [f"counter {name}: windows sum to {sums[name]}, the metrics"
                f" JSON says {total}"
                for name, total in counters.items() if sums[name] != total]
    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))
    print(f"OK: {len(windows)} windows sum to all {len(counters)} counters")


if __name__ == "__main__":
    main()
