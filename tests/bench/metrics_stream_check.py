#!/usr/bin/env python3
"""An unwritable BC_METRICS_STREAM must stop a figure bench before it runs.

Runs a figure bench in quick mode with BC_METRICS_STREAM pointing into a
directory that does not exist, and checks that it exits 1 with an
`error:` line naming the path, and that no simulator was built: the
simulator would log that it cannot open the stream and carry on.

Usage: metrics_stream_check.py <path-to-figure-bench>
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: metrics_stream_check.py <figure-bench>")
    bench = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmpdir:
        stream = Path(tmpdir) / "missing" / "s.ndjson"
        env = dict(os.environ, BC_QUICK="1", BC_METRICS_STREAM=str(stream))
        proc = subprocess.run([str(bench)], env=env, cwd=tmpdir,
                              capture_output=True, text=True, timeout=240)
    if proc.returncode != 1:
        sys.exit(f"FAIL: bench exited {proc.returncode}, want 1\n"
                 f"{proc.stderr[-400:]}")
    if f"error: could not write {stream}" not in proc.stderr:
        sys.exit(f"FAIL: no error line naming the path\n{proc.stderr[-400:]}")
    if "cannot open metrics stream" in proc.stderr:
        sys.exit("FAIL: the bench built a simulator before refusing the path")
    print("OK: refused before simulating")


if __name__ == "__main__":
    main()
