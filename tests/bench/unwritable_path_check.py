#!/usr/bin/env python3
"""An unwritable observability path must stop a figure bench before it runs.

Runs a figure bench in quick mode with one of BC_METRICS_STREAM,
BC_METRICS_OUT or BC_TRACE_OUT pointing into a directory that does not
exist, and checks that it exits 1 with an `error:` line naming the path,
and that it printed no table: it refused before simulating, rather than
after a whole run whose output could not be written.

Usage: unwritable_path_check.py <path-to-figure-bench> <variable>
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

VARIABLES = ("BC_METRICS_STREAM", "BC_METRICS_OUT", "BC_TRACE_OUT")


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in VARIABLES:
        sys.exit("usage: unwritable_path_check.py <figure-bench> "
                 f"<{'|'.join(VARIABLES)}>")
    bench = Path(sys.argv[1]).resolve()
    variable = sys.argv[2]
    with tempfile.TemporaryDirectory() as tmpdir:
        path = Path(tmpdir) / "missing" / "out"
        env = dict(os.environ, BC_QUICK="1", **{variable: str(path)})
        proc = subprocess.run([str(bench)], env=env, cwd=tmpdir,
                              capture_output=True, text=True, timeout=240)
    if proc.returncode != 1:
        sys.exit(f"FAIL: bench exited {proc.returncode}, want 1\n"
                 f"{proc.stderr[-400:]}")
    if f"error: could not write {path}" not in proc.stderr:
        sys.exit(f"FAIL: no error line naming the path\n{proc.stderr[-400:]}")
    if "|" in proc.stdout:
        sys.exit("FAIL: the bench printed a table before refusing the path")
    print(f"OK: {variable} refused before simulating")


if __name__ == "__main__":
    main()
