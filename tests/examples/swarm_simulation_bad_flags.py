#!/usr/bin/env python3
"""swarm_simulation must reject bad flags with a message and exit 1.

A flight-recorder ring without --trace-out has nowhere to be dumped; a
negative ring size is no size; a metrics stream that cannot be opened would
be written nowhere. All are refused before the simulation runs.

Usage: swarm_simulation_bad_flags.py <swarm_simulation binary>
"""

import subprocess
import sys

CASES = [
    ["--trace-ring=8"],
    ["--trace-ring=-1"],
    ["--metrics-stream=/nonexistent/s.ndjson"],
]
TIMEOUT_S = 60


def main() -> int:
    failures = []
    for args in CASES:
        label = " ".join(args)
        try:
            proc = subprocess.run([sys.argv[1], *args], capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{label}: still running after {TIMEOUT_S} s")
            continue
        if proc.returncode != 1 or "error:" not in proc.stderr:
            failures.append(f"{label}: exit {proc.returncode} (want 1),"
                            f" stderr {proc.stderr[-200:]!r}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
