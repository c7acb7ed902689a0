#!/usr/bin/env python3
"""run_scenario must reject a bad trace size with its usage and exit 2.

Usage: run_scenario_bad_sizes.py <run_scenario binary>

Every invocation runs under a timeout: a negative count cast to size_t asks
the trace generator for about 2^64 peers and never returns.
"""

import subprocess
import sys

BAD_ARGS = ["--peers=0", "--days=0", "--peers=-5", "--swarms=-1",
            "--peers=abc", "--days=nan", "--days=inf"]
TIMEOUT_S = 20


def main() -> int:
    failures = []
    for arg in BAD_ARGS:
        try:
            proc = subprocess.run([sys.argv[1], arg], capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{arg}: still running after {TIMEOUT_S} s")
            continue
        if proc.returncode != 2 or "usage:" not in proc.stderr:
            failures.append(f"{arg}: exit {proc.returncode}, stderr"
                            f" {proc.stderr[-200:]!r}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
