#!/usr/bin/env python3
"""run_scenario must fail loudly on bad input, before it simulates anything.

A bad trace size (including more than 4,096 peers or 65,536 swarms, whose
memory the machine may not have) or ban threshold gets the usage and exit
2; a seeding
period the scenario rejects, a --save-trace path that cannot be written, or
a --trace file with a non-finite time gets a message and exit 1. So does a
trace, generated or read, that would make the simulator allocate without
bound: longer than a year, or a file of more than 2^20 pieces.

Usage: run_scenario_bad_sizes.py <run_scenario binary>

Every invocation runs under a timeout: a negative count cast to size_t asks
the trace generator for about 2^64 peers and never returns.
"""

import os
import subprocess
import sys
import tempfile

# Small sizes keep a case fast even where the check it tests is missing.
SMALL = ["--peers=5", "--swarms=1", "--days=1"]

# (arguments, expected exit code); exit 2 must also print the usage.
CASES = [
    (["--peers=0"], 2),
    (["--days=0"], 2),
    (["--peers=-5"], 2),
    (["--swarms=-1"], 2),
    (["--peers=abc"], 2),
    (["--days=nan"], 2),
    (["--days=inf"], 2),
    (["--days=1e9"], 2),
    (["--peers=4097", "--swarms=1", "--days=0.001"], 2),
    (["--peers=5", "--swarms=65537", "--days=0.001"], 2),
    (["--policy=ban", "--delta=0.5", *SMALL], 2),
    (["--policy=ban", "--delta=nan", *SMALL], 2),
    (["--seed-hours=nan", *SMALL], 1),
    (["--save-trace=/nonexistent/t.csv", *SMALL], 1),
]

# Trace files the reader parses but must reject: std::stod accepts "nan"
# and "inf", and NaN passes every range comparison. The last three used to
# abort the simulator: a series bin count past size_t, a series past
# memory, a piece table of 10^18 entries.
FILE_AND_PEER = "#file,0,1048576,16384\n#peer,0,1\n"
BAD_TRACES = {
    "nan_duration.csv": "#trace,nan\n" + FILE_AND_PEER,
    "inf_duration.csv": "#trace,inf\n" + FILE_AND_PEER,
    "nan_session.csv": "#trace,1000\n" + FILE_AND_PEER + "#session,0,0,nan\n",
    "nan_request.csv": ("#trace,1000\n" + FILE_AND_PEER +
                        "#session,0,0,900\n#request,0,0,nan\n"),
    "duration_1e300.csv": "#trace,1e300\n" + FILE_AND_PEER,
    "duration_1e12.csv": "#trace,1e12\n" + FILE_AND_PEER,
    "pieces_1e18.csv": "#trace,1000\n#file,0,1000000000000000000,1\n#peer,0,1\n",
}
TIMEOUT_S = 20


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cases = list(CASES)
        for name, text in BAD_TRACES.items():
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            cases.append(([f"--trace={path}"], 1))
        return run(cases)


def run(cases) -> int:
    failures = []
    for args, expected in cases:
        label = " ".join(args)
        try:
            proc = subprocess.run([sys.argv[1], *args], capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{label}: still running after {TIMEOUT_S} s")
            continue
        explained = ("usage:" in proc.stderr if expected == 2
                     else proc.stderr.strip() != "")
        if proc.returncode != expected or not explained:
            failures.append(f"{label}: exit {proc.returncode} (want"
                            f" {expected}), stderr {proc.stderr[-200:]!r}")
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
