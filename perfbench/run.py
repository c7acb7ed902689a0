#!/usr/bin/env python3
"""Repository benchmark: build bcperf from source, run one workload, report.

Run from the repository root:

    python3 perfbench/run.py --workload fig1_paper --seed 1 --seconds 20 --trace 0

Workloads: fig1_paper, ban_n200, service_hub (see perfbench/README.md).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

The first run configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only check
that the build is current. The second-to-last stdout line is a result row
with the git sha (or a digest of the sources outside git), compiler, build
type and seed; it is also appended to <build dir>/results.ndjson. The last
line is the result object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig1_paper", "ban_n200", "service_hub")

# Output digest of each fixed simulation scenario (per-peer bytes, final
# reputation bits, message counts). A change that alters the simulated
# outputs must re-pin these and say so.
PINNED_DIGESTS = {
    "fig1_paper": "ef967cdbd8bb1d62",
    "ban_n200": "54e1b405ed2a803a",
}

DEADLINE_S = 175.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build(out_dir):
    """Configures once, then brings bcperf up to date. Returns its path."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "bcperf",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "bcperf")


def source_id():
    """Git sha of the checkout, or a digest of the sources outside git."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return "git:" + sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="toy sizes for the benchmark's own test")
    args = p.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    budget = max(1.0, DEADLINE_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        log(f"perfbench: bcperf did not finish within {budget:.0f} s")
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"perfbench: bcperf exited with {proc.returncode}")
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = res["attempted"], res["failed"]
    for why in res["failures"]:
        log(f"perfbench: failed: {why}")
    pinned = PINNED_DIGESTS.get(args.workload)
    if pinned and not args.tiny and res["digest"] != pinned:
        log(f"perfbench: output digest {res['digest']} != pinned {pinned}")
        failed = attempted
    correct = attempted >= 1 and failed == 0 and bool(res["metrics"])

    row = {
        "source": source_id(),
        "compiler": res["compiler"],
        "build_type": res["build_type"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "digest": res["digest"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": res["metrics"],
    }
    row_line = json.dumps(row, sort_keys=True)
    with open(os.path.join(out_dir, "results.ndjson"), "a") as f:
        f.write(row_line + "\n")
    print("row " + row_line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
