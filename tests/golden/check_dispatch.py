#!/usr/bin/env python3
"""Golden dispatch sequence of the discrete-event engine.

Runs swarm_simulation with --trace-out in a scratch directory and hashes,
in file order, every instant the engine traces (cat "engine": its name,
"event" or "periodic", its sim-time ts and its args.id). The digest pins
which event runs when, the id each one was scheduled under and the order
of events that share a timestamp, even where the figure outputs would come
out equal either way. A mismatch means the engine's dispatch order, its id
assignment or the event stream feeding it changed.

The digest file holds one line: the SHA-256 hex digest and the number of
hashed instants.

Usage:
  check_dispatch.py <swarm_simulation> <digest-file>           compare
  check_dispatch.py <swarm_simulation> <digest-file> --update  re-baseline

Use --update only for an intended change of the dispatch sequence, and say
in the change why it moved.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def dispatch_digest(binary):
    """Returns (sha256 hex digest, instant count) of the engine instants."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BC_")}
    with tempfile.TemporaryDirectory() as tmpdir:
        trace_path = Path(tmpdir) / "trace.json"
        proc = subprocess.run([str(binary), f"--trace-out={trace_path}"],
                              env=env, cwd=tmpdir, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {binary.name} exited {proc.returncode}\n"
                     f"{proc.stdout}{proc.stderr}")
        with trace_path.open(encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
    sha = hashlib.sha256()
    count = 0
    for ev in events:
        if ev.get("cat") != "engine":
            continue
        sha.update(f"{ev['name']}\t{ev['ts']!r}\t{ev['args']['id']}\n"
                   .encode("utf-8"))
        count += 1
    return sha.hexdigest(), count


def main():
    parser = argparse.ArgumentParser(
        description="Compare the engine's traced dispatch sequence against "
                    "a committed digest.")
    parser.add_argument("binary", type=Path)
    parser.add_argument("digest", type=Path)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed digest instead")
    args = parser.parse_args()
    digest, count = dispatch_digest(args.binary.resolve())
    actual = f"{digest} {count}\n"
    if args.update:
        args.digest.write_text(actual, encoding="utf-8")
        print(f"updated {args.digest} ({count} engine instants)")
        return
    expected = args.digest.read_text(encoding="utf-8")
    if actual != expected:
        sys.exit(f"FAIL: engine dispatch sequence differs from "
                 f"{args.digest.name}\n  expected {expected.strip()}\n"
                 f"  actual   {actual.strip()}")
    print(f"OK: {count} engine instants match {args.digest.name}")


if __name__ == "__main__":
    main()
