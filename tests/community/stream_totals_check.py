#!/usr/bin/env python3
"""Windowed-stream regression: NDJSON deltas must sum to end-of-run totals.

The windowed metrics stream (--metrics-stream) emits exact integer deltas,
so replaying every window must reconstruct the final cumulative metrics
JSON bit-for-bit:

  * every line carries schema "bc.metrics.window.v1" with exactly the
    documented keys and a contiguous seq starting at 0;
  * per counter, the sum of window deltas equals the end-of-run total —
    including the per-reason drop counters (barter.dropped_*) and the
    republished reputation-cache tallies, which must flow through the
    stream during the run rather than appearing only at finalize;
  * per log histogram, summed window totals and per-bucket deltas equal
    the end-of-run bucket counts.

Usage: stream_totals_check.py <path-to-swarm_simulation> [extra args...]

Extra arguments are passed through to the binary (e.g. --validate, which
adds the end-of-run invariant audit and its maxflow queries).
"""

import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

EXPECTED_KEYS = {"schema", "seq", "t", "counters", "gauges", "log_histograms"}
SCHEMA = "bc.metrics.window.v1"

# Satellites of this check: totals that exist only because mid-run code
# republishes them into the registry. Their presence proves the stream
# carries them while the run is in flight.
REQUIRED_COUNTERS = (
    "barter.dropped_third_party",
    "barter.dropped_own_edge",
    "barter.dropped_self_report",
    "reputation.cache_hits",
    "reputation.cache_misses",
)


def main():
    if len(sys.argv) < 2:
        sys.exit("usage: stream_totals_check.py <swarm_simulation> [args...]")
    binary, extra = sys.argv[1], sys.argv[2:]
    with tempfile.TemporaryDirectory() as tmpdir:
        stream_path = Path(tmpdir) / "stream.ndjson"
        json_path = Path(tmpdir) / "metrics.json"
        proc = subprocess.run(
            [binary, f"--metrics-stream={stream_path}",
             f"--metrics-out={json_path}", *extra],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"FAIL: swarm_simulation exited {proc.returncode}\n"
                     f"{proc.stdout}\n{proc.stderr}")
        lines = stream_path.read_text(encoding="utf-8").splitlines()
        final = json.loads(json_path.read_text(encoding="utf-8"))

    if not lines:
        sys.exit("FAIL: metrics stream is empty")

    counter_sums = defaultdict(int)
    hist_totals = defaultdict(int)
    hist_buckets = defaultdict(lambda: defaultdict(int))
    for i, line in enumerate(lines):
        window = json.loads(line)
        if set(window) != EXPECTED_KEYS:
            sys.exit(f"FAIL: line {i} keys {sorted(window)} != "
                     f"{sorted(EXPECTED_KEYS)}")
        if window["schema"] != SCHEMA or window["seq"] != i:
            sys.exit(f"FAIL: line {i} schema/seq mismatch: "
                     f"{window['schema']!r} seq={window['seq']}")
        for name, delta in window["counters"].items():
            counter_sums[name] += delta
        for name, h in window["log_histograms"].items():
            hist_totals[name] += h["total"]
            for index, delta in h["buckets"]:
                hist_buckets[name][index] += delta

    failures = []
    for name, total in final["counters"].items():
        if counter_sums[name] != total:
            failures.append(f"counter {name}: windows sum to "
                            f"{counter_sums[name]}, final total is {total}")
    for name in REQUIRED_COUNTERS:
        if name not in final["counters"]:
            failures.append(f"counter {name} missing from final metrics")
        # A reason that never fired has total 0 and lawfully never streams;
        # anything that did fire must have flowed through the windows.
        elif final["counters"][name] > 0 and counter_sums.get(name, 0) == 0:
            failures.append(f"counter {name} never moved through the stream")
    for name, h in final["log_histograms"].items():
        if hist_totals[name] != h["total"]:
            failures.append(f"log histogram {name}: windows sum to "
                            f"{hist_totals[name]}, final is {h['total']}")
        if {i: c for i, c in h["buckets"]} != dict(hist_buckets[name]):
            failures.append(f"log histogram {name}: bucket deltas do not "
                            f"reconstruct the final buckets")
    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))
    print(f"OK: {len(lines)} windows reconstruct "
          f"{len(final['counters'])} counters and "
          f"{len(final['log_histograms'])} log histograms exactly")


if __name__ == "__main__":
    main()
