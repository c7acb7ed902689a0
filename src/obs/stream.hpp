// Windowed metrics streaming: newline-delimited JSON (NDJSON) export of
// per-window *deltas*, one line per window, appended while the run is in
// flight. Where export.hpp serializes cumulative end-of-run state, this
// module answers "what happened during the last hour of sim time" —
// tail-able, plottable, and cheap enough to leave on for soak runs.
//
// Line schema (schema id "bc.metrics.window.v2"):
//
//   {"schema": "bc.metrics.window.v2", "seq": 0, "t": 3600,
//    "counters": {"name": delta, ...},              // non-zero deltas only
//    "log_histograms": {"name": {"buckets": [[index, delta], ...],
//                                "total": delta, "sum": delta,
//                                "p50": x, "p99": x, "max": x}, ...}}
//
// Delta encoding is exact: counters and log-histogram state are integers
// (fixed-point sums included), so summing a column across every line
// reproduces the end-of-run cumulative total bit-for-bit — the regression
// suite asserts exactly that. Quantiles are computed over the *window's*
// bucket deltas, i.e. p99 of what happened this window, not since boot.
// Instruments are emitted sorted by name and doubles use the same "%g"
// formatting as export.cpp, so two runs with identical metric histories
// produce byte-identical streams.
//
// The stream owns no timer: whoever owns a sim::Engine pumps emit_window
// (community::CommunitySimulator schedules it via Engine::schedule_periodic
// once per hour of sim time, plus one final partial window at finalize).
// The front end opens the stream once per process and every simulator it
// builds appends to it, so `seq` counts on across runs while `t` is each
// run's own sim time.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace bc::obs {

class MetricsStream {
 public:
  MetricsStream() = default;

  /// Opens `path` (truncating) and captures the current registry state as
  /// the delta baseline, so windows cover activity *after* open. Returns
  /// false (and stays closed) when the file cannot be created.
  bool open(const std::string& path, const Registry& registry);

  bool is_open() const { return out_.is_open(); }
  std::uint64_t windows_written() const { return windows_; }

  /// Appends one NDJSON line covering (previous emit, t] and resets the
  /// window baseline. No-op while closed. Empty windows still emit a line
  /// (with empty instrument maps), keeping the stream's time axis regular.
  void emit_window(const Registry& registry, Seconds t);

  void close();

 private:
  std::ofstream out_;
  Snapshot prev_;
  std::uint64_t windows_ = 0;
};

}  // namespace bc::obs
