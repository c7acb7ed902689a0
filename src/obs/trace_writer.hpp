// Sim-time event tracer emitting Chrome trace-event JSON.
//
// Events are timestamped with *simulation* time (microseconds, as the
// Trace Event Format requires), so the resulting file — loadable in
// chrome://tracing or https://ui.perfetto.dev — shows the run on the
// simulated clock: engine dispatches, gossip exchanges, choke rescans, and
// counter tracks of the metrics registry, all on one timeline.
//
// A tracer records every event it is given. A run traces by being handed
// one (community::RunContext::tracer, sim::Engine's constructor); every
// emit site tests that pointer, so an untraced run pays one branch per
// candidate event. Events buffer in memory and are serialized at end of
// run (write_json / write_file); sims emit at most a few hundred thousand
// events, well within memory for the scales the tracer is meant for.
// Serialization is deterministic: integer microsecond timestamps,
// chronological order.
//
// Flight-recorder mode: set_ring_capacity(N) bounds the buffer to the
// most recent N events — older events are overwritten in place, so a
// week-long soak records at O(N) memory and a dump shows the last window
// leading up to whatever went wrong. Dumps are explicit: dump_now()
// writes the buffer to the configured dump path; arm_signal_dump()
// requests one from a signal handler (served at the next
// poll_signal_dump() call site, since writing files inside a handler is
// undefined); and the community simulator calls dump_now() when an
// invariant audit fails, before it aborts.
//
// Supported phases: 'i' (instant) and 'C' (counter, plotted as a track).
// String args are JSON-escaped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace bc::obs {

/// JSON-escapes a string for embedding between double quotes.
std::string json_escape(std::string_view s);

/// "%g" rendering shared by every obs export: short, and stable for
/// golden files where "%.17g" would add representation noise.
std::string format_double(double v);

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'i';
  std::uint64_t ts_us = 0;  // simulation time, microseconds
  double value = 0.0;       // 'C' only
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  Tracer() = default;

  /// Point event at sim time `t`.
  void instant(std::string name, std::string category, Seconds t,
               Args args = {});
  /// Counter sample; same-name samples form a plotted track.
  void counter(std::string name, Seconds t, double value);

  std::size_t size() const { return events_.size(); }
  /// Raw buffer, insertion order. Chronological only while unbounded;
  /// with a ring capacity set, use chronological() instead.
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Flight recorder: bounds the buffer to the most recent `cap` events
  /// (0 restores unbounded buffering). Only valid while the buffer is
  /// empty — configure before the run, not mid-flight.
  void set_ring_capacity(std::size_t cap);
  std::size_t ring_capacity() const { return ring_capacity_; }
  /// Events overwritten by ring wrap-around.
  std::uint64_t dropped_events() const { return dropped_; }
  /// Buffered events oldest-to-newest, resolving ring wrap-around.
  std::vector<TraceEvent> chronological() const;

  /// Where dump_now() writes; empty disables dumping.
  void set_dump_path(std::string path) { dump_path_ = std::move(path); }
  const std::string& dump_path() const { return dump_path_; }
  /// Writes the current buffer (chronological) to the dump path. False
  /// when no path is configured or the write failed.
  bool dump_now() const;
  /// Installs a handler on `signum` that *requests* a dump; the file is
  /// written at the next poll_signal_dump() call (signal-safe split).
  void arm_signal_dump(int signum);
  /// Serves a pending signal-requested dump; true when one was written.
  bool poll_signal_dump();

  /// Serializes {"traceEvents":[...]} (the JSON-object form of the format).
  void write_json(std::ostream& os) const;
  std::string to_json() const;
  /// Returns false when the file could not be written.
  bool write_file(const std::string& path) const;

 private:
  void push(TraceEvent ev);

  std::vector<TraceEvent> events_;
  std::size_t ring_capacity_ = 0;  // 0 = unbounded
  std::size_t head_ = 0;           // oldest event once the ring wrapped
  std::uint64_t dropped_ = 0;
  std::string dump_path_;
};

}  // namespace bc::obs
