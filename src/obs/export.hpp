// Export plumbing: serializing the registry and profiler to JSON/CSV and
// bridging registry counters into the sim-time tracer.
//
// The JSON document groups instruments by kind:
//
//   { "counters": {...},
//     "log_histograms": {"name": {"buckets": [[index, count], ...],
//                                 "total": n, "sum": x, "p50": x,
//                                 "p90": x, "p99": x, "max": x}},
//     "profile": {"site": {"calls": n, "total_ns": n}} }
//
// All emission is deterministic (instruments sorted by name). Periodic
// snapshotting is driven by whoever owns a sim::Engine — typically
// community::CommunitySimulator scheduling snapshot_counters_to_trace via
// Engine::schedule_periodic — so this module stays independent of the
// engine and usable from plain tools.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace_writer.hpp"
#include "util/units.hpp"

namespace bc::obs {

/// Full JSON dump of the registry plus profiler (see format above).
std::string metrics_json(const Registry& registry, const Profiler& profiler);

/// Flat `name,kind,value` CSV: one row per counter, then per log
/// histogram one `name[bucket=index],log_histogram,count` row per
/// non-empty bucket plus its p50 and p99.
std::string metrics_csv(const Registry& registry);

/// Human-readable profile table: site, calls, total ms, mean us per call.
std::string profile_report(const Profiler& profiler);

/// Emits one 'C' counter event per registry counter at sim time `t`;
/// repeated calls build per-counter tracks in the trace viewer.
void snapshot_counters_to_trace(const Registry& registry, Tracer& tracer,
                                Seconds t);

/// Returns false when the file could not be (fully) written.
bool write_text_file(const std::string& path, const std::string& content);

}  // namespace bc::obs
