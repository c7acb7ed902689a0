// Shared setup for the figure-reproduction benches.
//
// Every fig*_ binary replays the paper's simulation setup (§5.1): N = 100
// peers in 10 swarms over one week, 50% lazy freeriders, sharers seeding
// 10 h, ADSL access links, Nh = Nr = 10. Set BC_QUICK=1 to run a reduced
// configuration (fewer peers/swarms, 3 days) when iterating; the qualitative
// shapes survive the reduction but the reported numbers are then not the
// paper-scale ones.
// Observability: every figure bench honours three environment variables —
//   BC_PROFILE=1           enable the scoped profiler, print the per-site
//                          report at exit
//   BC_METRICS_OUT=f.json  enable the profiler, dump registry + profile
//                          JSON to f.json at exit
//   BC_TRACE_OUT=f.json    enable the sim-time tracer, dump Chrome trace
//                          JSON (open in chrome://tracing or Perfetto)
//   BC_METRICS_STREAM=f.ndjson  stream windowed metric deltas (one NDJSON
//                          line per sim-hour window) while the run is in
//                          flight — tail it to watch a paper-scale bench
// so hot-path attribution of a paper-scale run is one env var away.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "community/scenario.hpp"
#include "community/simulator.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace_writer.hpp"
#include "trace/generator.hpp"
#include "util/units.hpp"

namespace bench {

inline bool quick_mode() {
  const char* v = std::getenv("BC_QUICK");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

/// Dumps whatever observability outputs the environment requested; runs at
/// exit so it covers the whole bench without per-bench wiring.
inline void dump_observability() {
  const auto& registry = bc::obs::Registry::instance();
  const auto& profiler = bc::obs::Profiler::instance();
  if (const char* path = std::getenv("BC_METRICS_OUT"); path != nullptr) {
    if (bc::obs::write_text_file(path,
                                 bc::obs::metrics_json(registry, profiler))) {
      std::fprintf(stderr, "metrics written to %s\n", path);
    }
  }
  if (const char* path = std::getenv("BC_TRACE_OUT"); path != nullptr) {
    if (bc::obs::Tracer::instance().write_file(path)) {
      std::fprintf(stderr, "chrome trace written to %s\n", path);
    }
  }
  if (const char* v = std::getenv("BC_PROFILE");
      v != nullptr && std::strcmp(v, "0") != 0) {
    std::fprintf(stderr, "== profile ==\n%s",
                 bc::obs::profile_report(profiler).c_str());
  }
}

inline void init_observability() {
  const bool profile = std::getenv("BC_PROFILE") != nullptr ||
                       std::getenv("BC_METRICS_OUT") != nullptr;
  const bool trace = std::getenv("BC_TRACE_OUT") != nullptr;
  if (profile || trace) bc::obs::Profiler::instance().set_enabled(true);
  if (trace) bc::obs::Tracer::instance().set_enabled(true);
  if (profile || trace) {
    // The handler reads the registry. A function-local static constructed
    // after std::atexit is destroyed before the handler runs, so build it
    // first.
    bc::obs::Registry::instance();
    std::atexit(dump_observability);
  }
}

inline bc::trace::GeneratorConfig paper_trace(std::uint64_t seed) {
  bc::trace::GeneratorConfig cfg;  // defaults follow §5.1 already
  cfg.seed = seed;
  if (quick_mode()) {
    cfg.num_peers = 40;
    cfg.num_swarms = 6;
    cfg.duration = 3.0 * bc::kDay;
    cfg.file_size_max = bc::gib(1.0);
  }
  return cfg;
}

inline bc::community::ScenarioConfig paper_scenario(std::uint64_t seed) {
  bc::community::ScenarioConfig cfg;
  cfg.seed = seed;
  if (const char* path = std::getenv("BC_METRICS_STREAM"); path != nullptr) {
    cfg.metrics_stream_path = path;
  }
  return cfg;
}

inline void print_header(const char* figure, const char* what) {
  init_observability();
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("mode: %s\n", quick_mode() ? "QUICK (BC_QUICK=1)" : "paper scale");
  std::printf("==============================================================\n");
}

}  // namespace bench
