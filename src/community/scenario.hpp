// Scenario configuration: what an experiment run varies.
//
// The defaults reproduce the paper's simulation setup (§5.1): N = 100 peers,
// 10 swarms, one week, 50% lazy freeriders, sharers seed for 10 hours,
// Nh = Nr = 10. What the paper fixes for every run stays a named constant
// beside its one user: the ADSL access link (3 MBps down / 512 KBps up),
// the 15 s round, 3 regular slots and the 30 s optimistic rotation, the
// two initial holders per swarm, the 60 s gossip period and the choker's
// 5 min reputation TTL in simulator.cpp; the adversaries' claimed volumes,
// the slander victim count, the strategic seeding fraction and the mobile
// duty cycle in behaviors_builtin.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "bartercast/node.hpp"
#include "bartercast/policy.hpp"
#include "util/units.hpp"

namespace bc::community {

struct ScenarioConfig {
  std::uint64_t seed = 1;

  // --- population (fractions of the whole trace population) -------------
  double freerider_fraction = 0.5;
  double ignorer_fraction = 0.0;  // §5.4 manipulation (1), subset of above
  double liar_fraction = 0.0;     // §5.4 manipulation (2), subset of above
  /// Composable population spec ("sharer:0.5,lazy:0.3,sybil-region:0.2",
  /// see PopulationSpec in behavior.hpp). When non-empty it supersedes the
  /// legacy fraction triple above; unassigned remainder peers are sharers.
  std::string population;

  // --- sharer behaviour ---------------------------------------------------
  Seconds seed_duration = 10.0 * kHour;

  // --- BarterCast ---------------------------------------------------------
  bartercast::NodeConfig node;  // Nh = Nr = 10, two-hop maxflow
  bartercast::ReputationPolicy policy = bartercast::ReputationPolicy::none();

  // --- probes ---------------------------------------------------------
  /// System-reputation sampling period (Figure 1a resolution).
  Seconds reputation_probe_interval = 2.0 * kHour;
  /// Bin width of the speed/reputation time series.
  Seconds series_bin = 4.0 * kHour;

  // --- execution --------------------------------------------------------
  /// Must be 1: a simulation runs on one thread (DESIGN.md §10) and
  /// validate() rejects anything else. The field stays only because the
  /// benchmark (perfbench/src/sim_workload.cpp) assigns it; it goes once
  /// the next benchmark change drops that assignment.
  std::size_t threads = 1;

  // --- observability ---------------------------------------------------
  /// When non-empty, the simulator streams windowed metric deltas (one
  /// NDJSON line per hour of sim time, plus a final partial window at
  /// finalize) to this path. See obs/stream.hpp.
  std::string metrics_stream_path;

  /// Returns an empty string when the configuration is internally
  /// consistent; otherwise a human-readable description of the first
  /// problem (fractions out of range, disobeying fractions exceeding the
  /// freerider pool, malformed population spec, ...). The simulator
  /// fail-stops on a non-empty result at construction.
  std::string validate() const;
};

}  // namespace bc::community
