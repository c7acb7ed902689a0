// Scenario configuration: everything a trace-based experiment run needs.
//
// The defaults reproduce the paper's simulation setup (§5.1): N = 100 peers,
// 10 swarms, one week, 50% lazy freeriders, sharers seed for 10 hours,
// ADSL access links (3 MBps down / 512 KBps up), Nh = Nr = 10.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "bartercast/node.hpp"
#include "bartercast/policy.hpp"
#include "bittorrent/bandwidth.hpp"
#include "trace/generator.hpp"
#include "util/units.hpp"

namespace bc::community {

struct ScenarioConfig {
  std::uint64_t seed = 1;

  // --- population (fractions of the whole trace population) -------------
  double freerider_fraction = 0.5;
  double ignorer_fraction = 0.0;  // §5.4 manipulation (1), subset of above
  double liar_fraction = 0.0;     // §5.4 manipulation (2), subset of above
  Bytes liar_claimed_upload = gib(10.0);
  /// Composable population spec ("sharer:0.5,lazy:0.3,sybil-region:0.2",
  /// see PopulationSpec in behavior.hpp). When non-empty it supersedes the
  /// legacy fraction triple above; unassigned remainder peers are sharers.
  std::string population;

  // --- adversary knobs (behaviors from the registry, DESIGN.md §12) ------
  /// Upload volume each sybil-region member credits its fellow members.
  Bytes sybil_claimed_upload = gib(10.0);
  /// Upload volume a slanderer claims toward each victim.
  Bytes slander_claimed_upload = gib(10.0);
  /// How many of its real benefactors a slanderer defames per message.
  std::size_t slander_victims = 5;
  /// Fraction of the sharer seeding period a strategic uploader invests.
  double strategic_seed_fraction = 0.1;
  /// Duty-cycling of mobile-churner sessions: `mobile_duty_cycle` of every
  /// `mobile_churn_period` online, the rest offline.
  Seconds mobile_churn_period = 30.0 * kMinute;
  double mobile_duty_cycle = 0.5;

  // --- sharer behaviour ---------------------------------------------------
  Seconds seed_duration = 10.0 * kHour;

  // --- BitTorrent ---------------------------------------------------------
  bt::AccessProfile access;     // 512 KiB/s up, 3 MiB/s down (paper)
  int regular_slots = 3;        // plus 1 optimistic slot
  Seconds round_interval = 15.0;         // transfer/choke evaluation step
  Seconds optimistic_interval = 30.0;    // paper: 30 s round-robin shift
  /// Initial holders per swarm: trace peers (always sharers) that hold the
  /// file from t=0 and keep seeding it whenever they are online — the
  /// filelist-style uploader of the content. This keeps all supply inside
  /// the community, as in the paper's trace: there are no synthetic
  /// always-on peers, and every byte is served by a policy-applying peer
  /// with ordinary bidirectional barter flows.
  std::size_t initial_holders_per_swarm = 2;

  // --- BarterCast ---------------------------------------------------------
  bartercast::NodeConfig node;  // Nh = Nr = 10, two-hop maxflow
  bartercast::ReputationPolicy policy = bartercast::ReputationPolicy::none();
  Seconds gossip_interval = 60.0;  // per-peer BarterCast exchange period
  /// Community-level reputation cache TTL used by the choker (reputations
  /// change slowly; caching bounds maxflow cost per round).
  Seconds reputation_ttl = 5.0 * kMinute;

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
  /// Period of the obs counter snapshots fed into the sim-time tracer as
  /// Chrome 'C' (counter-track) events. Only scheduled while the tracer is
  /// enabled at construction time, so default runs schedule nothing.
  Seconds metrics_snapshot_interval = 1.0 * kHour;
  /// When non-empty, the simulator streams windowed metric deltas (one
  /// NDJSON line per metrics_snapshot_interval of sim time, plus a final
  /// partial window at finalize) to this path. See obs/stream.hpp.
  std::string metrics_stream_path;

  /// Returns an empty string when the configuration is internally
  /// consistent; otherwise a human-readable description of the first
  /// problem (fractions out of range, disobeying fractions exceeding the
  /// freerider pool, malformed population spec, ...). The simulator
  /// fail-stops on a non-empty result at construction.
  std::string validate() const;
};

}  // namespace bc::community
