// Trace-based community simulator (paper §5.1).
//
// Combines every substrate into the experiment the paper runs: the
// discrete-event engine drives per-peer session churn from the trace, a
// round event advances piece-level BitTorrent (choking, optimistic
// unchoking, rarest-first picking, bandwidth allocation across all swarms),
// the epidemic PSS keeps per-peer views, and BarterCast messages flow over
// the overlay into each peer's subjective history. Reputation policies hook
// into the choker exactly as §4.2 describes.
//
// Swarm membership is tracker knowledge (as in BitTorrent); the PSS is used
// for BarterCast partner sampling, mirroring Tribler's BuddyCast split.
//
// Determinism: given (trace, config) the run is bit-identical — every
// stochastic component forks from the scenario seed and all iteration
// orders are explicitly sorted.
//
// A run's sinks and audit switch are its own (RunContext): the simulator
// writes no process-wide tracer or audit state, so several runs in one
// process each trace and audit as their context says.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bartercast/node.hpp"
#include "bittorrent/choker.hpp"
#include "bittorrent/swarm.hpp"
#include "check/invariants.hpp"
#include "community/behavior.hpp"
#include "community/metrics.hpp"
#include "community/scenario.hpp"
#include "gossip/pss.hpp"
#include "net/overlay.hpp"
#include "obs/stream.hpp"
#include "obs/trace_writer.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace bc::community {

/// What one run writes to and whether it audits. The simulator owns none
/// of it: the caller opens the sinks before building the simulator and
/// closes them after the run, so several runs can share them.
struct RunContext {
  /// Open windowed-metrics stream (obs/stream.hpp) the run appends to: one
  /// window per hour of sim time and a final partial one at finalize.
  obs::MetricsStream* stream = nullptr;
  /// Sim-time tracer the run records into: engine dispatches, gossip
  /// exchanges, choke rescans and hourly counter tracks. An audit failure
  /// dumps it (Tracer::dump_now) before aborting.
  obs::Tracer* tracer = nullptr;
  /// Run the bc::check audits: the per-round subset every round, each
  /// received message, and audit() once before finalize. A violation
  /// aborts with its report.
  bool audit = check::kValidateBuild;
};

class CommunitySimulator {
 public:
  /// Initial holders per swarm: trace peers (always sharers) that hold the
  /// file from t=0 and keep seeding it whenever they are online — the
  /// filelist-style uploader of the content. This keeps all supply inside
  /// the community, as in the paper's trace: there are no synthetic
  /// always-on peers, and every byte is served by a policy-applying peer
  /// with ordinary bidirectional barter flows.
  static constexpr std::size_t kInitialHoldersPerSwarm = 2;

  CommunitySimulator(trace::Trace trace, ScenarioConfig config,
                     RunContext run = {});

  /// Runs the full trace duration and finalizes the metrics.
  void run();

  const Metrics& metrics() const { return metrics_; }
  const trace::Trace& trace() const { return trace_; }
  const ScenarioConfig& config() const { return config_; }

  std::size_t num_trace_peers() const { return trace_.peers.size(); }
  const PeerBehavior& behavior(PeerId peer) const;
/// Whether `peer` is one of the swarm's initial holders (seeds the file
  /// permanently while online).
  bool is_initial_holder(PeerId peer, SwarmId swarm_id) const;
  const bartercast::Node& node(PeerId peer) const;
  const sim::Engine& engine() const { return engine_; }
  const bt::Swarm& swarm(SwarmId id) const;

  /// System reputation of `peer`: average of the reputations it has at the
  /// other trace peers (Equation 2). Exposed for probes and tests.
  double system_reputation(PeerId peer);

  /// Runs every cross-module invariant validator over the current state:
  /// ledger conservation against the swarms' ground-truth byte counters,
  /// per-peer subjective graph consistency and Eq. 1 bounds (capped sample),
  /// event-queue monotonicity, and outgoing-message well-formedness.
  /// Appends violations to `report`. run() calls it when the run audits
  /// (RunContext::audit); callable any time.
  void audit(check::Report& report) const;

 private:
  struct PeerState {
    const PeerBehavior* behavior = nullptr;
    std::unique_ptr<bartercast::Node> node;
    Bytes total_up = 0;
    Bytes total_down = 0;
    std::size_t files_requested = 0;
    std::size_t files_completed = 0;
    Seconds time_downloading = 0.0;
    Bytes late_downloaded = 0;
    Seconds late_time_downloading = 0.0;
    /// Swarms the peer is currently a member of and has not completed.
    std::size_t downloading = 0;
  };

  struct ChokeState {
    std::vector<PeerId> regular;
    PeerId optimistic = kInvalidPeer;
    Seconds next_rotation = 0.0;
    bt::OptimisticRotator rotator;
  };

  struct SwarmCtx {
    explicit SwarmCtx(bt::Swarm s) : swarm(std::move(s)) {}
    bt::Swarm swarm;
    std::unordered_map<PeerId, ChokeState> chokers;
    /// Sharers' seeding deadlines (absolute time).
    std::unordered_map<PeerId, Seconds> seed_until;
    /// Initial holders: seed the file for the whole trace while online.
    std::unordered_set<PeerId> permanent_seeds;
    /// Directed links that carried an unchoke last round, for release.
    std::unordered_set<std::uint64_t> prev_active;
  };

  struct RepCacheEntry {
    Seconds at = -1.0e18;
    double value = 0.0;
  };

  // --- setup ------------------------------------------------------------
  void setup_peers();
  void setup_swarms();
  void schedule_trace_events();
  void schedule_periodics();

  // --- per-event logic ----------------------------------------------------
  void attempt_join(PeerId peer, SwarmId swarm_id);
  void round();
  void choke_swarm(SwarmId swarm_id, const std::vector<PeerId>& online);
  void gossip_tick(PeerId peer);
  /// Builds `from`'s outgoing BarterCast message and sends it to `to`;
  /// `is_reply` marks the answer of the bidirectional exchange, which is
  /// not answered again.
  void send_message(PeerId from, PeerId to, bool is_reply);
  void on_barter_message(PeerId receiver, PeerId sender,
                         const bartercast::BarterCastMessage& msg,
                         bool is_reply);
  void reputation_probe();
  void handle_completion(SwarmId swarm_id, PeerId peer);
  void finalize();

  /// The per-round subset of audit(): event-queue monotonicity, and
  /// ledger conservation against the swarms' ground truth.
  void audit_round(check::Report& report) const;
  /// Fail-stop for an audit at `site`: on violations, dumps the tracer's
  /// flight recorder (if a dump path is set), then aborts with the report.
  void enforce(std::string_view site, const check::Report& report) const;

  /// Adds what the per-node reputation-cache tallies (plain members on
  /// the nanosecond-scale hit path) gained since the last publish to the
  /// registry counters, so the windowed stream sees them move during the
  /// run, not only at finalize.
  void publish_cache_totals();
  /// Periodic --metrics-stream pump: publish the cache tallies, then
  /// append one delta window.
  void pump_metrics_window();

  /// Batch all-peers sweep: returns the system reputation of every trace
  /// peer (Equation 2), evaluating the full R_i(j) matrix evaluator by
  /// evaluator, so each Node's CachedReputation serves one evaluator's
  /// run of subjects. Requires n >= 2.
  std::vector<double> batch_system_reputations();

  bartercast::BarterCastMessage make_outgoing_message(PeerId peer);

  /// TTL-cached reputation for choking decisions.
  double choker_reputation(PeerId evaluator, PeerId subject);

  PeerState& peer(PeerId id);
  const PeerState& peer(PeerId id) const;

  trace::Trace trace_;
  ScenarioConfig config_;
  RunContext run_;  // sinks not owned, may be null
  Rng rng_;

  sim::Engine engine_;
  net::Overlay overlay_;
  gossip::PeerSamplingService pss_;

  std::vector<PeerState> peers_;  // one per trace peer
  /// Peers per assigned behavior, ascending PeerId — the cohort handed to
  /// the report-mutation hook (sybil regions coordinate through it).
  std::unordered_map<const PeerBehavior*, std::vector<PeerId>> cohorts_;
  std::vector<std::unique_ptr<SwarmCtx>> swarms_;

  Metrics metrics_;
  /// Node cache tallies as of the last publish_cache_totals().
  std::uint64_t published_cache_hits_ = 0;
  std::uint64_t published_cache_misses_ = 0;
  std::unordered_map<std::uint64_t, RepCacheEntry> rep_cache_;
  /// Bytes received per peer in the current round (speed probe input).
  std::unordered_map<PeerId, Bytes> round_received_;
  bool ran_ = false;
};

}  // namespace bc::community
