// Pluggable reputation-aggregation backends (the interface lives in
// reputation.hpp next to the production MaxflowBackend).
//
// DifferentialGossipBackend is a Gupta/Singh-style alternative metric for
// the adversary-zoo ablations: instead of routing trust through two-hop
// maxflow (Eq. 1), every peer in the evaluator's subjective graph starts
// from a local contribution prior and repeatedly averages in its
// neighbours' opinions, weighted by the transfer volume shared with each
// neighbour. After four rounds the evaluator reads off the converged
// score of the subject: each round propagates opinions one hop further,
// which covers the small-world diameter of the §5 communities, and keeps
// weight 1/2 on a peer's own prior. The metric is differential in the
// BarterCast sense — the prior is the arctan-scaled net of bytes served
// minus bytes consumed, on Eq. 1's 1 GiB scale — so both backends agree
// on the sign of a clear sharer and a clear freerider, while reacting
// very differently to slander and sybil edges (maxflow caps a fabricated
// path at the attacker's real upload; averaging does not). That contrast
// is exactly what bench/ablation_adversary.cpp measures.
//
// Determinism contract: scores are computed by Jacobi iteration over
// graph.nodes() in ascending PeerId order, reading only the previous
// round's vector, so the floating-point addition order is a pure function
// of the graph contents. The whole score vector is memoised per
// (view, version): under CachedReputation the expensive sweep runs once
// per view mutation, not once per subject.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "bartercast/reputation.hpp"
#include "bartercast/shared_history.hpp"
#include "graph/flow_graph.hpp"
#include "util/ids.hpp"

namespace bc::bartercast {

/// Selector for NodeConfig / CLI flags.
enum class BackendKind {
  kMaxflow,             // Eq. 1 two-way maxflow (production default)
  kDifferentialGossip,  // iterative volume-weighted opinion averaging
};

/// Canonical name of a backend kind ("maxflow", "differential-gossip").
std::string_view backend_name(BackendKind kind);

/// Parses a backend name; accepts canonical names plus the short alias
/// "gossip" and treats '_' and '-' as equivalent. nullopt if unknown.
std::optional<BackendKind> parse_backend(std::string_view name);

class DifferentialGossipBackend final : public ReputationBackend {
 public:
  std::string_view name() const override { return "differential-gossip"; }
  double reputation(const SharedHistory& view,
                    PeerId subject) const override;
  /// Every round mixes opinions from arbitrarily distant peers, so a
  /// mutation anywhere can move any score: no two-hop dirty tracking.
  bool incremental_two_hop() const override { return false; }

  /// The full converged score vector on an explicit graph, exposed for
  /// tests and benches. Deterministic (see header comment).
  std::unordered_map<PeerId, double> scores(
      const graph::FlowGraph& graph) const;

 private:
  /// Per-(view, version) memo of the last score sweep. Mutated only under
  /// the const reputation() call; safe because a backend instance is
  /// owned by exactly one CachedReputation (itself single-threaded).
  mutable const SharedHistory* memo_view_ = nullptr;
  mutable std::uint64_t memo_version_ = 0;
  mutable bool memo_valid_ = false;
  mutable std::unordered_map<PeerId, double> memo_scores_;
};

/// Constructs the backend selected by `kind`. The maxflow backend takes
/// its mode and arctan unit from `reputation`; the gossip backend has no
/// settings.
std::unique_ptr<const ReputationBackend> make_backend(
    BackendKind kind, const ReputationConfig& reputation);

}  // namespace bc::bartercast
