#include "bartercast/backend.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "obs/profile.hpp"
#include "util/assert.hpp"

namespace bc::bartercast {

namespace {

// The differential-gossip metric's fixed shape (backend.hpp).
constexpr int kGossipRounds = 4;
constexpr double kSelfWeight = 0.5;  // on the own prior, each round
constexpr Bytes kPriorUnit = kGiB;   // arctan unit of the prior
static_assert(kGossipRounds >= 0);
static_assert(kSelfWeight > 0.0 && kSelfWeight <= 1.0);
static_assert(kPriorUnit > 0);

}  // namespace

std::string_view backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMaxflow:
      return "maxflow";
    case BackendKind::kDifferentialGossip:
      return "differential-gossip";
  }
  return "maxflow";
}

std::optional<BackendKind> parse_backend(std::string_view name) {
  std::string key(name);
  std::replace(key.begin(), key.end(), '_', '-');
  if (key == "maxflow") return BackendKind::kMaxflow;
  if (key == "differential-gossip" || key == "gossip") {
    return BackendKind::kDifferentialGossip;
  }
  return std::nullopt;
}

std::unordered_map<PeerId, double> DifferentialGossipBackend::scores(
    const graph::FlowGraph& graph) const {
  BC_OBS_SCOPE("reputation.gossip_sweep");
  const std::vector<PeerId> nodes = graph.nodes();  // ascending
  const std::size_t n = nodes.size();

  // Contribution prior: arctan-scaled net of bytes served minus bytes
  // consumed, as recorded in this subjective graph. Same scale as Eq. 1,
  // so a clear sharer starts positive and a clear freerider negative.
  const double unit = static_cast<double>(kPriorUnit);
  std::vector<double> prior(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double net =
        static_cast<double>(graph.out_capacity(nodes[i])) -
        static_cast<double>(graph.in_capacity(nodes[i]));
    prior[i] = std::atan(net / unit) / (M_PI / 2.0);
  }

  // Dense PeerId -> slot map for the inner loops (PeerIds in a community
  // are small and contiguous; the map is only built once per sweep).
  std::unordered_map<PeerId, std::size_t> slot;
  slot.reserve(n);
  for (std::size_t i = 0; i < n; ++i) slot.emplace(nodes[i], i);

  // Jacobi iteration: every round reads `current` and writes `next`, so
  // the result is independent of node order, and the in-order loops make
  // the FP addition order reproducible bit-for-bit.
  std::vector<double> current = prior;
  std::vector<double> next(n, 0.0);
  for (int round = 0; round < kGossipRounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      double weighted = 0.0;
      double weight_sum = 0.0;
      // Both directions: peers we served and peers that served us are
      // equally acquaintances whose opinion we average in, weighted by
      // the transfer volume backing the acquaintance.
      for (const graph::Edge& e : graph.out_edges(nodes[i])) {
        const double w = static_cast<double>(e.cap);
        const auto it = slot.find(e.peer);
        BC_DASSERT(it != slot.end());
        weighted += w * current[it->second];
        weight_sum += w;
      }
      for (const graph::Edge& e : graph.in_edges(nodes[i])) {
        const double w = static_cast<double>(e.cap);
        const auto it = slot.find(e.peer);
        BC_DASSERT(it != slot.end());
        weighted += w * current[it->second];
        weight_sum += w;
      }
      next[i] = weight_sum > 0.0
                    ? kSelfWeight * prior[i] +
                          (1.0 - kSelfWeight) * weighted / weight_sum
                    : prior[i];
    }
    current.swap(next);
  }

  std::unordered_map<PeerId, double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Convex combinations of values in (-1, 1) stay inside it; the clamp
    // only guards FP rounding at the endpoints.
    out.emplace(nodes[i], std::clamp(current[i], -1.0, 1.0));
  }
  return out;
}

double DifferentialGossipBackend::reputation(const SharedHistory& view,
                                             PeerId subject) const {
  if (subject == view.owner()) return 0.0;
  if (!memo_valid_ || memo_view_ != &view ||
      memo_version_ != view.version()) {
    memo_scores_ = scores(view.graph());
    memo_view_ = &view;
    memo_version_ = view.version();
    memo_valid_ = true;
  }
  const auto it = memo_scores_.find(subject);
  return it == memo_scores_.end() ? 0.0 : it->second;
}

std::unique_ptr<const ReputationBackend> make_backend(
    BackendKind kind, const ReputationConfig& reputation) {
  switch (kind) {
    case BackendKind::kMaxflow:
      return std::make_unique<MaxflowBackend>(ReputationEngine(reputation));
    case BackendKind::kDifferentialGossip:
      return std::make_unique<DifferentialGossipBackend>();
  }
  return std::make_unique<MaxflowBackend>(ReputationEngine(reputation));
}

}  // namespace bc::bartercast
