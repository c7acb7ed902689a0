#include "bartercast/backend.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "obs/profile.hpp"
#include "util/assert.hpp"
#include "util/checked.hpp"

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

  // One pass over the graph builds each node's acquaintances, (slot,
  // weight) for its out-edges ascending and then its in-edges ascending:
  // the order every round adds them in, so the FP sums are reproducible
  // bit-for-bit. Both directions count: peers we served and peers that
  // served us are equally acquaintances whose opinion we average in,
  // weighted by the transfer volume backing the acquaintance.
  struct Acquaintance {
    std::size_t slot;
    double weight;
  };
  std::vector<Acquaintance> acquaintances;
  acquaintances.reserve(2 * graph.num_edges());
  // Node i's acquaintances are [first[i], first[i + 1]).
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<double> weight_sum(n, 0.0);
  auto slot_of = [&nodes](PeerId peer) {
    const auto it = std::lower_bound(nodes.begin(), nodes.end(), peer);
    BC_DASSERT(it != nodes.end() && *it == peer);
    return static_cast<std::size_t>(it - nodes.begin());
  };

  // Contribution prior: arctan-scaled net of bytes served minus bytes
  // consumed, as recorded in this subjective graph (the totals saturate as
  // FlowGraph::out_capacity/in_capacity do). Same scale as Eq. 1, so a
  // clear sharer starts positive and a clear freerider negative.
  const double unit = static_cast<double>(kPriorUnit);
  std::vector<double> prior(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    first[i] = acquaintances.size();
    Bytes served = 0;
    Bytes consumed = 0;
    for (const graph::Edge& e : graph.out_edges(nodes[i])) {
      served = util::saturating_add(served, e.cap);
      acquaintances.push_back({slot_of(e.peer), static_cast<double>(e.cap)});
      weight_sum[i] += acquaintances.back().weight;
    }
    for (const graph::Edge& e : graph.in_edges(nodes[i])) {
      consumed = util::saturating_add(consumed, e.cap);
      acquaintances.push_back({slot_of(e.peer), static_cast<double>(e.cap)});
      weight_sum[i] += acquaintances.back().weight;
    }
    const double net =
        static_cast<double>(served) - static_cast<double>(consumed);
    prior[i] = std::atan(net / unit) / (M_PI / 2.0);
  }
  first[n] = acquaintances.size();

  // Jacobi iteration: every round reads `current` and writes `next`, so
  // the result is independent of node order, and the in-order loops make
  // the FP addition order reproducible bit-for-bit.
  std::vector<double> current = prior;
  std::vector<double> next(n, 0.0);
  for (int round = 0; round < kGossipRounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      double weighted = 0.0;
      for (std::size_t k = first[i]; k < first[i + 1]; ++k) {
        weighted += acquaintances[k].weight * current[acquaintances[k].slot];
      }
      next[i] = weight_sum[i] > 0.0
                    ? kSelfWeight * prior[i] +
                          (1.0 - kSelfWeight) * weighted / weight_sum[i]
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
