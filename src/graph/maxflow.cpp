#include "graph/maxflow.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"
#include "util/checked.hpp"
#include "util/flat_map.hpp"

namespace bc::graph {

namespace {

/// Residual network: forward residuals start at the graph capacities,
/// reverse residuals at zero (created lazily on augmentation). Line 9 of the
/// paper's Algorithm 1 — f(j,i) -= cf(p) — is exactly the reverse-residual
/// bookkeeping performed here.
///
/// Augmentation deltas are sparse relative to the graph (bounded by the
/// number of augmenting-path edges), so they live in a small flat table
/// keyed by the packed endpoint pair, like the graph's capacities; the
/// neighbours come straight from the graph's sorted id lists.
class Residual {
 public:
  explicit Residual(const FlowGraph& g) : g_(g) {}

  Bytes residual(PeerId u, PeerId v) const {
    Bytes r = g_.capacity(u, v);
    if (const Bytes* delta = delta_.find(edge_key(u, v))) r += *delta;
    return r;
  }

  void augment(PeerId u, PeerId v, Bytes amount) {
    *delta_.try_emplace(edge_key(u, v), 0).first -= amount;
    *delta_.try_emplace(edge_key(v, u), 0).first += amount;
  }

  /// Calls fn(v) for the neighbours v reachable from u with positive
  /// residual capacity, in ascending PeerId order, until fn returns true;
  /// returns whether it did. A single merge-scan over the sorted successor
  /// list (forward residuals) and predecessor list (reverse residuals,
  /// which exist only toward predecessors in the original graph): the
  /// sorted lists make the deterministic order free, no collect-and-sort
  /// pass. A forward edge no augmentation has touched keeps its whole,
  /// positive capacity, so a capacity is read from the table only under a
  /// delta. fn may search further: residuals change only between searches.
  template <typename Fn>
  bool any_residual_neighbour(PeerId u, Fn&& fn) const {
    const std::span<const PeerId> out = g_.out_edges(u).peers();
    const std::span<const PeerId> in = g_.in_edges(u).peers();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < out.size() || j < in.size()) {
      // A predecessor with no forward edge (u, v) is reverse-only.
      const bool forward =
          j == in.size() || (i < out.size() && out[i] <= in[j]);
      const PeerId v = forward ? out[i] : in[j];
      if (forward) {
        if (j < in.size() && in[j] == v) ++j;  // both directions exist
        ++i;
      } else {
        ++j;
      }
      const Bytes* delta = delta_.find(edge_key(u, v));
      const bool positive =
          delta == nullptr
              ? forward
              : util::saturating_add(forward ? g_.capacity(u, v) : 0,
                                     *delta) > 0;
      if (positive && fn(v)) return true;
    }
    return false;
  }

 private:
  const FlowGraph& g_;
  util::FlatMap<std::uint64_t, Bytes> delta_;  // packed (u, v) -> delta
};

/// Depth-first search state for one Ford-Fulkerson call. `visited` maps a
/// peer to the last augmentation round whose search entered it, so a new
/// round is one increment of `round` instead of an O(V) reset.
struct DepthFirst {
  DepthFirst(const Residual& residual, PeerId target)
      : res(residual), t(target) {}

  const Residual& res;
  PeerId t;
  std::uint64_t round = 0;
  util::FlatMap<PeerId, std::uint64_t> visited;
  std::vector<PeerId> path;

  /// Searches for an augmenting path of at most `depth_left` edges from u
  /// (negative: no limit), extending `path` to end at t on success.
  bool find_path(PeerId u, int depth_left) {
    if (u == t) return true;
    if (depth_left == 0) return false;
    *visited.try_emplace(u, 0).first = round;
    return res.any_residual_neighbour(u, [&](PeerId v) {
      const std::uint64_t* seen = visited.find(v);
      if (seen != nullptr && *seen == round) return false;
      path.push_back(v);
      if (find_path(v, depth_left < 0 ? -1 : depth_left - 1)) return true;
      path.pop_back();
      return false;
    });
  }
};

/// A BFS parent entry, stamped with the augmentation round that wrote it:
/// an entry from an earlier round reads as undiscovered.
struct Parent {
  std::uint64_t round = 0;
  PeerId peer = kInvalidPeer;
};

}  // namespace

Bytes max_flow_ford_fulkerson(const FlowGraph& g, PeerId s, PeerId t,
                              int max_path_edges) {
  BC_OBS_SCOPE("maxflow.ford_fulkerson");
  BC_ASSERT(max_path_edges == kUnboundedPathLength || max_path_edges >= 1);
  if (s == t || !g.has_node(s) || !g.has_node(t)) return 0;
  Residual res(g);
  Bytes flow = 0;
  DepthFirst search(res, t);
  for (;;) {
    ++search.round;
    search.path.clear();
    search.path.push_back(s);
    if (!search.find_path(s, max_path_edges)) break;
    const std::vector<PeerId>& path = search.path;
    // Bottleneck capacity along the path (line 6 of Algorithm 1).
    Bytes bottleneck = res.residual(path[0], path[1]);
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      bottleneck = std::min(bottleneck, res.residual(path[i], path[i + 1]));
    }
    BC_ASSERT(bottleneck > 0);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      res.augment(path[i], path[i + 1], bottleneck);
    }
    flow = util::saturating_add(flow, bottleneck);
    static obs::Counter& augmentations =
        obs::Registry::instance().counter("maxflow.augmenting_paths");
    augmentations.inc();
  }
  return flow;
}

Bytes max_flow_edmonds_karp(const FlowGraph& g, PeerId s, PeerId t) {
  BC_OBS_SCOPE("maxflow.edmonds_karp");
  if (s == t || !g.has_node(s) || !g.has_node(t)) return 0;
  Residual res(g);
  Bytes flow = 0;
  // parent[v] is v's BFS predecessor in the round it carries; the FIFO is
  // a vector with a cursor instead of pop_front: same visit order.
  util::FlatMap<PeerId, Parent> parent;
  std::vector<PeerId> queue;
  for (std::uint64_t round = 1;; ++round) {
    *parent.try_emplace(s, Parent{}).first = Parent{round, s};
    queue.clear();
    queue.push_back(s);
    std::size_t cursor = 0;
    bool reached = false;
    while (cursor < queue.size() && !reached) {
      const PeerId u = queue[cursor++];
      reached = res.any_residual_neighbour(u, [&](PeerId v) {
        Parent& p = *parent.try_emplace(v, Parent{}).first;
        if (p.round == round) return false;
        p = Parent{round, u};
        if (v == t) return true;
        queue.push_back(v);
        return false;
      });
    }
    if (!reached) break;
    Bytes bottleneck = 0;
    for (PeerId v = t; v != s; v = parent.at(v).peer) {
      const Bytes r = res.residual(parent.at(v).peer, v);
      bottleneck = bottleneck == 0 ? r : std::min(bottleneck, r);
    }
    BC_ASSERT(bottleneck > 0);
    for (PeerId v = t; v != s;) {
      const PeerId u = parent.at(v).peer;
      res.augment(u, v, bottleneck);
      v = u;
    }
    flow = util::saturating_add(flow, bottleneck);
  }
  return flow;
}

Bytes max_flow_two_hop(const FlowGraph& g, PeerId s, PeerId t) {
  BC_OBS_SCOPE("maxflow.two_hop");
  static obs::Counter& queries =
      obs::Registry::instance().counter("maxflow.two_hop_queries");
  static obs::LogHistogram& flow_bytes = obs::Registry::instance().log_histogram(
      "maxflow.flow_bytes", obs::LogSpec::magnitude());
  queries.inc();
  if (s == t || !g.has_node(s) || !g.has_node(t)) return 0;
  Bytes flow = g.capacity(s, t);
  // Paths of length two are pairwise edge-disjoint, so the flow beyond the
  // direct edge is the intersection of s's successors and t's
  // predecessors: each shared neighbour v contributes min(c(s,v), c(v,t)).
  // The walk takes the shorter list and binary-searches each of its ids
  // forward in the longer one, so a query against a hub costs the other
  // peer's degree times log(hub degree). Every term is positive, so the
  // saturating sum is min(total, INT64_MAX) in any order. Neither list can
  // contain its own node (no self-edges), so s and t are excluded from the
  // intersection automatically.
  const std::span<const PeerId> out = g.out_edges(s).peers();
  const std::span<const PeerId> in = g.in_edges(t).peers();
  const bool walk_out = out.size() <= in.size();
  const std::span<const PeerId> shorter = walk_out ? out : in;
  const std::span<const PeerId> longer = walk_out ? in : out;
  auto from = longer.begin();
  for (PeerId v : shorter) {
    from = std::lower_bound(from, longer.end(), v);
    if (from == longer.end()) break;
    if (*from != v) continue;
    flow = util::saturating_add(flow,
                                std::min(g.capacity(s, v), g.capacity(v, t)));
    ++from;
  }
  flow_bytes.observe(static_cast<double>(flow));
  return flow;
}

}  // namespace bc::graph
