#include "graph/maxflow.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
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

  /// Neighbours reachable from u with positive residual capacity, visited in
  /// ascending PeerId order: a single merge-scan over the sorted successor
  /// list (forward residuals) and predecessor list (reverse residuals, which
  /// exist only toward predecessors in the original graph). The sorted
  /// lists make the deterministic order free — no collect-and-sort pass. A
  /// forward edge no augmentation has touched keeps its whole, positive
  /// capacity, so a capacity is read from the table only under a delta.
  template <typename Fn>
  void for_each_residual_neighbour(PeerId u, Fn&& fn) const {
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
      if (delta == nullptr) {
        if (forward) fn(v);
        continue;
      }
      const Bytes base = forward ? g_.capacity(u, v) : 0;
      if (util::saturating_add(base, *delta) > 0) fn(v);
    }
  }

 private:
  const FlowGraph& g_;
  util::FlatMap<std::uint64_t, Bytes> delta_;  // packed (u, v) -> delta
};

/// Search scratch reused across queries and augmentation rounds: the
/// reputation sweep calls the maxflow entry points once per subject, and
/// none of them pays the allocator per iteration.
/// Buffers grow to the high-water mark once and are reset with
/// assign()/clear(); one instance serves the process, which runs on one
/// thread (DESIGN.md §10). `frontier` holds one candidate list per DFS
/// depth; it is a deque so growing it mid-recursion never invalidates the
/// candidate list a shallower frame is iterating.
struct SearchScratch {
  std::vector<char> visited;
  std::vector<PeerId> path;
  std::vector<PeerId> parent;
  std::vector<PeerId> queue;  // BFS FIFO: a cursor chases push_backs
  std::deque<std::vector<PeerId>> frontier;
};

SearchScratch& search_scratch() {
  static SearchScratch scratch;
  return scratch;
}

/// Depth-first search for an augmenting path of at most `depth_left` edges.
/// Fills `path` with the node sequence s..t on success. `visited` is a
/// dense slot-indexed bitmap (sized to the graph's slot table); `frontier`
/// is the per-depth candidate scratch and `depth` this frame's level.
bool dfs_find_path(const FlowGraph& g, const Residual& res, PeerId u, PeerId t,
                   int depth_left, std::vector<char>& visited,
                   std::vector<PeerId>& path,
                   std::deque<std::vector<PeerId>>& frontier,
                   std::size_t depth) {
  if (u == t) return true;
  if (depth_left == 0) return false;
  visited[g.index().find(u)] = 1;
  bool found = false;
  if (frontier.size() <= depth) frontier.emplace_back();
  // Collect candidates first so recursion does not interleave with the
  // residual merge-scan; the scan already yields ascending PeerId order.
  std::vector<PeerId>& candidates = frontier[depth];
  candidates.clear();
  res.for_each_residual_neighbour(
      u, [&](PeerId v) { candidates.push_back(v); });
  for (PeerId v : candidates) {
    if (visited[g.index().find(v)] != 0) continue;
    path.push_back(v);
    if (dfs_find_path(g, res, v, t, depth_left < 0 ? -1 : depth_left - 1,
                      visited, path, frontier, depth + 1)) {
      found = true;
      break;
    }
    path.pop_back();
  }
  return found;
}

}  // namespace

Bytes max_flow_ford_fulkerson(const FlowGraph& g, PeerId s, PeerId t,
                              int max_path_edges) {
  BC_OBS_SCOPE("maxflow.ford_fulkerson");
  BC_ASSERT(max_path_edges == kUnboundedPathLength || max_path_edges >= 1);
  if (s == t || !g.has_node(s) || !g.has_node(t)) return 0;
  Residual res(g);
  Bytes flow = 0;
  SearchScratch& scratch = search_scratch();
  std::vector<char>& visited = scratch.visited;
  std::vector<PeerId>& path = scratch.path;
  path.reserve(g.index().size() + 1);
  for (;;) {
    visited.assign(g.index().size(), 0);
    path.clear();
    path.push_back(s);
    if (!dfs_find_path(g, res, s, t, max_path_edges, visited, path,
                       scratch.frontier, 0)) {
      break;
    }
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
  SearchScratch& scratch = search_scratch();
  std::vector<PeerId>& parent = scratch.parent;
  std::vector<PeerId>& queue = scratch.queue;
  queue.reserve(g.index().size());
  for (;;) {
    // BFS for the shortest augmenting path. The parent table is a dense
    // slot-indexed array: parent[slot(v)] is the BFS predecessor of v, or
    // kInvalidPeer while v is undiscovered. The FIFO is the reusable
    // `queue` buffer with a cursor instead of pop_front: same visit order,
    // no per-round deque churn.
    parent.assign(g.index().size(), kInvalidPeer);
    parent[g.index().find(s)] = s;
    queue.clear();
    queue.push_back(s);
    std::size_t cursor = 0;
    bool reached = false;
    while (cursor < queue.size() && !reached) {
      const PeerId u = queue[cursor++];
      res.for_each_residual_neighbour(u, [&](PeerId v) {
        if (reached) return;
        PeerId& p = parent[g.index().find(v)];
        if (p != kInvalidPeer) return;
        p = u;
        if (v == t) {
          reached = true;
          return;
        }
        queue.push_back(v);
      });
    }
    if (!reached) break;
    Bytes bottleneck = 0;
    for (PeerId v = t; v != s; v = parent[g.index().find(v)]) {
      const Bytes r = res.residual(parent[g.index().find(v)], v);
      bottleneck = bottleneck == 0 ? r : std::min(bottleneck, r);
    }
    BC_ASSERT(bottleneck > 0);
    for (PeerId v = t; v != s;) {
      const PeerId u = parent[g.index().find(v)];
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
