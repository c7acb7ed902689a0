#include "graph/maxflow.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::graph {

namespace {

/// Residual network: forward residuals start at the graph capacities,
/// reverse residuals at zero (created lazily on augmentation). Line 9 of the
/// paper's Algorithm 1 — f(j,i) -= cf(p) — is exactly the reverse-residual
/// bookkeeping performed here.
///
/// Augmentation deltas are sparse relative to the graph (bounded by the
/// number of augmenting-path edges), so they live in a small side map keyed
/// by the packed endpoint pair; the adjacency itself is read straight from
/// the dense sorted edge arrays.
class Residual {
 public:
  explicit Residual(const FlowGraph& g) : g_(g) {}

  Bytes residual(PeerId u, PeerId v) const {
    Bytes r = g_.capacity(u, v);
    if (auto it = delta_.find(key(u, v)); it != delta_.end()) r += it->second;
    return r;
  }

  void augment(PeerId u, PeerId v, Bytes amount) {
    delta_[key(u, v)] -= amount;
    delta_[key(v, u)] += amount;
  }

  /// Neighbours reachable from u with positive residual capacity, visited in
  /// ascending PeerId order: a single merge-scan over the sorted out-edge
  /// array (forward residuals) and in-edge array (reverse residuals, which
  /// exist only toward predecessors in the original graph). The sorted
  /// arrays make the deterministic order free — no collect-and-sort pass.
  template <typename Fn>
  void for_each_residual_edge(PeerId u, Fn&& fn) const {
    const EdgeView out = g_.out_edges(u);
    const EdgeView in = g_.in_edges(u);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < out.size() || j < in.size()) {
      PeerId v;
      Bytes base;
      if (j == in.size() || (i < out.size() && out[i].peer <= in[j].peer)) {
        v = out[i].peer;
        base = out[i].cap;
        if (j < in.size() && in[j].peer == v) ++j;  // both directions exist
        ++i;
      } else {
        v = in[j].peer;  // reverse-only: no forward edge (u, v)
        base = 0;
        ++j;
      }
      Bytes r = base;
      if (auto it = delta_.find(key(u, v)); it != delta_.end()) {
        r = util::saturating_add(r, it->second);
      }
      if (r > 0) fn(v, r);
    }
  }

 private:
  static std::uint64_t key(PeerId u, PeerId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  const FlowGraph& g_;
  std::unordered_map<std::uint64_t, Bytes> delta_;
};

/// Search scratch reused across queries and augmentation rounds: the
/// reputation sweep calls the maxflow entry points once per subject, and
/// none of them may pay the allocator per iteration (bc-analyze rule P1).
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
  std::deque<std::vector<std::pair<PeerId, Bytes>>> frontier;
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
                   std::deque<std::vector<std::pair<PeerId, Bytes>>>& frontier,
                   std::size_t depth) {
  if (u == t) return true;
  if (depth_left == 0) return false;
  visited[g.index().find(u)] = 1;
  bool found = false;
  if (frontier.size() <= depth) frontier.emplace_back();
  // Collect candidates first so recursion does not interleave with the
  // residual merge-scan; the scan already yields ascending PeerId order.
  std::vector<std::pair<PeerId, Bytes>>& candidates = frontier[depth];
  candidates.clear();
  res.for_each_residual_edge(
      u, [&](PeerId v, Bytes r) { candidates.emplace_back(v, r); });
  for (const auto& [v, _] : candidates) {
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
  path.reserve(g.index().slot_count() + 1);
  for (;;) {
    visited.assign(g.index().slot_count(), 0);
    path.clear();
    path.push_back(s);
    // bc-analyze: allow(P1) -- dfs candidate lists are per-depth scratch in
    // SearchScratch: they grow to the high-water mark once and are reused
    // across queries, steady-state allocation-free
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
  queue.reserve(g.index().slot_count());
  for (;;) {
    // BFS for the shortest augmenting path. The parent table is a dense
    // slot-indexed array: parent[slot(v)] is the BFS predecessor of v, or
    // kInvalidPeer while v is undiscovered. The FIFO is the reusable
    // `queue` buffer with a cursor instead of pop_front: same visit order,
    // no per-round deque churn.
    parent.assign(g.index().slot_count(), kInvalidPeer);
    parent[g.index().find(s)] = s;
    queue.clear();
    queue.push_back(s);
    std::size_t cursor = 0;
    bool reached = false;
    while (cursor < queue.size() && !reached) {
      const PeerId u = queue[cursor++];
      res.for_each_residual_edge(u, [&](PeerId v, Bytes) {
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
  // direct edge is a merge-scan intersection of s's successors and t's
  // predecessors: each shared neighbour v contributes min(c(s,v), c(v,t)).
  // Neither span can contain its own node (no self-edges), so s and t are
  // excluded from the intersection automatically.
  const EdgeView out = g.out_edges(s);
  const EdgeView in = g.in_edges(t);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < out.size() && j < in.size()) {
    if (out[i].peer < in[j].peer) {
      ++i;
    } else if (in[j].peer < out[i].peer) {
      ++j;
    } else {
      flow = util::saturating_add(flow, std::min(out[i].cap, in[j].cap));
      ++i;
      ++j;
    }
  }
  flow_bytes.observe(static_cast<double>(flow));
  return flow;
}

}  // namespace bc::graph
