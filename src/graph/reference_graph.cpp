#include "graph/reference_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>

#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::graph {

namespace {
const std::unordered_map<PeerId, Bytes> kEmptyOut;
const std::unordered_set<PeerId> kEmptyIn;
}  // namespace

void ReferenceFlowGraph::touch(PeerId node) {
  out_.try_emplace(node);
  in_.try_emplace(node);
}

void ReferenceFlowGraph::add_capacity(PeerId from, PeerId to, Bytes amount) {
  BC_ASSERT(amount >= 0);
  BC_ASSERT_MSG(from != to, "self-edges carry no reputation information");
  touch(from);
  touch(to);
  if (amount == 0) return;
  auto [it, inserted] = out_[from].try_emplace(to, 0);
  it->second += amount;
  if (inserted) {
    in_[to].insert(from);
    ++num_edges_;
  }
}

bool ReferenceFlowGraph::raise_capacity(PeerId from, PeerId to,
                                        Bytes amount) {
  BC_ASSERT_MSG(from != to, "self-edges carry no reputation information");
  if (amount <= capacity(from, to)) return false;
  touch(from);
  touch(to);
  if (out_[from].insert_or_assign(to, amount).second) {
    in_[to].insert(from);
    ++num_edges_;
  }
  return true;
}

Bytes ReferenceFlowGraph::capacity(PeerId from, PeerId to) const {
  auto node = out_.find(from);
  if (node == out_.end()) return 0;
  auto edge = node->second.find(to);
  return edge == node->second.end() ? 0 : edge->second;
}

const std::unordered_map<PeerId, Bytes>& ReferenceFlowGraph::out_edges(
    PeerId node) const {
  auto it = out_.find(node);
  return it == out_.end() ? kEmptyOut : it->second;
}

const std::unordered_set<PeerId>& ReferenceFlowGraph::in_edges(
    PeerId node) const {
  auto it = in_.find(node);
  return it == in_.end() ? kEmptyIn : it->second;
}

std::vector<PeerId> ReferenceFlowGraph::nodes() const {
  std::vector<PeerId> ids;
  ids.reserve(out_.size());
  // bc-analyze: allow(D1) -- the keys are sorted below before they leave
  for (const auto& [id, _] : out_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Bytes ReferenceFlowGraph::out_capacity(PeerId node) const {
  Bytes total = 0;
  // bc-analyze: allow(D1) -- integer sum over all edges; addition over Bytes is commutative, order never escapes
  for (const auto& [_, cap] : out_edges(node)) {
    total = util::saturating_add(total, cap);
  }
  return total;
}

Bytes ReferenceFlowGraph::in_capacity(PeerId node) const {
  Bytes total = 0;
  // bc-analyze: allow(D1) -- integer sum over all in-edges; commutative, order never escapes
  for (PeerId from : in_edges(node)) {
    total = util::saturating_add(total, capacity(from, node));
  }
  return total;
}

Bytes ReferenceFlowGraph::total_capacity() const {
  Bytes total = 0;
  // bc-analyze: allow(D1) -- integer sum over every edge; commutative, order never escapes
  for (const auto& [_, adj] : out_) {
    for (const auto& [__, cap] : adj) {
      total = util::saturating_add(total, cap);
    }
  }
  return total;
}

bool ReferenceFlowGraph::check_invariants() const {
  std::size_t edges = 0;
  // bc-analyze: allow(D1) -- boolean all-of over every edge; a pure predicate, order cannot change the result
  for (const auto& [from, adj] : out_) {
    if (!in_.contains(from)) return false;
    for (const auto& [to, cap] : adj) {
      if (cap <= 0) return false;
      auto in_it = in_.find(to);
      if (in_it == in_.end() || !in_it->second.contains(from)) return false;
      ++edges;
    }
  }
  if (edges != num_edges_) return false;
  // Every in-edge must have a matching out-edge.
  // bc-analyze: allow(D1) -- boolean all-of over the reverse index; order cannot change the result
  for (const auto& [to, preds] : in_) {
    for (PeerId from : preds) {
      auto out_it = out_.find(from);
      if (out_it == out_.end() || !out_it->second.contains(to)) return false;
    }
  }
  return true;
}

namespace {

/// Residual network over the hash-map oracle; mirrors maxflow.cpp.
class RefResidual {
 public:
  explicit RefResidual(const ReferenceFlowGraph& g) : g_(g) {}

  Bytes residual(PeerId u, PeerId v) const {
    Bytes r = g_.capacity(u, v);
    if (auto it = delta_.find(key(u, v)); it != delta_.end()) {
      r = util::saturating_add(r, it->second);
    }
    return r;
  }

  void augment(PeerId u, PeerId v, Bytes amount) {
    delta_[key(u, v)] -= amount;
    delta_[key(v, u)] += amount;
  }

  /// Neighbours reachable from u with positive residual capacity: all
  /// forward out-edges plus reverse edges toward original predecessors.
  template <typename Fn>
  void for_each_residual_edge(PeerId u, Fn&& fn) const {
    // bc-analyze: allow(D1) -- oracle path: every caller collects the neighbours and re-sorts them by id before use
    for (const auto& [v, _] : g_.out_edges(u)) {
      const Bytes r = residual(u, v);
      if (r > 0) fn(v, r);
    }
    // bc-analyze: allow(D1) -- oracle path: every caller collects the neighbours and re-sorts them by id before use
    for (PeerId v : g_.in_edges(u)) {
      if (g_.capacity(u, v) > 0) continue;  // already visited as forward
      const Bytes r = residual(u, v);
      if (r > 0) fn(v, r);
    }
  }

 private:
  static std::uint64_t key(PeerId u, PeerId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  const ReferenceFlowGraph& g_;
  std::unordered_map<std::uint64_t, Bytes> delta_;
};

bool ref_dfs_find_path(const RefResidual& res, PeerId u, PeerId t,
                       int depth_left, std::unordered_set<PeerId>& visited,
                       std::vector<PeerId>& path) {
  if (u == t) return true;
  if (depth_left == 0) return false;
  visited.insert(u);
  bool found = false;
  // Collect candidates and sort them so the oracle explores in the same
  // ascending-PeerId order the dense merge-scan yields for free.
  std::vector<std::pair<PeerId, Bytes>> candidates;
  res.for_each_residual_edge(
      u, [&](PeerId v, Bytes r) { candidates.emplace_back(v, r); });
  std::sort(candidates.begin(), candidates.end());
  for (const auto& [v, _] : candidates) {
    if (visited.contains(v)) continue;
    path.push_back(v);
    if (ref_dfs_find_path(res, v, t, depth_left < 0 ? -1 : depth_left - 1,
                          visited, path)) {
      found = true;
      break;
    }
    path.pop_back();
  }
  return found;
}

}  // namespace

Bytes ref_max_flow_ford_fulkerson(const ReferenceFlowGraph& g, PeerId s,
                                  PeerId t, int max_path_edges) {
  BC_ASSERT(max_path_edges == kUnboundedPathLength || max_path_edges >= 1);
  if (s == t || !g.has_node(s) || !g.has_node(t)) return 0;
  RefResidual res(g);
  Bytes flow = 0;
  for (;;) {
    std::unordered_set<PeerId> visited;
    std::vector<PeerId> path{s};
    if (!ref_dfs_find_path(res, s, t, max_path_edges, visited, path)) break;
    Bytes bottleneck = res.residual(path[0], path[1]);
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      bottleneck = std::min(bottleneck, res.residual(path[i], path[i + 1]));
    }
    BC_ASSERT(bottleneck > 0);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      res.augment(path[i], path[i + 1], bottleneck);
    }
    flow = util::saturating_add(flow, bottleneck);
  }
  return flow;
}

Bytes ref_max_flow_edmonds_karp(const ReferenceFlowGraph& g, PeerId s,
                                PeerId t) {
  if (s == t || !g.has_node(s) || !g.has_node(t)) return 0;
  RefResidual res(g);
  Bytes flow = 0;
  for (;;) {
    std::unordered_map<PeerId, PeerId> parent;
    parent[s] = s;
    std::deque<PeerId> queue{s};
    bool reached = false;
    while (!queue.empty() && !reached) {
      const PeerId u = queue.front();
      queue.pop_front();
      std::vector<PeerId> next;
      res.for_each_residual_edge(u, [&](PeerId v, Bytes) {
        if (!parent.contains(v)) next.push_back(v);
      });
      std::sort(next.begin(), next.end());
      for (PeerId v : next) {
        if (parent.contains(v)) continue;
        parent[v] = u;
        if (v == t) {
          reached = true;
          break;
        }
        queue.push_back(v);
      }
    }
    if (!reached) break;
    Bytes bottleneck = 0;
    for (PeerId v = t; v != s; v = parent[v]) {
      const Bytes r = res.residual(parent[v], v);
      bottleneck = bottleneck == 0 ? r : std::min(bottleneck, r);
    }
    BC_ASSERT(bottleneck > 0);
    for (PeerId v = t; v != s; v = parent[v]) {
      res.augment(parent[v], v, bottleneck);
    }
    flow = util::saturating_add(flow, bottleneck);
  }
  return flow;
}

Bytes ref_max_flow_two_hop(const ReferenceFlowGraph& g, PeerId s, PeerId t) {
  if (s == t || !g.has_node(s) || !g.has_node(t)) return 0;
  Bytes flow = g.capacity(s, t);
  // bc-analyze: allow(D1) -- commutative Bytes sum over disjoint two-hop paths; order cannot change the flow
  for (const auto& [v, cap_sv] : g.out_edges(s)) {
    if (v == t) continue;
    const Bytes cap_vt = g.capacity(v, t);
    if (cap_vt > 0) {
      flow = util::saturating_add(flow, std::min(cap_sv, cap_vt));
    }
  }
  return flow;
}

}  // namespace bc::graph
