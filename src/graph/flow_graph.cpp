#include "graph/flow_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::graph {

namespace {

/// Position of `peer` in a sorted adjacency array (lower bound).
std::vector<Edge>::iterator adj_lower_bound(std::vector<Edge>& adj,
                                            PeerId peer) {
  return std::lower_bound(
      adj.begin(), adj.end(), peer,
      [](const Edge& e, PeerId p) { return e.peer < p; });
}

std::vector<Edge>::const_iterator adj_lower_bound(
    const std::vector<Edge>& adj, PeerId peer) {
  return std::lower_bound(
      adj.begin(), adj.end(), peer,
      [](const Edge& e, PeerId p) { return e.peer < p; });
}

/// Pointer to the entry for `peer`, or nullptr if absent.
const Edge* adj_find(const std::vector<Edge>& adj, PeerId peer) {
  auto it = adj_lower_bound(adj, peer);
  return it != adj.end() && it->peer == peer ? &*it : nullptr;
}

}  // namespace

NodeIndex FlowGraph::touch(PeerId node) {
  const NodeIndex slot = index_.intern(node);
  if (slot >= out_.size()) {
    out_.resize(index_.size());
    in_.resize(index_.size());
  }
  return slot;
}

void FlowGraph::add_capacity(PeerId from, PeerId to, Bytes amount) {
  BC_ASSERT(amount >= 0);
  BC_ASSERT_MSG(from != to, "self-edges carry no reputation information");
  const NodeIndex fi = touch(from);
  const NodeIndex ti = touch(to);
  if (amount == 0) return;
  auto& adj = out_[fi];
  auto it = adj_lower_bound(adj, to);
  if (it != adj.end() && it->peer == to) {
    // Gossiped capacities are attacker-influenced: saturate rather than
    // trust the remote ledger to stay inside int64.
    it->cap = util::saturating_add(it->cap, amount);
    adj_lower_bound(in_[ti], from)->cap = it->cap;
    caps_.insert_or_assign(from, to, it->cap);
  } else {
    adj.insert(it, Edge{to, amount});
    auto& mirror = in_[ti];
    mirror.insert(adj_lower_bound(mirror, from), Edge{from, amount});
    caps_.insert_or_assign(from, to, amount);
    ++num_edges_;
    ++gen_;
  }
}

bool FlowGraph::raise_capacity(PeerId from, PeerId to, Bytes amount) {
  BC_ASSERT_MSG(from != to, "self-edges carry no reputation information");
  // Every capacity is positive and an absent edge reads 0, so an amount
  // <= 0 never raises; otherwise one sidecar probe settles the common
  // merge check, which raises nothing.
  if (amount <= 0 || amount <= capacity(from, to)) return false;
  const NodeIndex fi = touch(from);
  const NodeIndex ti = touch(to);
  auto& adj = out_[fi];
  auto it = adj_lower_bound(adj, to);
  if (it != adj.end() && it->peer == to) {
    it->cap = amount;
    adj_lower_bound(in_[ti], from)->cap = amount;
  } else {
    adj.insert(it, Edge{to, amount});
    auto& mirror = in_[ti];
    mirror.insert(adj_lower_bound(mirror, from), Edge{from, amount});
    ++num_edges_;
    ++gen_;
  }
  caps_.insert_or_assign(from, to, amount);
  return true;
}

Bytes FlowGraph::capacity(PeerId from, PeerId to) const {
  const Bytes* cap = caps_.find(from, to);
  return cap == nullptr ? 0 : *cap;
}

std::span<const Edge> FlowGraph::edges_of(
    const std::vector<std::vector<Edge>>& side, PeerId node) const {
  const NodeIndex slot = index_.find(node);
  if (slot == kNoNode) return {};
  return side[slot];
}

EdgeView FlowGraph::out_edges(PeerId node) const {
  const std::span<const Edge> edges = edges_of(out_, node);
#if BC_GRAPH_GENERATION_CHECKS
  // An empty span borrows no storage, so it can never dangle — skip the
  // generation snapshot rather than aborting on a harmless empty().
  return EdgeView(edges, edges.empty() ? nullptr : &gen_);
#else
  return EdgeView(edges);
#endif
}

EdgeView FlowGraph::in_edges(PeerId node) const {
  const std::span<const Edge> edges = edges_of(in_, node);
#if BC_GRAPH_GENERATION_CHECKS
  return EdgeView(edges, edges.empty() ? nullptr : &gen_);
#else
  return EdgeView(edges);
#endif
}

Bytes FlowGraph::out_capacity(PeerId node) const {
  Bytes total = 0;
  for (const Edge& e : out_edges(node)) {
    total = util::saturating_add(total, e.cap);
  }
  return total;
}

Bytes FlowGraph::in_capacity(PeerId node) const {
  Bytes total = 0;
  for (const Edge& e : in_edges(node)) {
    total = util::saturating_add(total, e.cap);
  }
  return total;
}

Bytes FlowGraph::total_capacity() const {
  Bytes total = 0;
  for (const auto& adj : out_) {
    for (const Edge& e : adj) total = util::saturating_add(total, e.cap);
  }
  return total;
}

bool FlowGraph::check_invariants() const {
  if (!index_.check_invariants()) return false;
  if (out_.size() != in_.size()) return false;
  if (out_.size() != index_.size()) return false;
  auto sorted_positive = [](const std::vector<Edge>& adj) {
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (adj[i].cap <= 0) return false;
      if (i > 0 && adj[i - 1].peer >= adj[i].peer) return false;
    }
    return true;
  };
  std::size_t edges = 0;
  for (NodeIndex slot = 0; slot < out_.size(); ++slot) {
    const PeerId id = index_.peer(slot);
    if (!sorted_positive(out_[slot]) || !sorted_positive(in_[slot])) {
      return false;
    }
    for (const Edge& e : out_[slot]) {
      const NodeIndex to = index_.find(e.peer);
      if (to == kNoNode || to >= in_.size()) return false;
      const Edge* mirror = adj_find(in_[to], id);
      if (mirror == nullptr || mirror->cap != e.cap) return false;
      // The point-query sidecar must agree with the adjacency array.
      const Bytes* side = caps_.find(id, e.peer);
      if (side == nullptr || *side != e.cap) return false;
      ++edges;
    }
    // Every in-edge must have a matching out-edge with the same capacity.
    for (const Edge& e : in_[slot]) {
      const NodeIndex from = index_.find(e.peer);
      if (from == kNoNode || from >= out_.size()) return false;
      const Edge* fwd = adj_find(out_[from], id);
      if (fwd == nullptr || fwd->cap != e.cap) return false;
    }
  }
  // Size equality makes the sidecar's agreement exact: every edge was
  // found above, so equal counts rule out stray sidecar entries.
  if (caps_.size() != num_edges_) return false;
  return edges == num_edges_;
}

}  // namespace bc::graph
