#include "graph/flow_graph.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::graph {

namespace {

/// Inserts `peer`, which is absent, into the sorted id list.
void insert_sorted(std::vector<PeerId>& ids, PeerId peer) {
  ids.insert(std::lower_bound(ids.begin(), ids.end(), peer), peer);
}

}  // namespace

NodeIndex FlowGraph::touch(PeerId node) {
  const NodeIndex slot = index_.intern(node);
  if (slot >= succ_.size()) {
    succ_.resize(index_.size());
    pred_.resize(index_.size());
  }
  return slot;
}

void FlowGraph::insert_edge(PeerId from, PeerId to, Bytes cap) {
  const NodeIndex fi = touch(from);
  const NodeIndex ti = touch(to);
  insert_sorted(succ_[fi], to);
  insert_sorted(pred_[ti], from);
  caps_.try_emplace(edge_key(from, to), cap);
  ++gen_;
}

void FlowGraph::add_capacity(PeerId from, PeerId to, Bytes amount) {
  BC_ASSERT(amount >= 0);
  BC_ASSERT_MSG(from != to, "self-edges carry no reputation information");
  if (amount == 0) {
    touch(from);
    touch(to);
    return;
  }
  if (Bytes* cap = caps_.find(edge_key(from, to))) {
    // Gossiped capacities are attacker-influenced: saturate rather than
    // trust the remote ledger to stay inside int64.
    *cap = util::saturating_add(*cap, amount);
    return;
  }
  insert_edge(from, to, amount);
}

bool FlowGraph::raise_capacity(PeerId from, PeerId to, Bytes amount) {
  BC_ASSERT_MSG(from != to, "self-edges carry no reputation information");
  // Every capacity is positive and an absent edge reads 0, so an amount
  // <= 0 never raises; otherwise one table probe settles the common merge
  // check, which raises nothing, and writes a raise in place.
  if (amount <= 0) return false;
  if (Bytes* cap = caps_.find(edge_key(from, to))) {
    if (amount <= *cap) return false;
    *cap = amount;
    return true;
  }
  insert_edge(from, to, amount);
  return true;
}

EdgeView FlowGraph::view(const Lists& side, PeerId node, bool out) const {
  const NodeIndex slot = index_.find(node);
  const std::span<const PeerId> ids =
      slot == kNoNode ? std::span<const PeerId>() : side[slot];
#if BC_GRAPH_GENERATION_CHECKS
  // An empty view borrows no storage, so it can never dangle — skip the
  // generation snapshot rather than aborting on a harmless empty().
  return EdgeView(ids, node, out, &caps_, ids.empty() ? nullptr : &gen_);
#else
  return EdgeView(ids, node, out, &caps_);
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
  for (NodeIndex slot = 0; slot < succ_.size(); ++slot) {
    const PeerId from = index_.peer(slot);
    for (PeerId to : succ_[slot]) {
      total = util::saturating_add(total, caps_.at(edge_key(from, to)));
    }
  }
  return total;
}

bool FlowGraph::check_invariants() const {
  if (!index_.check_invariants()) return false;
  if (succ_.size() != index_.size() || pred_.size() != index_.size()) {
    return false;
  }
  auto sorted = [](const std::vector<PeerId>& ids) {
    return std::adjacent_find(ids.begin(), ids.end(),
                              [](PeerId a, PeerId b) { return a >= b; }) ==
           ids.end();
  };
  auto listed = [](const std::vector<PeerId>& ids, PeerId peer) {
    return std::binary_search(ids.begin(), ids.end(), peer);
  };
  std::size_t successors = 0;
  std::size_t predecessors = 0;
  for (NodeIndex slot = 0; slot < succ_.size(); ++slot) {
    const PeerId id = index_.peer(slot);
    if (!sorted(succ_[slot]) || !sorted(pred_[slot])) return false;
    for (PeerId to : succ_[slot]) {
      const NodeIndex ti = index_.find(to);
      if (ti == kNoNode || ti == slot || !listed(pred_[ti], id)) return false;
      const Bytes* cap = caps_.find(edge_key(id, to));
      if (cap == nullptr || *cap <= 0) return false;
    }
    for (PeerId from : pred_[slot]) {
      const NodeIndex fi = index_.find(from);
      if (fi == kNoNode || !listed(succ_[fi], id)) return false;
    }
    successors += succ_[slot].size();
    predecessors += pred_[slot].size();
  }
  // Every listed edge was found in the table above, so equal counts rule
  // out stray table entries: the table holds exactly the listed edges.
  return successors == predecessors && caps_.size() == successors;
}

}  // namespace bc::graph
