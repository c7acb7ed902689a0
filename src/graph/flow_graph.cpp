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

std::uint32_t FlowGraph::touch(PeerId node) {
  const auto [row, inserted] =
      row_of_.try_emplace(node, static_cast<std::uint32_t>(rows_.size()));
  if (inserted) rows_.push_back(Row{node, {}, {}});
  return *row;
}

void FlowGraph::insert_edge(PeerId from, PeerId to, Bytes cap) {
  const std::uint32_t fi = touch(from);
  const std::uint32_t ti = touch(to);
  insert_sorted(rows_[fi].successors, to);
  insert_sorted(rows_[ti].predecessors, from);
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

EdgeView FlowGraph::view(PeerId node, bool out) const {
  const std::uint32_t* row = row_of_.find(node);
  std::span<const PeerId> ids;
  if (row != nullptr) {
    ids = out ? rows_[*row].successors : rows_[*row].predecessors;
  }
#if BC_GRAPH_GENERATION_CHECKS
  // An empty view borrows no storage, so it can never dangle — skip the
  // generation snapshot rather than aborting on a harmless empty().
  return EdgeView(ids, node, out, &caps_, ids.empty() ? nullptr : &gen_);
#else
  return EdgeView(ids, node, out, &caps_);
#endif
}

std::vector<PeerId> FlowGraph::nodes() const {
  std::vector<PeerId> ids;
  ids.reserve(rows_.size());
  for (const Row& row : rows_) ids.push_back(row.id);
  std::sort(ids.begin(), ids.end());
  return ids;
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
  for (const Row& row : rows_) {
    for (PeerId to : row.successors) {
      total = util::saturating_add(total, caps_.at(edge_key(row.id, to)));
    }
  }
  return total;
}

bool FlowGraph::check_invariants() const {
  // Every row's id maps back to that row and the sizes agree, so the id
  // table holds exactly the rows' ids.
  if (row_of_.size() != rows_.size()) return false;
  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    const std::uint32_t* row = row_of_.find(rows_[r].id);
    if (row == nullptr || *row != r) return false;
  }
  auto sorted = [](const std::vector<PeerId>& ids) {
    return std::adjacent_find(ids.begin(), ids.end(),
                              [](PeerId a, PeerId b) { return a >= b; }) ==
           ids.end();
  };
  auto listed = [](const std::vector<PeerId>& ids, PeerId peer) {
    return std::binary_search(ids.begin(), ids.end(), peer);
  };
  auto find_row = [&](PeerId peer) -> const Row* {
    const std::uint32_t* r = row_of_.find(peer);
    return r == nullptr ? nullptr : &rows_[*r];
  };
  std::size_t successors = 0;
  std::size_t predecessors = 0;
  for (const Row& row : rows_) {
    if (!sorted(row.successors) || !sorted(row.predecessors)) return false;
    for (PeerId to : row.successors) {
      const Row* head = find_row(to);
      if (head == nullptr || to == row.id ||
          !listed(head->predecessors, row.id)) {
        return false;
      }
      const Bytes* cap = caps_.find(edge_key(row.id, to));
      if (cap == nullptr || *cap <= 0) return false;
    }
    for (PeerId from : row.predecessors) {
      const Row* tail = find_row(from);
      if (tail == nullptr || !listed(tail->successors, row.id)) return false;
    }
    successors += row.successors.size();
    predecessors += row.predecessors.size();
  }
  // Every listed edge was found in the table above, so equal counts rule
  // out stray table entries: the table holds exactly the listed edges.
  return successors == predecessors && caps_.size() == successors;
}

}  // namespace bc::graph
