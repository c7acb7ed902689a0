// Reference (oracle) graph implementation for differential testing.
//
// This is the pre-dense-core FlowGraph: nested hash-map adjacency with a
// mirrored in-edge set, plus straight ports of the three maxflow variants
// on top of it. It is retained verbatim-in-spirit as an independent oracle:
// the differential test suite (tests/graph/differential_test.cpp) drives
// the dense FlowGraph and this ReferenceFlowGraph through identical
// randomized add/raise sequences and cross-checks every query and all
// three maxflow variants. Like FlowGraph it only grows. It also backs the
// dense-vs-hash comparison in bench/graph_core.cpp.
//
// Not for production use: the hash layout is slower on the two-hop hot path
// and its iteration order is only made deterministic by per-call sorting.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/maxflow.hpp"  // kUnboundedPathLength
#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::graph {

class ReferenceFlowGraph {
 public:
  /// Adds `amount` to the capacity of edge (from, to). Creates nodes and the
  /// edge as needed. `amount` must be >= 0; zero-amount calls still create
  /// the nodes (but not the edge).
  void add_capacity(PeerId from, PeerId to, Bytes amount);

  /// Sets the capacity of edge (from, to) to max(capacity, amount) and
  /// returns whether it rose. Only a raise creates the nodes and the edge.
  bool raise_capacity(PeerId from, PeerId to, Bytes amount);

  /// Capacity of (from, to); 0 if the edge or either node is absent.
  Bytes capacity(PeerId from, PeerId to) const;

  bool has_node(PeerId node) const { return out_.contains(node); }
  std::size_t num_nodes() const { return out_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Successors of `node` with positive capacity. Empty map for unknown node.
  const std::unordered_map<PeerId, Bytes>& out_edges(PeerId node) const;
  /// Predecessors of `node` (nodes with a positive-capacity edge into it).
  const std::unordered_set<PeerId>& in_edges(PeerId node) const;

  /// All node ids, sorted ascending.
  std::vector<PeerId> nodes() const;

  /// Sum of capacities of all edges.
  Bytes total_capacity() const;

  Bytes out_capacity(PeerId node) const;
  Bytes in_capacity(PeerId node) const;

  /// Internal consistency check (out/in indices mirror each other, all
  /// capacities positive).
  bool check_invariants() const;

 private:
  // Ensures the node exists in both indices.
  void touch(PeerId node);

  std::unordered_map<PeerId, std::unordered_map<PeerId, Bytes>> out_;
  std::unordered_map<PeerId, std::unordered_set<PeerId>> in_;
  std::size_t num_edges_ = 0;
};

/// Oracle ports of the maxflow variants over the hash-map representation.
/// Semantics match the dense implementations in maxflow.cpp exactly
/// (including the deterministic ascending-PeerId exploration order, which
/// the hash version recovers by sorting candidates per step).
Bytes ref_max_flow_ford_fulkerson(const ReferenceFlowGraph& g, PeerId s,
                                  PeerId t,
                                  int max_path_edges = kUnboundedPathLength);
Bytes ref_max_flow_edmonds_karp(const ReferenceFlowGraph& g, PeerId s,
                                PeerId t);
Bytes ref_max_flow_two_hop(const ReferenceFlowGraph& g, PeerId s, PeerId t);

}  // namespace bc::graph
