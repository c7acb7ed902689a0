// Maximum-flow computations over a FlowGraph.
//
// Three variants are provided:
//
//  * max_flow_ford_fulkerson: the paper's Algorithm 1 (DFS augmenting paths
//    on the residual network), optionally with a bound on the number of
//    edges in an augmenting path. With the bound set to 2 this matches the
//    BarterCast implementation restriction "only regards paths with a
//    maximum length of two" (paper §3.2).
//  * max_flow_edmonds_karp: BFS (shortest augmenting path) reference
//    implementation, used to cross-check Ford-Fulkerson in tests.
//  * max_flow_two_hop: closed-form two-hop maxflow. Paths of length <= 2
//    between distinct s and t are pairwise edge-disjoint, so the maximum is
//    exactly c(s,t) + sum_v min(c(s,v), c(v,t)). The intersection of the
//    sorted successors of s and predecessors of t walks the shorter list
//    and binary-searches forward in the longer one, reading the two
//    capacities of each shared v from the graph's table:
//    O(min(deg) * log(max(deg))), so a query against a hub costs the other
//    peer's degree, not the hub's. This is the fast path of the reputation
//    engine.
//
// Note on bounded paths: for a bound of 1 or 2 the depth-limited
// Ford-Fulkerson is exact (paths are edge-disjoint). For larger bounds the
// length-constrained maxflow problem is NP-hard in general and the
// depth-limited search is a well-behaved greedy approximation — good enough
// for the path-length ablation bench, and clearly documented as such.
#pragma once

#include "graph/flow_graph.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::graph {

/// Sentinel: no limit on augmenting-path length.
inline constexpr int kUnboundedPathLength = -1;

/// Ford-Fulkerson with depth-first path search (paper Algorithm 1).
/// `max_path_edges` bounds the number of edges in each augmenting path;
/// pass kUnboundedPathLength for the classic algorithm.
/// Returns 0 if s == t or either endpoint is unknown.
Bytes max_flow_ford_fulkerson(const FlowGraph& g, PeerId s, PeerId t,
                              int max_path_edges = kUnboundedPathLength);

/// Edmonds-Karp (BFS augmenting paths). Same result as unbounded
/// Ford-Fulkerson; O(V * E^2) worst case.
Bytes max_flow_edmonds_karp(const FlowGraph& g, PeerId s, PeerId t);

/// Exact maximum flow over paths of at most two edges:
/// c(s,t) + sum over v of min(c(s,v), c(v,t)).
Bytes max_flow_two_hop(const FlowGraph& g, PeerId s, PeerId t);

}  // namespace bc::graph
