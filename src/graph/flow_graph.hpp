// Directed graph with non-negative integer edge capacities.
//
// In BarterCast the capacity c(i, j) is "the total number of bytes peer i
// has uploaded to peer j in the past" (paper §3.2), and gossiped totals are
// merged with max (§3.4). So the graph only grows: it gains nodes and edges
// and its capacities rise, but nothing is ever removed or lowered. It is
// sparse and mutated incrementally as transfer records arrive; merging
// records and answering the two-hop maxflow are the whole client path.
//
// Each capacity is stored once, in a flat table keyed by the (from, to)
// PeerId pair, so checking or raising an existing edge is one probe. The
// structure sits beside it in a dense-index core: a PeerIndex interns
// PeerIds to dense NodeIndex slots, and each node keeps two sorted PeerId
// lists, its successors and its predecessors. The sorted lists make the
// two-hop flow a sorted-list intersection (see maxflow.cpp) and every
// public iteration surface deterministically ordered without sorted_view
// wrappers; the edge views read each capacity from the table.
//
// The public API speaks PeerId only. Dense indices are an internal detail
// of src/graph/ (bc-analyze rule G1 flags leaks); the `index()` accessor
// exists for the maxflow implementations and tests of this module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "graph/peer_index.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

/// Debug-build invalidation checking for EdgeView. When on, every view
/// carries a snapshot of the owning graph's generation counter and every
/// access asserts the graph has not been structurally mutated since the
/// view was taken: together with ASan, the gate for stale views. Release
/// builds compile the bookkeeping out entirely.
#ifndef NDEBUG
#define BC_GRAPH_GENERATION_CHECKS 1
#else
#define BC_GRAPH_GENERATION_CHECKS 0
#endif

namespace bc::graph {

/// One adjacency entry: a neighbor and the capacity of the connecting edge.
/// Out of node u, `peer` is the head v of edge (u, v); into node v, `peer`
/// is the tail u. Either way `cap` is c(u, v), read from the capacity table.
struct Edge {
  PeerId peer;
  Bytes cap;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// The graph's only store of capacities: packed (from, to) -> c(from, to).
using CapacityTable = util::FlatMap<std::uint64_t, Bytes>;

/// The capacity table's key for edge (from, to). Its free-cell key, all
/// ones, packs the self-edge (kInvalidPeer, kInvalidPeer), which no graph
/// stores.
inline std::uint64_t edge_key(PeerId from, PeerId to) {
  return (std::uint64_t{from} << 32) | std::uint64_t{to};
}

/// A read-only view of one node's successors or predecessors, ascending by
/// PeerId, yielding Edge{peer, cap} by value. In debug and validate builds
/// every access BC_DASSERT-checks that the owning FlowGraph has not
/// inserted an edge since the view was taken: an insert may move the id
/// lists, so holding a view across add_capacity/raise_capacity is the
/// classic dangling-span bug, and this makes it fail-stop instead of silent
/// UB. Capacities are read at access time, so a view sees in-place raises.
class EdgeView {
 public:
  class iterator {
   public:
    // Yields Edge by value, so it is an input iterator to the standard
    // algorithms.
    using iterator_category = std::input_iterator_tag;
    using value_type = Edge;
    using difference_type = std::ptrdiff_t;
    using reference = Edge;
    using pointer = void;

    iterator() = default;

    Edge operator*() const {
      return Edge{*p_, caps_->at(out_ ? edge_key(node_, *p_)
                                      : edge_key(*p_, node_))};
    }
    iterator& operator++() {
      ++p_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++p_;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.p_ == b.p_;
    }

   private:
    friend class EdgeView;
    iterator(const PeerId* p, PeerId node, bool out,
             const CapacityTable* caps)
        : p_(p), node_(node), out_(out), caps_(caps) {}

    const PeerId* p_ = nullptr;
    PeerId node_ = kInvalidPeer;
    bool out_ = true;
    const CapacityTable* caps_ = nullptr;
  };
  using value_type = Edge;

  EdgeView() = default;

  iterator begin() const {
    check();
    return iterator(ids_.data(), node_, out_, caps_);
  }
  iterator end() const {
    check();
    return iterator(ids_.data() + ids_.size(), node_, out_, caps_);
  }
  std::size_t size() const {
    check();
    return ids_.size();
  }
  bool empty() const {
    check();
    return ids_.empty();
  }
  Edge operator[](std::size_t i) const {
    return *iterator(&peers()[i], node_, out_, caps_);
  }

  /// The neighbor ids alone, ascending, for callers that need no capacity.
  /// Checked when taken; like the view, invalidated by any edge insert.
  std::span<const PeerId> peers() const {
    check();
    return ids_;
  }

 private:
  friend class FlowGraph;

  std::span<const PeerId> ids_;
  PeerId node_ = kInvalidPeer;  // the node whose neighbors these are
  bool out_ = true;             // successors (else predecessors)
  const CapacityTable* caps_ = nullptr;

#if BC_GRAPH_GENERATION_CHECKS
  EdgeView(std::span<const PeerId> ids, PeerId node, bool out,
           const CapacityTable* caps, const std::uint64_t* gen)
      : ids_(ids), node_(node), out_(out), caps_(caps), gen_(gen),
        snapshot_(gen != nullptr ? *gen : 0) {}

  void check() const {
    BC_DASSERT(gen_ == nullptr || *gen_ == snapshot_);
  }

  const std::uint64_t* gen_ = nullptr;  // owning graph's counter; null = empty
  std::uint64_t snapshot_ = 0;          // counter value when the view was taken
#else
  EdgeView(std::span<const PeerId> ids, PeerId node, bool out,
           const CapacityTable* caps)
      : ids_(ids), node_(node), out_(out), caps_(caps) {}

  void check() const {}
#endif
};

class FlowGraph {
 public:
  /// Adds `amount` to the capacity of edge (from, to). Creates nodes and the
  /// edge as needed. `amount` must be >= 0; zero-amount calls still create
  /// the nodes (but not the edge).
  void add_capacity(PeerId from, PeerId to, Bytes amount);

  /// Sets the capacity of edge (from, to) to max(capacity, amount) and
  /// returns whether it rose: the max-merge of a gossiped total (paper
  /// §3.4). Only a raise creates the nodes and the edge.
  bool raise_capacity(PeerId from, PeerId to, Bytes amount);

  /// Capacity of (from, to); 0 if the edge or either node is absent.
  Bytes capacity(PeerId from, PeerId to) const {
    const Bytes* cap = caps_.find(edge_key(from, to));
    return cap == nullptr ? 0 : *cap;
  }

  bool has_node(PeerId node) const { return index_.contains(node); }
  std::size_t num_nodes() const { return index_.size(); }
  std::size_t num_edges() const { return caps_.size(); }

  /// Successors of `node` with positive capacity, ascending by PeerId.
  /// Empty view for an unknown node. Invalidated by any edge insert (debug
  /// builds assert on stale access; see EdgeView).
  EdgeView out_edges(PeerId node) const { return view(succ_, node, true); }
  /// Predecessors of `node` (each entry: tail peer and the capacity of the
  /// edge into `node`), ascending by PeerId. Invalidated by any edge insert
  /// (debug builds assert on stale access; see EdgeView).
  EdgeView in_edges(PeerId node) const { return view(pred_, node, false); }

  /// All node ids, sorted ascending (deterministic across runs and
  /// standard-library implementations).
  std::vector<PeerId> nodes() const { return index_.ids_sorted(); }

  /// Sum of capacities of all edges.
  Bytes total_capacity() const;

  /// Sum of capacities leaving `node` (an upper bound on any s=node flow:
  /// the trivial cut around the source). 0 for unknown nodes.
  Bytes out_capacity(PeerId node) const;
  /// Sum of capacities entering `node` (the trivial cut around the sink).
  Bytes in_capacity(PeerId node) const;

  /// Internal consistency check (id lists sorted strictly ascending and
  /// mirroring each other, the capacity table holding exactly the listed
  /// edges with positive capacities, PeerIndex bijection intact). Used by
  /// tests and BC_DASSERT call sites.
  bool check_invariants() const;

  /// The interning layer, exposed for the maxflow implementations and the
  /// tests of this module only (bc-analyze G1 enforces the boundary).
  const PeerIndex& index() const { return index_; }

  /// Structural-mutation counter: bumped by every edge insert, the only
  /// operation that can invalidate an outstanding EdgeView. Maintained in
  /// all build types (one increment per insert is noise next to the
  /// list inserts); only debug builds *check* it. Exposed for tests and
  /// external snapshot protocols.
  std::uint64_t generation() const { return gen_; }

 private:
  using Lists = std::vector<std::vector<PeerId>>;  // slot -> sorted ids

  // Ensures the node exists, returning its slot.
  NodeIndex touch(PeerId node);

  // Adds the absent edge (from, to) with capacity `cap` > 0.
  void insert_edge(PeerId from, PeerId to, Bytes cap);

  // The view of `node` in one side (succ_ or pred_); empty when unknown.
  EdgeView view(const Lists& side, PeerId node, bool out) const;

  PeerIndex index_;
  Lists succ_;          // slot -> successors
  Lists pred_;          // slot -> predecessors
  CapacityTable caps_;  // (from, to) -> capacity, for every listed edge
  std::uint64_t gen_ = 0;  // see generation()
};

}  // namespace bc::graph
