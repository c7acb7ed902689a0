// Directed graph with non-negative integer edge capacities.
//
// In BarterCast the capacity c(i, j) is "the total number of bytes peer i
// has uploaded to peer j in the past" (paper §3.2), and gossiped totals are
// merged with max (§3.4). So the graph only grows: it gains nodes and edges
// and its capacities rise, but nothing is ever removed or lowered. It is
// sparse and mutated incrementally as transfer records arrive; at
// reputation-serving scale the two-hop maxflow query is the hot path of the
// whole system, so storage is a dense-index core: a PeerIndex interns
// PeerIds to dense NodeIndex slots, and per-node adjacency is a sorted
// array of Edge entries (ascending neighbor PeerId) with a mirrored in-edge
// array for reverse traversal. Sorted arrays make neighbor queries a binary
// search, the two-hop flow a linear merge-scan (see maxflow.cpp), and every
// public iteration surface deterministically ordered without sorted_view
// wrappers.
//
// The public API speaks PeerId only. Dense indices are an internal detail
// of src/graph/ (bc-analyze rule G1 flags leaks); the `index()` accessor
// exists for the maxflow implementations and tests of this module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/peer_index.hpp"
#include "util/assert.hpp"
#include "util/checked.hpp"  // BC_NO_SANITIZE_INTEGER
#include "util/ids.hpp"
#include "util/units.hpp"

/// Debug-build invalidation checking for EdgeView. When on, every view
/// carries a snapshot of the owning graph's generation counter and every
/// access asserts the graph has not been structurally mutated since the
/// view was taken: together with ASan, the gate for stale views. Release
/// builds compile the bookkeeping out entirely; EdgeView is then
/// layout-identical to std::span<const Edge>.
#ifndef NDEBUG
#define BC_GRAPH_GENERATION_CHECKS 1
#else
#define BC_GRAPH_GENERATION_CHECKS 0
#endif

namespace bc::graph {

/// One adjacency entry: a neighbor and the capacity of the connecting edge.
/// In an out-edge array of node u, `peer` is the head v of edge (u, v); in
/// an in-edge array of node v, `peer` is the tail u and `cap` the same
/// c(u, v) (the mirror stores capacities so reverse scans need no lookup).
struct Edge {
  PeerId peer;
  Bytes cap;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// A read-only view of one node's adjacency array. Semantically a
/// std::span<const Edge> (and exactly that in release builds), but in debug
/// and validate builds every access BC_DASSERT-checks that the owning
/// FlowGraph has not inserted an edge since the view was taken: an insert
/// may move adjacency storage, so holding a view across
/// add_capacity/raise_capacity is the classic dangling-span bug, and this
/// makes it fail-stop instead of silent UB.
class EdgeView {
 public:
  using value_type = Edge;
  using iterator = const Edge*;

  EdgeView() = default;

  const Edge* begin() const {
    check();
    return span_.data();
  }
  const Edge* end() const {
    check();
    return span_.data() + span_.size();
  }
  std::size_t size() const {
    check();
    return span_.size();
  }
  bool empty() const {
    check();
    return span_.empty();
  }
  const Edge& operator[](std::size_t i) const {
    check();
    return span_[i];
  }
  const Edge& front() const {
    check();
    return span_.front();
  }
  const Edge& back() const {
    check();
    return span_.back();
  }

 private:
  friend class FlowGraph;

#if BC_GRAPH_GENERATION_CHECKS
  EdgeView(std::span<const Edge> span, const std::uint64_t* gen)
      : span_(span), gen_(gen), snapshot_(gen != nullptr ? *gen : 0) {}

  void check() const {
    BC_DASSERT(gen_ == nullptr || *gen_ == snapshot_);
  }

  std::span<const Edge> span_;
  const std::uint64_t* gen_ = nullptr;  // owning graph's counter; null = empty
  std::uint64_t snapshot_ = 0;          // counter value when the view was taken
#else
  explicit EdgeView(std::span<const Edge> span) : span_(span) {}

  void check() const {}

  std::span<const Edge> span_;
#endif
};

#if !BC_GRAPH_GENERATION_CHECKS
static_assert(sizeof(EdgeView) == sizeof(std::span<const Edge>),
              "EdgeView must carry zero overhead in release builds");
#endif

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
  Bytes capacity(PeerId from, PeerId to) const;

  bool has_node(PeerId node) const { return index_.contains(node); }
  std::size_t num_nodes() const { return index_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Successors of `node` with positive capacity, ascending by PeerId.
  /// Empty view for an unknown node. Invalidated by any edge insert (debug
  /// builds assert on stale access; see EdgeView).
  EdgeView out_edges(PeerId node) const;
  /// Predecessors of `node` (each entry: tail peer and the capacity of the
  /// edge into `node`), ascending by PeerId. Invalidated by any edge insert
  /// (debug builds assert on stale access; see EdgeView).
  EdgeView in_edges(PeerId node) const;

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

  /// Internal consistency check (adjacency sorted strictly ascending, all
  /// capacities positive, out/in arrays mirror each other with equal
  /// capacities, PeerIndex bijection intact). Used by tests and BC_DASSERT
  /// call sites.
  bool check_invariants() const;

  /// The interning layer, exposed for the maxflow implementations and the
  /// tests of this module only (bc-analyze G1 enforces the boundary).
  const PeerIndex& index() const { return index_; }

  /// Structural-mutation counter: bumped by every edge insert, the only
  /// operation that can invalidate an outstanding EdgeView. Maintained in
  /// all build types (one increment per insert is noise next to the
  /// adjacency work); only debug builds *check* it. Exposed for tests and
  /// external snapshot protocols.
  std::uint64_t generation() const { return gen_; }

 private:
  // Ensures the node exists, returning its slot.
  NodeIndex touch(PeerId node);

  // Adjacency of `node` in one side (out_ or in_); empty for unknown nodes.
  std::span<const Edge> edges_of(const std::vector<std::vector<Edge>>& side,
                                 PeerId node) const;

  /// Flat open-addressing sidecar mapping (tail PeerId, head PeerId) to the
  /// edge capacity. The sorted adjacency arrays stay the source of truth
  /// for every iteration surface (merge scans, spans, determinism); the
  /// sidecar exists solely so the point query `capacity(from, to)` is a
  /// single probe sequence instead of a binary search over a scattered
  /// adjacency array. Entries are never erased (the graph only grows), so
  /// linear probing needs no tombstones.
  class CapSidecar {
   public:
    const Bytes* find(PeerId from, PeerId to) const {
      if (cells_.empty()) return nullptr;
      const std::uint64_t key = key_of(from, to);
      std::size_t i = hash_of(key) & mask_;
      while (cells_[i].key != kEmpty) {
        if (cells_[i].key == key) return &cells_[i].cap;
        i = (i + 1) & mask_;
      }
      return nullptr;
    }

    void insert_or_assign(PeerId from, PeerId to, Bytes cap) {
      if ((size_ + 1) * 4 > cells_.size() * 3) grow();
      const std::uint64_t key = key_of(from, to);
      std::size_t i = hash_of(key) & mask_;
      while (cells_[i].key != kEmpty) {
        if (cells_[i].key == key) {
          cells_[i].cap = cap;
          return;
        }
        i = (i + 1) & mask_;
      }
      cells_[i] = Cell{key, cap};
      ++size_;
    }

    std::size_t size() const { return size_; }

   private:
    struct Cell {
      std::uint64_t key;
      Bytes cap;
    };
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    // The sentinel packs the self-edge (kInvalidPeer, kInvalidPeer), which
    // add_capacity/raise_capacity reject, so no stored key can collide with
    // it (and find() of that pair stops at the first free cell).
    static std::uint64_t key_of(PeerId from, PeerId to) {
      return (std::uint64_t{from} << 32) | std::uint64_t{to};
    }

    BC_NO_SANITIZE_INTEGER static std::size_t hash_of(std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return static_cast<std::size_t>(x ^ (x >> 31));
    }

    void grow() {
      std::vector<Cell> old = std::move(cells_);
      const std::size_t n = old.empty() ? 16 : old.size() * 2;
      cells_.assign(n, Cell{kEmpty, 0});
      mask_ = n - 1;
      for (const Cell& c : old) {
        if (c.key == kEmpty) continue;
        std::size_t i = hash_of(c.key) & mask_;
        while (cells_[i].key != kEmpty) i = (i + 1) & mask_;
        cells_[i] = c;
      }
    }

    std::vector<Cell> cells_;  // power-of-two sized; key == kEmpty is free
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
  };

  PeerIndex index_;
  std::vector<std::vector<Edge>> out_;  // slot -> sorted out-adjacency
  std::vector<std::vector<Edge>> in_;   // slot -> sorted in-adjacency
  CapSidecar caps_;                     // (tail, head) -> capacity
  std::size_t num_edges_ = 0;
  std::uint64_t gen_ = 0;  // see generation()
};

}  // namespace bc::graph
