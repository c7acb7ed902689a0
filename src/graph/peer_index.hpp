// Interning layer between public PeerIds and the dense node indices the
// graph core stores internally.
//
// FlowGraph addresses its vertex tables with NodeIndex — a dense u32 slot
// number — so its id lists, visited sets, and residual bookkeeping are
// plain vectors instead of hash maps. PeerIndex owns the PeerId <->
// NodeIndex bijection: a flat open-addressing table (util::FlatMap) from id
// to slot and a vector from slot to id. Interning is append-only, as the
// graph only grows: slots are handed out in first-touch order and never
// freed, so the assignment depends only on the operation sequence
// (deterministic across runs and standard libraries). kInvalidPeer is the
// table's free-cell key and can never be interned.
//
// NodeIndex values are an implementation detail of src/graph/: a slot is
// one graph's first-touch order, so the same peer has different slots in
// different graphs, and slots must never leak into gossip, reputation, or
// serialized output. bc-analyze rule G1 flags any use of this header
// outside src/graph/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/flat_map.hpp"
#include "util/ids.hpp"

namespace bc::graph {

/// Dense slot number of a peer inside one FlowGraph. Valid only for the
/// graph that issued it.
using NodeIndex = std::uint32_t;

inline constexpr NodeIndex kNoNode = std::numeric_limits<NodeIndex>::max();

class PeerIndex {
 public:
  /// Slot of `id`, appending one if absent. `id` must not be kInvalidPeer.
  NodeIndex intern(PeerId id) {
    const auto [slot, inserted] =
        slot_of_.try_emplace(id, static_cast<NodeIndex>(peer_of_.size()));
    if (inserted) peer_of_.push_back(id);
    return *slot;
  }

  /// Slot of `id`, or kNoNode if the peer was never interned.
  NodeIndex find(PeerId id) const {
    const NodeIndex* slot = slot_of_.find(id);
    return slot == nullptr ? kNoNode : *slot;
  }

  /// PeerId occupying `slot`; kInvalidPeer past the end of the table.
  PeerId peer(NodeIndex slot) const {
    return slot < peer_of_.size() ? peer_of_[slot] : kInvalidPeer;
  }

  bool contains(PeerId id) const { return slot_of_.find(id) != nullptr; }

  /// Number of interned peers, which is also the size of the dense slot
  /// table: vertex-indexed vectors inside the graph module are sized to it.
  std::size_t size() const { return peer_of_.size(); }

  /// All interned PeerIds, ascending (deterministic across runs and
  /// standard library implementations).
  std::vector<PeerId> ids_sorted() const;

  /// Forward and reverse maps mirror each other. Used by
  /// FlowGraph::check_invariants().
  bool check_invariants() const;

 private:
  util::FlatMap<PeerId, NodeIndex> slot_of_;  // id -> slot
  std::vector<PeerId> peer_of_;               // slot -> id
};

}  // namespace bc::graph
