// Subjective shared history (paper §3.4).
//
// Each peer assembles its private history plus the records received in
// BarterCast messages into a "subjective, local graph which is used as input
// for the maxflow algorithm". Two integrity rules are enforced:
//
//  1. Edges incident to the owner come exclusively from the owner's private
//     history — "the information about these edges is derived from peer i's
//     private history which itself cannot be manipulated by others" (§3.4).
//     Gossip claims about them are ignored.
//  2. A message record must involve its sender (a peer reports its *own*
//     history). Third-party records, and records naming kInvalidPeer, are
//     dropped.
//
// Gossiped records carry cumulative totals, so re-applying a newer message
// from the same sender must not double count: remote claims are merged with
// max(), which keeps edge capacities monotone under honest replay.
#pragma once

#include <cstdint>

#include "bartercast/message.hpp"
#include "graph/flow_graph.hpp"
#include "util/flat_map.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::bartercast {

class SharedHistory {
 public:
  explicit SharedHistory(PeerId owner) : owner_(owner) {}

  PeerId owner() const { return owner_; }

  /// Authoritative update from the owner's own transfers: the owner
  /// uploaded (`direction_up` = true) or downloaded `amount` bytes
  /// to/from `remote`. Increments the corresponding owner-incident edge.
  void record_local_upload(PeerId remote, Bytes amount);
  void record_local_download(PeerId remote, Bytes amount);

  struct ApplyStats {
    std::size_t applied = 0;           // records merged into the graph
    std::size_t dropped_third_party = 0;  // or naming kInvalidPeer
    std::size_t dropped_own_edge = 0;  // claims about owner-incident edges
    std::size_t dropped_self_report = 0;  // record about (sender, sender)
  };

  /// Merges a received message into the subjective graph under the
  /// integrity rules above. Returns per-message statistics.
  ApplyStats apply_message(const BarterCastMessage& message);

  /// The subjective local graph: edge (i, j) holds the best-known total
  /// bytes i uploaded to j.
  const graph::FlowGraph& graph() const { return graph_; }

  /// Monotonically increasing version, bumped on every mutation; used by
  /// reputation caches for exact invalidation.
  std::uint64_t version() const { return version_; }

  /// Version at which the owner's two-hop reputation of `subject` may last
  /// have changed (0 if never). Eq. 1 with paths <= 2 depends only on edges
  /// incident to {owner, subject}, so every mutation marks exactly the
  /// subjects it can affect:
  ///
  ///  * a gossiped remote edge (u, v) marks {u, v} — it is incident to no
  ///    other subject (owner-incident claims are dropped by Rule 1);
  ///  * an owner-incident edge touching `remote` marks remote and all of
  ///    remote's current out-/in-neighbours — the edge enters
  ///    maxflow(owner, j) / maxflow(j, owner) through the shared-neighbour
  ///    term min(c(owner, remote), c(remote, j)) (resp. mirrored), which is
  ///    nonzero only for neighbours of remote. A subject that becomes a
  ///    neighbour of remote later is marked by that later mutation.
  ///
  /// A cache entry for `subject` computed at version V is therefore still
  /// exact while last_change(subject) <= V. Only valid for reputation modes
  /// confined to two-hop paths; longer-path ablation modes must keep using
  /// the global version().
  std::uint64_t last_change(PeerId subject) const {
    const std::uint64_t* version = last_change_.find(subject);
    return version == nullptr ? 0 : *version;
  }

 private:
  // Marks `subject` as changed at the current version.
  void mark(PeerId subject) {
    *last_change_.try_emplace(subject, version_).first = version_;
  }

  // Marks `remote` and its current neighbourhood as changed at the current
  // version (call after the owner-incident mutation has been applied).
  void mark_owner_edge(PeerId remote);

  PeerId owner_;
  graph::FlowGraph graph_;
  std::uint64_t version_ = 0;
  // Subject -> last_change(); a flat table keyed by PeerId (kInvalidPeer,
  // its free-cell key, is never a graph node, so never a subject marked).
  util::FlatMap<PeerId, std::uint64_t> last_change_;
};

}  // namespace bc::bartercast
