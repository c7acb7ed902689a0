#include "bartercast/shared_history.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bc::bartercast {

void SharedHistory::mark_owner_edge(PeerId remote) {
  // See last_change() in the header: an owner-incident edge can shift the
  // two-hop reputation of remote itself and of any current neighbour of
  // remote (through the shared-neighbour term with v = remote). Subjects
  // that become neighbours of remote later are marked by that mutation.
  mark(remote);
  for (PeerId v : graph_.out_edges(remote).peers()) mark(v);
  for (PeerId u : graph_.in_edges(remote).peers()) mark(u);
}

void SharedHistory::record_local_upload(PeerId remote, Bytes amount) {
  BC_ASSERT(amount >= 0);
  BC_ASSERT(remote != owner_);
  if (amount == 0) return;
  graph_.add_capacity(owner_, remote, amount);
  ++version_;
  mark_owner_edge(remote);
}

void SharedHistory::record_local_download(PeerId remote, Bytes amount) {
  BC_ASSERT(amount >= 0);
  BC_ASSERT(remote != owner_);
  if (amount == 0) return;
  graph_.add_capacity(remote, owner_, amount);
  ++version_;
  mark_owner_edge(remote);
}

SharedHistory::ApplyStats SharedHistory::apply_message(
    const BarterCastMessage& message) {
  ApplyStats stats;
  for (const BarterRecord& r : message.records) {
    // Rule 2: a record must involve its sender. kInvalidPeer names no
    // one, so a record naming it reports on no real pair and is dropped
    // with the third-party records. It must never become a graph node
    // either: the graph core uses it as a sentinel (the free-cell key of
    // its flat tables, packed twice in the capacity table's; Edmonds-Karp
    // marks undiscovered nodes with it).
    if ((r.subject != message.sender && r.other != message.sender) ||
        r.subject == kInvalidPeer || r.other == kInvalidPeer) {
      ++stats.dropped_third_party;
      continue;
    }
    if (r.subject == r.other) {
      ++stats.dropped_self_report;
      continue;
    }
    // Rule 1: owner-incident edges are authoritative (private history).
    if (r.subject == owner_ || r.other == owner_) {
      ++stats.dropped_own_edge;
      continue;
    }
    // Max-merge (paper §3.4): each direction rises only to a larger total.
    const bool raised =
        graph_.raise_capacity(r.subject, r.other, r.subject_to_other);
    const bool raised_back =
        graph_.raise_capacity(r.other, r.subject, r.other_to_subject);
    if (raised || raised_back) {
      ++version_;
      // A remote edge (subject, other) is incident to exactly those two
      // peers, so they are the only subjects whose two-hop reputation
      // (from the owner's viewpoint) it can affect.
      mark(r.subject);
      mark(r.other);
    }
    ++stats.applied;
  }
  return stats;
}

}  // namespace bc::bartercast
