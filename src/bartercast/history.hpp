// Private transfer history (paper §3.4).
//
// "The private history at peer i is a table where an entry (j, up, down) is
// a record of the number of bytes peer i has uploaded to, respectively
// downloaded from, peer j." The table additionally remembers when each peer
// was last seen, because message construction selects "the Nr peers most
// recently seen by i" besides the Nh peers with the highest upload to i.
//
// Entries live in one contiguous vector in first-seen order, indexed by a
// peer -> position map. Both selection keys only grow, so each update keeps
// the leaders of both orders current at a cost bounded by the number of
// leaders kept, and a message build copies them (DESIGN.md §13).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::bartercast {

struct HistoryEntry {
  PeerId peer = kInvalidPeer;
  Bytes uploaded = 0;    // bytes the owner uploaded to `peer`
  Bytes downloaded = 0;  // bytes the owner downloaded from `peer`
  Seconds last_seen = 0.0;
};

class PrivateHistory {
 public:
  explicit PrivateHistory(PeerId owner) : owner_(owner) {}

  PeerId owner() const { return owner_; }

  /// Records `amount` bytes uploaded by the owner to `remote` at time `now`.
  void record_upload(PeerId remote, Bytes amount, Seconds now);
  /// Records `amount` bytes downloaded by the owner from `remote`.
  void record_download(PeerId remote, Bytes amount, Seconds now);
  /// Marks `remote` as seen without a transfer (e.g. a gossip exchange).
  void touch(PeerId remote, Seconds now);

  Bytes uploaded_to(PeerId remote) const;
  Bytes downloaded_from(PeerId remote) const;

  Bytes total_uploaded() const { return total_up_; }
  Bytes total_downloaded() const { return total_down_; }
  std::size_t size() const { return entries_.size(); }
  bool contains(PeerId remote) const { return index_.contains(remote); }

  /// The n peers with the highest upload *to the owner* (i.e. highest
  /// `downloaded`), the Nh selection of §3.4, best first. Deterministic:
  /// ties break toward the lower peer id. A copy of the kept leaders; an n
  /// past every n asked before costs one pass over the entries.
  std::vector<PeerId> top_uploaders(std::size_t n) const;

  /// The n most recently seen peers (the Nr selection), most recent first.
  /// Ties break toward the lower peer id. Costs as top_uploaders().
  std::vector<PeerId> most_recent(std::size_t n) const;

  /// Calls `visit(const HistoryEntry&)` for the entries of
  /// top_uploaders(nh), then for those of most_recent(nr) not among them:
  /// the record selection of §3.4, read straight from the leaders.
  template <typename Visit>
  void for_each_selected(std::size_t nh, std::size_t nr, Visit visit) const {
    const std::span<const std::size_t> top = top_slots(nh);
    for (std::size_t s : top) visit(entries_[s]);
    for (std::size_t s : recent_slots(nr)) {
      if (std::find(top.begin(), top.end(), s) == top.end()) {
        visit(entries_[s]);
      }
    }
  }

  /// Snapshot of all entries, sorted by peer id (deterministic across runs
  /// and standard-library implementations).
  std::vector<HistoryEntry> entries() const;

  /// The entry for `remote`, or nullptr. The pointer is invalidated by the
  /// next call that records a peer not yet in the history.
  const HistoryEntry* find(PeerId remote) const;

 private:
  /// The first min(kept, size()) entry slots of one selection order, best
  /// first. `kept` is the largest n asked so far; updates keep the slots
  /// current, and a larger n rebuilds them once.
  struct Leaders {
    std::vector<std::size_t> slots;
    std::size_t kept = 0;
  };

  // Slot of `remote`'s entry (created if new), with last_seen raised to
  // `now`. The caller applies its byte count, then calls promote().
  std::size_t entry(PeerId remote, Seconds now);
  // Restores both leader lists after the entry at `slot` moved up.
  void promote(std::size_t slot);
  std::span<const std::size_t> top_slots(std::size_t n) const;
  std::span<const std::size_t> recent_slots(std::size_t n) const;

  PeerId owner_;
  std::vector<HistoryEntry> entries_;              // first-seen order
  std::unordered_map<PeerId, std::size_t> index_;  // peer -> entries_ slot
  // Rebuilt by the const selections when asked for more than they keep.
  mutable Leaders top_;     // (downloaded desc, peer asc)
  mutable Leaders recent_;  // (last_seen desc, peer asc)
  Bytes total_up_ = 0;
  Bytes total_down_ = 0;
};

}  // namespace bc::bartercast
