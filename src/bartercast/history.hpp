// Private transfer history (paper §3.4).
//
// "The private history at peer i is a table where an entry (j, up, down) is
// a record of the number of bytes peer i has uploaded to, respectively
// downloaded from, peer j." The table additionally remembers when each peer
// was last seen, because message construction selects "the Nr peers most
// recently seen by i" besides the Nh peers with the highest upload to i.
//
// Entries live in one contiguous vector in first-seen order, indexed by a
// peer -> position map: each message build scans them once per selection
// and keeps only the n best (DESIGN.md §13).
#pragma once

#include <cstddef>
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
  /// ties break toward the lower peer id. One pass over the entries.
  std::vector<PeerId> top_uploaders(std::size_t n) const;

  /// The n most recently seen peers (the Nr selection), most recent first.
  /// Ties break toward the lower peer id. One pass over the entries.
  std::vector<PeerId> most_recent(std::size_t n) const;

  /// Snapshot of all entries, sorted by peer id (deterministic across runs
  /// and standard-library implementations).
  std::vector<HistoryEntry> entries() const;

  /// The entry for `remote`, or nullptr. The pointer is invalidated by the
  /// next call that records a peer not yet in the history.
  const HistoryEntry* find(PeerId remote) const;

 private:
  HistoryEntry& entry(PeerId remote, Seconds now);

  PeerId owner_;
  std::vector<HistoryEntry> entries_;              // first-seen order
  std::unordered_map<PeerId, std::size_t> index_;  // peer -> entries_ slot
  Bytes total_up_ = 0;
  Bytes total_down_ = 0;
};

}  // namespace bc::bartercast
