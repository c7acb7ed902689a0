#include "bartercast/history.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::bartercast {

namespace {

// The two selection orders of §3.4. Peer ids are unique, so both are strict
// total orders and "the first n" is well defined whatever the entry order.
constexpr auto uploaded_more = [](const HistoryEntry& a,
                                  const HistoryEntry& b) {
  if (a.downloaded != b.downloaded) return a.downloaded > b.downloaded;
  return a.peer < b.peer;
};

constexpr auto seen_later = [](const HistoryEntry& a, const HistoryEntry& b) {
  // </> instead of != keeps the exact-tie branch explicit: equal
  // timestamps fall through to the peer-id total order.
  if (a.last_seen > b.last_seen) return true;
  if (a.last_seen < b.last_seen) return false;
  return a.peer < b.peer;
};

/// The first n entries under `before`, best first: one pass that keeps the
/// n best seen so far in a heap (O(size · log n)), equal to the first n of
/// a full sort because the order is total.
template <typename Before>
std::vector<PeerId> first_n(const std::vector<HistoryEntry>& entries,
                            std::size_t n, Before before) {
  std::vector<HistoryEntry> best(std::min(n, entries.size()));
  std::partial_sort_copy(entries.begin(), entries.end(), best.begin(),
                         best.end(), before);
  std::vector<PeerId> out;
  out.reserve(best.size());
  for (const HistoryEntry& e : best) out.push_back(e.peer);
  return out;
}

}  // namespace

HistoryEntry& PrivateHistory::entry(PeerId remote, Seconds now) {
  BC_ASSERT_MSG(remote != owner_, "no history entry for the owner itself");
  const auto [it, inserted] = index_.try_emplace(remote, entries_.size());
  if (inserted) {
    HistoryEntry& e = entries_.emplace_back();
    e.peer = remote;
    e.last_seen = now;
    return e;
  }
  HistoryEntry& e = entries_[it->second];
  e.last_seen = std::max(e.last_seen, now);
  return e;
}

void PrivateHistory::record_upload(PeerId remote, Bytes amount, Seconds now) {
  BC_ASSERT(amount >= 0);
  // Owner-local ledger: a wrap here is a program bug, not adversarial
  // input, so checked (debug-asserted) addition is the right policy.
  HistoryEntry& e = entry(remote, now);
  e.uploaded = util::checked_add(e.uploaded, amount);
  total_up_ = util::checked_add(total_up_, amount);
}

void PrivateHistory::record_download(PeerId remote, Bytes amount,
                                     Seconds now) {
  BC_ASSERT(amount >= 0);
  HistoryEntry& e = entry(remote, now);
  e.downloaded = util::checked_add(e.downloaded, amount);
  total_down_ = util::checked_add(total_down_, amount);
}

void PrivateHistory::touch(PeerId remote, Seconds now) { entry(remote, now); }

Bytes PrivateHistory::uploaded_to(PeerId remote) const {
  const HistoryEntry* e = find(remote);
  return e == nullptr ? 0 : e->uploaded;
}

Bytes PrivateHistory::downloaded_from(PeerId remote) const {
  const HistoryEntry* e = find(remote);
  return e == nullptr ? 0 : e->downloaded;
}

std::vector<PeerId> PrivateHistory::top_uploaders(std::size_t n) const {
  return first_n(entries_, n, uploaded_more);
}

std::vector<PeerId> PrivateHistory::most_recent(std::size_t n) const {
  return first_n(entries_, n, seen_later);
}

std::vector<HistoryEntry> PrivateHistory::entries() const {
  std::vector<HistoryEntry> out = entries_;
  std::sort(out.begin(), out.end(),
            [](const HistoryEntry& a, const HistoryEntry& b) {
              return a.peer < b.peer;
            });
  return out;
}

const HistoryEntry* PrivateHistory::find(PeerId remote) const {
  auto it = index_.find(remote);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

}  // namespace bc::bartercast
