#include "bartercast/history.hpp"

#include <algorithm>
#include <ranges>

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

/// Slots of the first n entries under `before`, best first: one pass that
/// keeps the n best seen so far in a heap (O(size · log n)), equal to the
/// first n of a full sort because the order is total.
template <typename Before>
std::vector<std::size_t> first_n(const std::vector<HistoryEntry>& entries,
                                 std::size_t n, Before before) {
  std::vector<std::size_t> best(std::min(n, entries.size()));
  const auto at = [&](std::size_t s) -> const HistoryEntry& {
    return entries[s];
  };
  std::ranges::partial_sort_copy(std::views::iota(std::size_t{0},
                                                  entries.size()),
                                 best, before, at, at);
  return best;
}

/// The first min(n, size) slots under `before`, from the kept `leaders`;
/// an n past `kept` rebuilds them once and becomes the new kept count.
template <typename Before>
std::span<const std::size_t> first_slots(
    std::vector<std::size_t>& leaders, std::size_t& kept,
    const std::vector<HistoryEntry>& entries, std::size_t n, Before before) {
  if (n > kept) {
    leaders = first_n(entries, n, before);
    kept = n;
  }
  return std::span(leaders).first(std::min(n, leaders.size()));
}

/// Restores `leaders` (the first min(kept, size) slots under `before`)
/// after the entry at `slot` moved up in that order or was appended. Keys
/// only grow, so nothing else moves: the entry climbs inside the list,
/// enters it in place of the last leader, or stays outside. O(kept).
template <typename Before>
void promote_in(std::vector<std::size_t>& leaders, std::size_t kept,
                const std::vector<HistoryEntry>& entries, std::size_t slot,
                Before before) {
  if (kept == 0) return;
  const HistoryEntry& e = entries[slot];
  std::size_t i = 0;
  if (leaders.size() < kept) {
    // The list holds every entry: the slot is in it, or it is new.
    i = static_cast<std::size_t>(
        std::find(leaders.begin(), leaders.end(), slot) - leaders.begin());
    if (i == leaders.size()) leaders.push_back(slot);
  } else {
    i = kept - 1;
    if (leaders[i] != slot) {
      if (!before(e, entries[leaders[i]])) return;  // stays outside
      i = static_cast<std::size_t>(
          std::find(leaders.begin(), leaders.end() - 1, slot) -
          leaders.begin());
    }
  }
  // Shift the leaders it now beats down one place (the last one, if the
  // entry came from outside, is overwritten) and drop it in.
  while (i > 0 && before(e, entries[leaders[i - 1]])) {
    leaders[i] = leaders[i - 1];
    --i;
  }
  leaders[i] = slot;
}

}  // namespace

std::size_t PrivateHistory::entry(PeerId remote, Seconds now) {
  BC_ASSERT_MSG(remote != owner_, "no history entry for the owner itself");
  const auto [it, inserted] = index_.try_emplace(remote, entries_.size());
  if (inserted) {
    HistoryEntry& e = entries_.emplace_back();
    e.peer = remote;
    e.last_seen = now;
    return it->second;
  }
  HistoryEntry& e = entries_[it->second];
  e.last_seen = std::max(e.last_seen, now);
  return it->second;
}

void PrivateHistory::promote(std::size_t slot) {
  promote_in(top_.slots, top_.kept, entries_, slot, uploaded_more);
  promote_in(recent_.slots, recent_.kept, entries_, slot, seen_later);
}

void PrivateHistory::record_upload(PeerId remote, Bytes amount, Seconds now) {
  BC_ASSERT(amount >= 0);
  // Owner-local ledger: a wrap here is a program bug, not adversarial
  // input, so checked (debug-asserted) addition is the right policy.
  const std::size_t slot = entry(remote, now);
  HistoryEntry& e = entries_[slot];
  e.uploaded = util::checked_add(e.uploaded, amount);
  total_up_ = util::checked_add(total_up_, amount);
  promote(slot);
}

void PrivateHistory::record_download(PeerId remote, Bytes amount,
                                     Seconds now) {
  BC_ASSERT(amount >= 0);
  const std::size_t slot = entry(remote, now);
  HistoryEntry& e = entries_[slot];
  e.downloaded = util::checked_add(e.downloaded, amount);
  total_down_ = util::checked_add(total_down_, amount);
  promote(slot);
}

void PrivateHistory::touch(PeerId remote, Seconds now) {
  promote(entry(remote, now));
}

Bytes PrivateHistory::uploaded_to(PeerId remote) const {
  const HistoryEntry* e = find(remote);
  return e == nullptr ? 0 : e->uploaded;
}

Bytes PrivateHistory::downloaded_from(PeerId remote) const {
  const HistoryEntry* e = find(remote);
  return e == nullptr ? 0 : e->downloaded;
}

std::span<const std::size_t> PrivateHistory::top_slots(std::size_t n) const {
  return first_slots(top_.slots, top_.kept, entries_, n, uploaded_more);
}

std::span<const std::size_t> PrivateHistory::recent_slots(
    std::size_t n) const {
  return first_slots(recent_.slots, recent_.kept, entries_, n, seen_later);
}

std::vector<PeerId> PrivateHistory::top_uploaders(std::size_t n) const {
  std::vector<PeerId> out;
  for (std::size_t s : top_slots(n)) out.push_back(entries_[s].peer);
  return out;
}

std::vector<PeerId> PrivateHistory::most_recent(std::size_t n) const {
  std::vector<PeerId> out;
  for (std::size_t s : recent_slots(n)) out.push_back(entries_[s].peer);
  return out;
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
