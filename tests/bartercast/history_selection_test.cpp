// Differential tests for the bounded Nh/Nr selections: top_uploaders(n) and
// most_recent(n) keep only the n best in one pass, and must return exactly
// the first n entries of the full sort they replaced. The reference full
// sorts, the reference message build, and a std::map model of the history
// live here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bartercast/history.hpp"
#include "bartercast/message.hpp"
#include "util/rng.hpp"

namespace bc::bartercast {
namespace {

constexpr PeerId kOwner = 5;

/// (downloaded desc, peer asc): the Nh order.
struct UploadedMore {
  bool operator()(const HistoryEntry& a, const HistoryEntry& b) const {
    if (a.downloaded != b.downloaded) return a.downloaded > b.downloaded;
    return a.peer < b.peer;
  }
};

/// (last_seen desc, peer asc): the Nr order.
struct SeenLater {
  bool operator()(const HistoryEntry& a, const HistoryEntry& b) const {
    if (a.last_seen > b.last_seen) return true;
    if (a.last_seen < b.last_seen) return false;
    return a.peer < b.peer;
  }
};

/// The first n peers of `sorted`.
template <typename Range>
std::vector<PeerId> first_peers(const Range& sorted, std::size_t n) {
  std::vector<PeerId> out;
  for (const HistoryEntry& e : sorted) {
    if (out.size() == n) break;
    out.push_back(e.peer);
  }
  return out;
}

/// The first n peers of a full sort by (downloaded desc, peer asc).
std::vector<PeerId> reference_top_uploaders(std::vector<HistoryEntry> all,
                                            std::size_t n) {
  std::sort(all.begin(), all.end(), UploadedMore{});
  return first_peers(all, n);
}

/// The first n peers of a full sort by (last_seen desc, peer asc).
std::vector<PeerId> reference_most_recent(std::vector<HistoryEntry> all,
                                          std::size_t n) {
  std::sort(all.begin(), all.end(), SeenLater{});
  return first_peers(all, n);
}

/// The records of §3.4 for the given selections: the `top` peers, then the
/// `recent` ones not among them, each with the model's byte counts.
std::vector<BarterRecord> reference_records(
    const std::map<PeerId, HistoryEntry>& model, std::vector<PeerId> top,
    const std::vector<PeerId>& recent) {
  for (PeerId p : recent) {
    if (std::find(top.begin(), top.end(), p) == top.end()) top.push_back(p);
  }
  std::vector<BarterRecord> records;
  for (PeerId p : top) {
    const HistoryEntry& e = model.at(p);
    records.push_back({kOwner, p, e.uploaded, e.downloaded});
  }
  return records;
}

/// The message build of §3.4 over a model history: top-Nh, then the Nr
/// most recent not already selected, each with the model's byte counts.
BarterCastMessage reference_build(const std::map<PeerId, HistoryEntry>& model,
                                  const MessageSelection& selection,
                                  Seconds now) {
  std::vector<HistoryEntry> all;
  for (const auto& [_, e] : model) all.push_back(e);
  BarterCastMessage msg;
  msg.sender = kOwner;
  msg.sent_at = now;
  msg.records =
      reference_records(model, reference_top_uploaders(all, selection.nh),
                        reference_most_recent(all, selection.nr));
  return msg;
}

/// A history of exactly `size` peers built by interleaving first contacts
/// with updates of known peers, mirrored into `model`. Byte amounts and
/// timestamps come from small sets, so both orders have many ties.
PrivateHistory random_history(std::size_t size, Rng& rng,
                              std::map<PeerId, HistoryEntry>& model) {
  PrivateHistory h(kOwner);
  model.clear();
  const auto span = static_cast<std::int64_t>(4 * size + 8);
  while (model.size() < size) {
    PeerId peer = static_cast<PeerId>(rng.uniform_int(0, span));
    if (peer == kOwner) continue;
    const auto now = static_cast<Seconds>(rng.uniform_int(0, 30));
    const Bytes amount = rng.uniform_int(0, 3) * kMiB;
    HistoryEntry& m = model[peer];
    if (m.peer == kInvalidPeer) {
      m.peer = peer;
      m.last_seen = now;
    }
    m.last_seen = std::max(m.last_seen, now);
    switch (rng.index(3)) {
      case 0:
        h.record_download(peer, amount, now);
        m.downloaded += amount;
        break;
      case 1:
        h.record_upload(peer, amount, now);
        m.uploaded += amount;
        break;
      default:
        h.touch(peer, now);
        break;
    }
  }
  return h;
}

std::vector<std::size_t> selection_sizes(std::size_t history_size) {
  std::vector<std::size_t> ns{0, 1, 10, history_size, history_size + 5};
  if (history_size > 0) ns.push_back(history_size - 1);
  return ns;
}

const std::size_t kHistorySizes[] = {0, 1, 2, 9, 10, 11, 64, 500, 3000};

TEST(HistorySelection, BoundedSelectionsEqualFullSortPrefix) {
  Rng rng(20260401);
  for (std::size_t size : kHistorySizes) {
    for (int trial = 0; trial < 3; ++trial) {
      std::map<PeerId, HistoryEntry> model;
      const PrivateHistory h = random_history(size, rng, model);
      ASSERT_EQ(h.size(), size);
      const std::vector<HistoryEntry> all = h.entries();
      for (std::size_t n : selection_sizes(size)) {
        EXPECT_EQ(h.top_uploaders(n), reference_top_uploaders(all, n))
            << "size " << size << " n " << n;
        EXPECT_EQ(h.most_recent(n), reference_most_recent(all, n))
            << "size " << size << " n " << n;
      }
    }
  }
}

TEST(HistorySelection, AllTiedSelectsLowestPeerIds) {
  // Every entry equal in both keys: the peer-id tie-break alone decides.
  PrivateHistory h(kOwner);
  for (PeerId p : {40u, 7u, 23u, 1u, 99u, 12u}) h.record_download(p, 10, 3.0);
  EXPECT_EQ(h.top_uploaders(3), (std::vector<PeerId>{1, 7, 12}));
  EXPECT_EQ(h.most_recent(4), (std::vector<PeerId>{1, 7, 12, 23}));
}

TEST(HistorySelection, BuildMessageMatchesReferenceBuild) {
  Rng rng(77);
  const MessageSelection selections[] = {{10, 10}, {0, 10}, {10, 0},
                                         {0, 0},   {3, 25}, {5000, 5000}};
  for (std::size_t size : kHistorySizes) {
    std::map<PeerId, HistoryEntry> model;
    const PrivateHistory h = random_history(size, rng, model);
    for (const MessageSelection& sel : selections) {
      const BarterCastMessage msg = build_message(h, sel, 31.0);
      const BarterCastMessage ref = reference_build(model, sel, 31.0);
      EXPECT_EQ(msg.sender, ref.sender);
      EXPECT_EQ(msg.records, ref.records)
          << "size " << size << " nh " << sel.nh << " nr " << sel.nr;
    }
  }
}

TEST(HistorySelection, EntriesStaySortedByPeerAfterInterleavedInserts) {
  Rng rng(9);
  for (std::size_t size : kHistorySizes) {
    std::map<PeerId, HistoryEntry> model;
    const PrivateHistory h = random_history(size, rng, model);
    const std::vector<HistoryEntry> entries = h.entries();
    ASSERT_EQ(entries.size(), model.size());
    std::size_t i = 0;
    for (const auto& [peer, m] : model) {  // std::map: ascending peer
      const HistoryEntry& e = entries[i++];
      EXPECT_EQ(e.peer, peer);
      EXPECT_EQ(e.uploaded, m.uploaded);
      EXPECT_EQ(e.downloaded, m.downloaded);
      EXPECT_EQ(e.last_seen, m.last_seen);
      ASSERT_NE(h.find(peer), nullptr);
      EXPECT_EQ(h.find(peer)->downloaded, m.downloaded);
      EXPECT_EQ(h.uploaded_to(peer), m.uploaded);
      EXPECT_EQ(h.downloaded_from(peer), m.downloaded);
    }
    EXPECT_FALSE(h.contains(kOwner));
  }
}

/// A model history with the full sort of both orders kept by a balanced
/// tree (one std::set per order), so reading the first n after every
/// mutation costs O(n) rather than a sort.
class SortedModel {
 public:
  enum Kind { kDownload, kUpload, kTouch };

  void apply(Kind kind, PeerId peer, Bytes amount, Seconds now) {
    const auto [it, inserted] = entries_.try_emplace(peer);
    HistoryEntry& e = it->second;
    if (inserted) {
      e.peer = peer;
      e.last_seen = now;
    } else {
      by_upload_.erase(e);
      by_seen_.erase(e);
    }
    e.last_seen = std::max(e.last_seen, now);
    if (kind == kDownload) e.downloaded += amount;
    if (kind == kUpload) e.uploaded += amount;
    by_upload_.insert(e);
    by_seen_.insert(e);
  }

  std::vector<PeerId> top(std::size_t n) const {
    return first_peers(by_upload_, n);
  }
  std::vector<PeerId> recent(std::size_t n) const {
    return first_peers(by_seen_, n);
  }
  const std::map<PeerId, HistoryEntry>& entries() const { return entries_; }

 private:
  std::map<PeerId, HistoryEntry> entries_;
  std::set<HistoryEntry, UploadedMore> by_upload_;
  std::set<HistoryEntry, SeenLater> by_seen_;
};

/// One history under test with its model and its own mutation stream.
struct Stream {
  PrivateHistory history{kOwner};
  SortedModel model;
  std::vector<PeerId> known;
  Rng rng;
  std::size_t asked = 0;  // largest n asked so far

  /// One record_upload, record_download or touch: a new peer while the
  /// history is below `target`, else mostly known ones. Timestamps advance
  /// one second per 16 steps, so most updates share `now`, and some are
  /// older than the peer's last_seen.
  void mutate(std::size_t step, std::size_t target) {
    PeerId peer = 0;
    if (known.size() < target && (known.empty() || rng.chance(0.7))) {
      do {
        peer = static_cast<PeerId>(rng.uniform_int(0, 1'000'000));
      } while (peer == kOwner || history.contains(peer));
      known.push_back(peer);
    } else {
      peer = known[rng.index(known.size())];
    }
    Seconds now = static_cast<Seconds>(step / 16);
    if (rng.chance(0.1)) now -= static_cast<Seconds>(rng.uniform_int(1, 3));
    const Bytes amount = rng.uniform_int(0, 3) * kMiB;
    const auto kind = static_cast<SortedModel::Kind>(rng.index(3));
    switch (kind) {
      case SortedModel::kDownload:
        history.record_download(peer, amount, now);
        break;
      case SortedModel::kUpload:
        history.record_upload(peer, amount, now);
        break;
      case SortedModel::kTouch:
        history.touch(peer, now);
        break;
    }
    model.apply(kind, peer, amount, now);
  }

  /// 0, 1 and 10; once per 40 steps one past every n asked so far; then
  /// down again. `everything` asks for the whole history plus 5.
  std::size_t next_n(std::size_t step, bool everything) {
    static constexpr std::size_t kCycle[] = {0, 1, 10, 10, 1, 0, 3, 10};
    std::size_t n = kCycle[step % std::size(kCycle)];
    if (step % 40 == 7) n = asked + 1;
    if (everything) n = history.size() + 5;
    asked = std::max(asked, n);
    return n;
  }
};

/// After every mutation: both selections and the message build equal the
/// sorted model, with the build sometimes asking first (so it is the call
/// that rebuilds past the kept count); every 97 steps, also a full sort.
void check(Stream& s, std::size_t step, bool everything = false) {
  const std::size_t nh = s.next_n(step, everything);
  const std::size_t nr = s.next_n(step + 3, false);
  const auto now = static_cast<Seconds>(step);
  const auto check_build = [&] {
    const BarterCastMessage msg = build_message(s.history, {nh, nr}, now);
    ASSERT_EQ(msg.records,
              reference_records(s.model.entries(), s.model.top(nh),
                                s.model.recent(nr)))
        << "step " << step << " nh " << nh << " nr " << nr;
  };
  if (step % 2 == 1) check_build();
  ASSERT_EQ(s.history.top_uploaders(nh), s.model.top(nh))
      << "step " << step << " n " << nh;
  ASSERT_EQ(s.history.most_recent(nr), s.model.recent(nr))
      << "step " << step << " n " << nr;
  if (step % 2 == 0) check_build();
  if (step % 97 == 0) {
    const std::vector<HistoryEntry> all = s.history.entries();
    ASSERT_EQ(s.history.top_uploaders(nh), reference_top_uploaders(all, nh));
    ASSERT_EQ(s.history.most_recent(nr), reference_most_recent(all, nr));
  }
}

TEST(HistorySelection, LeadersStayExactUnderInterleavedUpdates) {
  for (std::size_t target : {1u, 2u, 10u, 11u, 64u, 500u, 3000u}) {
    SCOPED_TRACE("target " + std::to_string(target));
    Stream a;
    a.rng = Rng(target);
    // First half: one history. Then copy it and mutate both copies with
    // different streams, checking each after every mutation.
    std::size_t step = 0;
    for (; a.known.size() < (target + 1) / 2; ++step) {
      a.mutate(step, target);
      ASSERT_NO_FATAL_FAILURE(check(a, step));
    }
    Stream b = a;
    b.rng = Rng(target + 1'000'000);
    // The leaders kept stay far below the history size until 150 steps
    // before the end, when one call asks for all of it.
    const std::size_t end = step + target + 300;
    for (; step < end; ++step) {
      const bool everything = step == end - 150;
      a.mutate(step, target);
      ASSERT_NO_FATAL_FAILURE(check(a, step, everything));
      b.mutate(step, target);
      ASSERT_NO_FATAL_FAILURE(check(b, step, everything));
    }
    EXPECT_EQ(a.history.size(), target);
    EXPECT_EQ(b.history.size(), target);
  }
}

}  // namespace
}  // namespace bc::bartercast
