// Differential tests for the bounded Nh/Nr selections: top_uploaders(n) and
// most_recent(n) keep only the n best in one pass, and must return exactly
// the first n entries of the full sort they replaced. The reference full
// sorts, the reference message build, and a std::map model of the history
// live here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "bartercast/history.hpp"
#include "bartercast/message.hpp"
#include "util/rng.hpp"

namespace bc::bartercast {
namespace {

constexpr PeerId kOwner = 5;

/// The first n peers of a full sort by (downloaded desc, peer asc).
std::vector<PeerId> reference_top_uploaders(std::vector<HistoryEntry> all,
                                            std::size_t n) {
  std::sort(all.begin(), all.end(),
            [](const HistoryEntry& a, const HistoryEntry& b) {
              if (a.downloaded != b.downloaded) {
                return a.downloaded > b.downloaded;
              }
              return a.peer < b.peer;
            });
  std::vector<PeerId> out;
  for (std::size_t i = 0; i < all.size() && i < n; ++i) {
    out.push_back(all[i].peer);
  }
  return out;
}

/// The first n peers of a full sort by (last_seen desc, peer asc).
std::vector<PeerId> reference_most_recent(std::vector<HistoryEntry> all,
                                          std::size_t n) {
  std::sort(all.begin(), all.end(),
            [](const HistoryEntry& a, const HistoryEntry& b) {
              if (a.last_seen > b.last_seen) return true;
              if (a.last_seen < b.last_seen) return false;
              return a.peer < b.peer;
            });
  std::vector<PeerId> out;
  for (std::size_t i = 0; i < all.size() && i < n; ++i) {
    out.push_back(all[i].peer);
  }
  return out;
}

/// The message build of §3.4 over a model history: top-Nh, then the Nr
/// most recent not already selected, each with the model's byte counts.
BarterCastMessage reference_build(const std::map<PeerId, HistoryEntry>& model,
                                  const MessageSelection& selection,
                                  Seconds now) {
  std::vector<HistoryEntry> all;
  for (const auto& [_, e] : model) all.push_back(e);
  std::vector<PeerId> peers = reference_top_uploaders(all, selection.nh);
  for (PeerId p : reference_most_recent(all, selection.nr)) {
    if (std::find(peers.begin(), peers.end(), p) == peers.end()) {
      peers.push_back(p);
    }
  }
  BarterCastMessage msg;
  msg.sender = kOwner;
  msg.sent_at = now;
  for (PeerId p : peers) {
    const HistoryEntry& e = model.at(p);
    msg.records.push_back({kOwner, p, e.uploaded, e.downloaded});
  }
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

}  // namespace
}  // namespace bc::bartercast
