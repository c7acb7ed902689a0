// Incremental invalidation must never change a single bit of any
// reputation: a CachedReputation serving a mutating SharedHistory returns,
// for every query, exactly the value a cold engine recomputes from scratch
// on the current graph — bit-for-bit, across interleaved local transfers
// and gossip merges — while actually reusing entries (otherwise the dirty
// tracking silently degraded to full recompute).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "bartercast/reputation.hpp"
#include "bartercast/shared_history.hpp"
#include "util/rng.hpp"

namespace bc::community {
namespace {

TEST(IncrementalDeterminism, CachedSweepMatchesColdRecompute) {
  Rng rng(7);
  bartercast::SharedHistory view(0);
  bartercast::CachedReputation cache(view, bartercast::ReputationEngine{});
  ASSERT_TRUE(cache.incremental());
  const bartercast::ReputationEngine cold;
  constexpr PeerId kPeers = 10;
  Bytes claim = 0;  // strictly increasing so every gossip merge changes
  for (int round = 0; round < 60; ++round) {
    const PeerId u = static_cast<PeerId>(rng.uniform_int(1, kPeers - 1));
    PeerId v = static_cast<PeerId>(rng.uniform_int(1, kPeers - 2));
    if (v >= u) ++v;
    claim += rng.uniform_int(1, 100) * kMiB;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        view.record_local_upload(u, 10 * kMiB);
        break;
      case 1:
        view.record_local_download(u, 10 * kMiB);
        break;
      default: {
        bartercast::BarterCastMessage msg;
        msg.sender = u;
        msg.sent_at = static_cast<Seconds>(round);
        msg.records = {{u, v, claim, 0}};
        ASSERT_EQ(view.apply_message(msg).applied, 1u);
      }
    }
    // Full sweep through the cache; every value must equal a cold
    // recompute on the current graph, bit for bit.
    for (PeerId s = 1; s < kPeers; ++s) {
      const double cached = cache.reputation(s);
      const double fresh = cold.reputation(view, s);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cached),
                std::bit_cast<std::uint64_t>(fresh))
          << "round " << round << " subject " << s;
    }
  }
  // The sweep must have reused entries: with per-subject tracking only the
  // mutated two-hop neighbourhood misses each round.
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_LT(cache.misses(), cache.hits());
}

}  // namespace
}  // namespace bc::community
