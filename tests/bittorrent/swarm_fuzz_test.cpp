// Randomized property tests of the swarm state machine: arbitrary
// interleavings of joins, leaves, transfers, link releases and round
// boundaries must preserve the swarm invariants, and a persistent seeder
// must eventually let every remaining leecher finish.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bittorrent/swarm.hpp"

namespace bc::bt {
namespace {

Torrent fuzz_torrent() {
  Torrent t;
  t.id = 0;
  t.size = 5000;
  t.piece_size = 250;
  t.num_pieces = 20;
  return t;
}

class SwarmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SwarmFuzz, RandomOperationsPreserveInvariants) {
  Rng rng(GetParam());
  Swarm swarm(fuzz_torrent(), rng.fork());
  std::set<PeerId> members;
  // A complete peer takes nothing, so the transfer that moves bytes and
  // leaves its downloader complete is the one that completed it.
  std::vector<PeerId> completions;

  PeerId next_id = 0;
  for (int step = 0; step < 3000; ++step) {
    const double dice = rng.uniform();
    if (dice < 0.12 || members.size() < 2) {
      const PeerId id = next_id++;
      if (rng.chance(0.3)) {
        swarm.add_seeder(id);
      } else {
        swarm.add_leecher(id);
      }
      members.insert(id);
    } else if (dice < 0.18 && members.size() > 2) {
      // Remove a random member.
      auto it = members.begin();
      std::advance(it, static_cast<long>(rng.index(members.size())));
      swarm.remove_peer(*it);
      members.erase(it);
    } else if (dice < 0.85) {
      // Transfer between two random members.
      auto a = members.begin();
      std::advance(a, static_cast<long>(rng.index(members.size())));
      auto b = members.begin();
      std::advance(b, static_cast<long>(rng.index(members.size())));
      if (*a != *b) {
        const Bytes budget = rng.uniform_int(1, 700);
        const Bytes moved = swarm.transfer(*a, *b, budget);
        EXPECT_LE(moved, budget);
        EXPECT_GE(moved, 0);
        if (moved > 0 && swarm.is_complete(*b)) completions.push_back(*b);
      }
    } else if (dice < 0.95) {
      // Release a random link.
      auto a = members.begin();
      std::advance(a, static_cast<long>(rng.index(members.size())));
      auto b = members.begin();
      std::advance(b, static_cast<long>(rng.index(members.size())));
      if (*a != *b) swarm.release_link(*a, *b);
    } else {
      swarm.end_round();
    }
    if (step % 250 == 0) {
      ASSERT_TRUE(swarm.check_invariants()) << "step " << step;
    }
  }
  EXPECT_TRUE(swarm.check_invariants());

  // Completions are unique and were leechers that really hold everything.
  std::set<PeerId> unique(completions.begin(), completions.end());
  EXPECT_EQ(unique.size(), completions.size());
  for (PeerId p : completions) {
    if (swarm.has_peer(p)) {
      EXPECT_TRUE(swarm.is_complete(p));
    }
  }
}

TEST_P(SwarmFuzz, PersistentSeederDrivesEveryoneToCompletion) {
  Rng rng(GetParam() ^ 0xf00dULL);
  Swarm swarm(fuzz_torrent(), rng.fork());
  int done = 0;
  swarm.add_seeder(0);
  const int leechers = 6;
  for (PeerId p = 1; p <= leechers; ++p) swarm.add_leecher(p);

  // Random small transfers from random sources (seeder or peers that have
  // pieces); with a persistent seeder everyone finishes eventually.
  for (int step = 0; step < 200000 && done < leechers; ++step) {
    const auto from = static_cast<PeerId>(rng.index(leechers + 1));
    const auto to = static_cast<PeerId>(1 + rng.index(leechers));
    if (from == to) continue;
    if (swarm.transfer(from, to, rng.uniform_int(1, 400)) > 0 &&
        swarm.is_complete(to)) {
      ++done;
    }
    if (rng.chance(0.01)) swarm.end_round();
  }
  EXPECT_EQ(done, leechers);
  EXPECT_TRUE(swarm.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwarmFuzz,
                         ::testing::Values(11ULL, 22ULL, 33ULL, 44ULL));

}  // namespace
}  // namespace bc::bt
