#include "bittorrent/piece_picker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <unordered_set>
#include <vector>

namespace bc::bt {
namespace {

struct PickerFixture : ::testing::Test {
  PickerFixture()
      : mine(8), theirs(8, true), availability(8), in_flight(8), rng(1) {}

  PickRequest request() {
    PickRequest req;
    req.mine = &mine;
    req.theirs = &theirs;
    req.availability = &availability;
    req.in_flight = &in_flight;
    req.random_first_threshold = 0;  // pure rarest-first unless overridden
    return req;
  }

  Bitfield mine;
  Bitfield theirs;
  Availability availability;
  Bitfield in_flight;
  Rng rng;
};

TEST_F(PickerFixture, PicksRarestPiece) {
  // Piece 5 is the rarest (availability 1), everything else higher.
  for (int p = 0; p < 8; ++p) {
    for (int c = 0; c < (p == 5 ? 1 : 3); ++c) availability.add_piece(p);
  }
  const auto pick = pick_piece(request(), rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 5);
}

TEST_F(PickerFixture, SkipsOwnedPieces) {
  for (int p = 0; p < 8; ++p) availability.add_piece(p);
  for (int p = 0; p < 7; ++p) mine.set(p);
  const auto pick = pick_piece(request(), rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 7);
}

TEST_F(PickerFixture, SkipsPiecesUploaderLacks) {
  Bitfield partial(8);
  partial.set(3);
  auto req = request();
  req.theirs = &partial;
  const auto pick = pick_piece(req, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 3);
}

TEST_F(PickerFixture, SkipsInFlight) {
  Bitfield partial(8);
  partial.set(3);
  partial.set(4);
  in_flight.set(3);
  auto req = request();
  req.theirs = &partial;
  const auto pick = pick_piece(req, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 4);
}

TEST_F(PickerFixture, NothingUsefulReturnsNullopt) {
  Bitfield nothing(8);
  auto req = request();
  req.theirs = &nothing;
  EXPECT_FALSE(pick_piece(req, rng).has_value());
}

TEST_F(PickerFixture, CompleteDownloaderGetsNothing) {
  for (int p = 0; p < 8; ++p) mine.set(p);
  EXPECT_FALSE(pick_piece(request(), rng).has_value());
}

TEST_F(PickerFixture, AllInFlightReturnsNullopt) {
  for (int p = 0; p < 8; ++p) in_flight.set(p);
  EXPECT_FALSE(pick_piece(request(), rng).has_value());
}

TEST_F(PickerFixture, RandomFirstIgnoresRarity) {
  // With the random-first threshold active, common pieces are fair game.
  for (int p = 0; p < 8; ++p) {
    for (int c = 0; c < (p == 5 ? 1 : 3); ++c) availability.add_piece(p);
  }
  auto req = request();
  req.random_first_threshold = 4;  // mine.count()==0 < 4 -> random mode
  std::set<int> chosen;
  for (int i = 0; i < 200; ++i) {
    const auto pick = pick_piece(req, rng);
    ASSERT_TRUE(pick.has_value());
    chosen.insert(*pick);
  }
  EXPECT_GT(chosen.size(), 4u);  // spread, not always the rarest
}

TEST_F(PickerFixture, RarestTieBrokenUniformlyIsh) {
  // Pieces 2 and 6 equally rare; both must be chosen sometimes.
  for (int p = 0; p < 8; ++p) {
    for (int c = 0; c < ((p == 2 || p == 6) ? 1 : 5); ++c) {
      availability.add_piece(p);
    }
  }
  std::set<int> chosen;
  for (int i = 0; i < 100; ++i) {
    chosen.insert(*pick_piece(request(), rng));
  }
  EXPECT_EQ(chosen, (std::set<int>{2, 6}));
}

/// The per-piece scan pick_piece replaced, kept as the reference: one bit
/// test per piece and a hash lookup per candidate, reservoir tie-breaking.
std::optional<int> reference_pick(const Bitfield& mine, const Bitfield& theirs,
                                  const Availability& availability,
                                  const std::unordered_set<int>& in_flight,
                                  int random_first_threshold, Rng& rng) {
  const bool random_first = mine.count() < random_first_threshold;
  int best_rarity = std::numeric_limits<int>::max();
  int chosen = -1;
  int ties = 0;
  for (int p = 0; p < mine.size(); ++p) {
    if (mine.get(p) || !theirs.get(p)) continue;
    if (in_flight.contains(p)) continue;
    const int rarity = random_first ? 0 : availability.count(p);
    if (rarity < best_rarity) {
      best_rarity = rarity;
      chosen = p;
      ties = 1;
    } else if (rarity == best_rarity) {
      ++ties;
      if (rng.index(static_cast<std::size_t>(ties)) == 0) chosen = p;
    }
  }
  if (chosen < 0) return std::nullopt;
  return chosen;
}

TEST(PickPieceDifferential, WordScanMatchesPerPieceScan) {
  // Same inputs, two generators from one seed: the word scan must pick the
  // same piece and make the same draws (the next draw of each generator
  // agrees), in rarest-first, mixed and random-first mode.
  Rng gen(4242);
  const double densities[] = {0.0, 0.05, 0.5, 0.95, 1.0};
  auto density = [&] { return densities[gen.index(std::size(densities))]; };
  for (int size : {1, 63, 64, 65, 127, 128, 1000, 6000}) {
    for (int trial = 0; trial < 30; ++trial) {
      Bitfield mine(size);
      Bitfield theirs(size);
      Bitfield in_flight(size);
      std::unordered_set<int> in_flight_set;
      Availability availability(size);
      const double p_mine = density();
      const double p_theirs = density();
      const double p_flight = density() * 0.3;
      for (int p = 0; p < size; ++p) {
        if (gen.chance(p_mine)) mine.set(p);
        if (gen.chance(p_theirs)) theirs.set(p);
        if (gen.chance(p_flight)) {
          in_flight.set(p);
          in_flight_set.insert(p);
        }
        // Few distinct rarities, so ties (and draws) are common.
        const auto copies = gen.uniform_int(0, 3);
        for (std::int64_t c = 0; c < copies; ++c) availability.add_piece(p);
      }
      for (int threshold : {0, 4, size + 1}) {
        PickRequest req;
        req.mine = &mine;
        req.theirs = &theirs;
        req.availability = &availability;
        req.in_flight = &in_flight;
        req.random_first_threshold = threshold;
        const std::uint64_t seed = gen();
        Rng fast(seed);
        Rng slow(seed);
        for (int pick = 0; pick < 3; ++pick) {
          ASSERT_EQ(pick_piece(req, fast),
                    reference_pick(mine, theirs, availability, in_flight_set,
                                   threshold, slow))
              << "size " << size << " trial " << trial << " threshold "
              << threshold << " pick " << pick;
        }
        EXPECT_EQ(fast(), slow()) << "size " << size << " trial " << trial;
      }
    }
  }
}

/// pick_piece and reference_pick from one seed: three picks in a row must
/// agree, and then the next draw of each generator.
void expect_same_picks(const Bitfield& mine, const Bitfield& theirs,
                       const Bitfield& in_flight,
                       const Availability& availability, int threshold,
                       std::uint64_t seed) {
  std::unordered_set<int> in_flight_set;
  for (int p = 0; p < in_flight.size(); ++p) {
    if (in_flight.get(p)) in_flight_set.insert(p);
  }
  PickRequest req;
  req.mine = &mine;
  req.theirs = &theirs;
  req.availability = &availability;
  req.in_flight = &in_flight;
  req.random_first_threshold = threshold;
  Rng fast(seed);
  Rng slow(seed);
  for (int pick = 0; pick < 3; ++pick) {
    ASSERT_EQ(pick_piece(req, fast),
              reference_pick(mine, theirs, availability, in_flight_set,
                             threshold, slow))
        << "threshold " << threshold << " pick " << pick;
  }
  EXPECT_EQ(fast(), slow()) << "threshold " << threshold;
}

Bitfield random_bitfield(int size, double density, Rng& gen) {
  Bitfield b(size);
  for (int p = 0; p < size; ++p) {
    if (gen.chance(density)) b.set(p);
  }
  return b;
}

TEST(PickPieceDifferential, LevelsBuiltFromBitfields) {
  // Members join and leave with complete, partial and empty bitfields, so
  // both the level shift and the per-piece moves run. After every step the
  // counts and levels must match a per-piece tally, and the picks the
  // per-piece scan.
  Rng gen(777);
  for (int size : {1, 63, 64, 65, 200, 1536}) {
    SCOPED_TRACE(::testing::Message() << "size " << size);
    Availability availability(size);
    std::vector<int> tally(static_cast<std::size_t>(size), 0);
    std::vector<Bitfield> held;
    for (int step = 0; step < 60; ++step) {
      const double dice = gen.uniform();
      if (dice < 0.25 && !held.empty()) {
        const std::size_t i = gen.index(held.size());
        availability.remove_bitfield(held[i]);
        for (int p = 0; p < size; ++p) {
          if (held[i].get(p)) --tally[static_cast<std::size_t>(p)];
        }
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (dice < 0.35) {
        const auto p =
            static_cast<int>(gen.index(static_cast<std::size_t>(size)));
        availability.add_piece(p);
        ++tally[static_cast<std::size_t>(p)];
      } else {
        held.push_back(dice < 0.6 ? Bitfield(size, true)
                                  : random_bitfield(size, gen.uniform(), gen));
        availability.add_bitfield(held.back());
        for (int p = 0; p < size; ++p) {
          if (held.back().get(p)) ++tally[static_cast<std::size_t>(p)];
        }
      }
      ASSERT_EQ(availability.lowest(),
                *std::min_element(tally.begin(), tally.end()))
          << "step " << step;
      for (int c = 0; c < availability.num_levels(); ++c) {
        const auto level = availability.level(c);
        for (int p = 0; p < size; ++p) {
          const auto bit = static_cast<std::size_t>(p);
          ASSERT_EQ((level[bit / 64] >> (bit % 64)) & 1,
                    tally[bit] == c ? 1u : 0u)
              << "step " << step << " level " << c << " piece " << p;
        }
      }
      for (int p = 0; p < size; ++p) {
        ASSERT_EQ(availability.count(p), tally[static_cast<std::size_t>(p)])
            << "step " << step << " piece " << p;
      }
      const Bitfield mine = random_bitfield(size, 0.3, gen);
      const Bitfield theirs = random_bitfield(size, 0.8, gen);
      const Bitfield in_flight = random_bitfield(size, 0.05, gen);
      for (int threshold : {0, size + 1}) {
        expect_same_picks(mine, theirs, in_flight, availability, threshold,
                          gen());
      }
    }
  }
}

TEST(PickPieceDifferential, PrefixReplayDraws) {
  // Many distinct counts put the first rarest candidate late, so the scan
  // draws before it whenever a candidate ties the lowest count seen so far.
  // A staircase (each count three times, descending) makes it draw twice
  // per step; the random counts vary the ties.
  Rng gen(31337);
  for (int size : {64, 130, 600}) {
    SCOPED_TRACE(::testing::Message() << "size " << size);
    Availability staircase(size);
    Availability spread(size);
    for (int p = 0; p < size; ++p) {
      for (int c = 0; c < (size - 1 - p) / 3; ++c) staircase.add_piece(p);
      const auto copies = gen.uniform_int(0, 40);
      for (std::int64_t c = 0; c < copies; ++c) spread.add_piece(p);
    }
    const Bitfield none(size);
    const Bitfield all(size, true);
    expect_same_picks(none, all, none, staircase, 0, gen());
    for (int trial = 0; trial < 20; ++trial) {
      const Bitfield mine = random_bitfield(size, 0.2, gen);
      const Bitfield in_flight = random_bitfield(size, 0.05, gen);
      expect_same_picks(mine, all, in_flight, staircase, 0, gen());
      expect_same_picks(mine, all, in_flight, spread, 0, gen());
    }
  }
}

TEST(PickPieceDifferential, TiesPastTheDivisorTable) {
  // 5,000 equally rare candidates: tie counts pass the end of Rng::one_in's
  // divisor table, where it falls back to a division.
  const int size = 5000;
  ASSERT_GT(static_cast<std::size_t>(size), detail::kExactDivisors);
  Rng gen(99);
  Availability availability(size);
  const Bitfield none(size);
  const Bitfield all(size, true);
  for (int threshold : {0, size + 1}) {
    for (int trial = 0; trial < 5; ++trial) {
      expect_same_picks(none, all, none, availability, threshold, gen());
    }
  }
}

TEST(Availability, TracksBitfields) {
  Availability a(4);
  Bitfield b(4);
  b.set(1);
  b.set(2);
  a.add_bitfield(b);
  EXPECT_EQ(a.count(0), 0);
  EXPECT_EQ(a.count(1), 1);
  a.add_piece(1);
  EXPECT_EQ(a.count(1), 2);
  a.remove_bitfield(b);
  EXPECT_EQ(a.count(1), 1);
  EXPECT_EQ(a.count(2), 0);
}

TEST(AvailabilityDeathTest, RemoveBelowZero) {
  Availability a(2);
  Bitfield b(2);
  b.set(0);
  EXPECT_DEATH(a.remove_bitfield(b), "");
}

}  // namespace
}  // namespace bc::bt
