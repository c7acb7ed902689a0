#include "bittorrent/piece_picker.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <set>
#include <unordered_set>

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
