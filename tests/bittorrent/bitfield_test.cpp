#include "bittorrent/bitfield.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

namespace bc::bt {
namespace {

TEST(Bitfield, EmptyStart) {
  Bitfield b(10);
  EXPECT_EQ(b.size(), 10);
  EXPECT_EQ(b.count(), 0);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.complete());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(b.get(i));
}

TEST(Bitfield, FilledStart) {
  Bitfield b(10, /*filled=*/true);
  EXPECT_EQ(b.count(), 10);
  EXPECT_TRUE(b.complete());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(b.get(i));
}

TEST(Bitfield, SetReturnsFreshness) {
  Bitfield b(5);
  EXPECT_TRUE(b.set(2));
  EXPECT_FALSE(b.set(2));
  EXPECT_EQ(b.count(), 1);
  EXPECT_TRUE(b.get(2));
  EXPECT_FALSE(b.get(1));
}

TEST(Bitfield, CompleteAfterAllSet) {
  Bitfield b(3);
  b.set(0);
  b.set(1);
  EXPECT_FALSE(b.complete());
  b.set(2);
  EXPECT_TRUE(b.complete());
}

TEST(Bitfield, WordBoundarySizes) {
  for (int n : {1, 63, 64, 65, 128, 129}) {
    Bitfield b(n, /*filled=*/true);
    EXPECT_EQ(b.count(), n) << "n=" << n;
    EXPECT_TRUE(b.complete()) << "n=" << n;
    Bitfield e(n);
    e.set(n - 1);
    EXPECT_EQ(e.count(), 1) << "n=" << n;
    EXPECT_TRUE(e.get(n - 1)) << "n=" << n;
  }
}

TEST(Bitfield, InterestingDetection) {
  Bitfield mine(4), theirs(4);
  EXPECT_FALSE(mine.is_interesting(theirs));  // both empty
  theirs.set(2);
  EXPECT_TRUE(mine.is_interesting(theirs));
  mine.set(2);
  EXPECT_FALSE(mine.is_interesting(theirs));  // nothing new
  mine.set(3);
  EXPECT_FALSE(mine.is_interesting(theirs));  // we are ahead
}

TEST(Bitfield, SeedNotInterestedInAnyone) {
  Bitfield seed(8, true), leecher(8);
  leecher.set(1);
  EXPECT_FALSE(seed.is_interesting(leecher));
  EXPECT_TRUE(leecher.is_interesting(seed));
}

TEST(Bitfield, ResetReportsPriorStateAndCount) {
  Bitfield b(70);
  b.set(3);
  b.set(69);
  EXPECT_TRUE(b.reset(69));
  EXPECT_FALSE(b.reset(69));
  EXPECT_FALSE(b.reset(4));
  EXPECT_EQ(b.count(), 1);
  EXPECT_TRUE(b.get(3));
  EXPECT_FALSE(b.get(69));
  EXPECT_TRUE(b.reset(3));
  EXPECT_TRUE(b.empty());
}

TEST(Bitfield, WordsHoldPieceBitsLowestFirst) {
  Bitfield b(130);
  for (int p : {0, 63, 64, 129}) b.set(p);
  const auto words = b.words();
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], (std::uint64_t{1} << 63) | 1u);
  EXPECT_EQ(words[1], 1u);
  EXPECT_EQ(words[2], std::uint64_t{1} << 1);
}

TEST(Bitfield, BitsPastSizeStayClear) {
  // The word scans in is_interesting and pick_piece rely on the tail of
  // the last word being zero, however the field was filled.
  for (int n : {1, 63, 64, 65, 127, 128, 129, 1000}) {
    Bitfield filled(n, /*filled=*/true);
    Bitfield grown(n);
    for (int p = n - 1; p >= 0; --p) grown.set(p);
    for (int p = 0; p < n; p += 3) {
      grown.reset(p);
      grown.set(p);
    }
    const int tail = n % 64;
    const std::uint64_t past =
        tail == 0 ? 0 : ~((std::uint64_t{1} << tail) - 1);
    for (const Bitfield* b : {&filled, &grown}) {
      const auto words = b->words();
      ASSERT_EQ(words.size(), static_cast<std::size_t>((n + 63) / 64));
      EXPECT_EQ(words.back() & past, 0u) << "n=" << n;
      int bits = 0;
      for (std::uint64_t w : words) bits += std::popcount(w);
      EXPECT_EQ(bits, n) << "n=" << n;
      EXPECT_EQ(b->count(), n) << "n=" << n;
    }
    EXPECT_TRUE(std::equal(filled.words().begin(), filled.words().end(),
                           grown.words().begin()))
        << "n=" << n;
  }
}

TEST(BitfieldDeathTest, OutOfRange) {
  Bitfield b(4);
  EXPECT_DEATH(b.get(4), "piece");
  EXPECT_DEATH(b.set(-1), "piece");
}

TEST(BitfieldDeathTest, ResetOutOfRange) {
  Bitfield b(4);
  EXPECT_DEATH(b.reset(4), "piece");
  EXPECT_DEATH(b.reset(-1), "piece");
}

}  // namespace
}  // namespace bc::bt
