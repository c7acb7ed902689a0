#include "util/flat_map.hpp"

#include <cstdint>

#include <gtest/gtest.h>

namespace bc::util {
namespace {

TEST(FlatMap, FindsOnlyWhatWasInserted) {
  FlatMap<std::uint32_t, std::uint64_t> m;
  EXPECT_EQ(m.find(7), nullptr);  // empty table: no cells at all
  const auto [value, inserted] = m.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 70u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70u);
  EXPECT_EQ(m.find(8), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, TryEmplaceKeepsTheExistingValue) {
  FlatMap<std::uint32_t, std::uint64_t> m;
  m.try_emplace(3, 30);
  const auto [value, inserted] = m.try_emplace(3, 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*value, 30u);
  *value = 31;  // written in place
  EXPECT_EQ(m.at(3), 31u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EntriesSurviveGrowth) {
  // Consecutive keys, as PeerIds are, and packed pairs sharing a high half,
  // as one node's edges do, across many doublings of the table.
  FlatMap<std::uint32_t, std::uint32_t> ids;
  FlatMap<std::uint64_t, std::int64_t> pairs;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ids.try_emplace(i, i * 3);
    pairs.try_emplace((std::uint64_t{42} << 32) | i, -std::int64_t{i});
  }
  EXPECT_EQ(ids.size(), 5000u);
  EXPECT_EQ(pairs.size(), 5000u);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(ids.at(i), i * 3);
    EXPECT_EQ(pairs.at((std::uint64_t{42} << 32) | i), -std::int64_t{i});
  }
  EXPECT_EQ(ids.find(5000), nullptr);
  EXPECT_EQ(pairs.find(std::uint64_t{43} << 32), nullptr);
}

TEST(FlatMap, TheFreeCellKeyIsNeverFound) {
  // All ones marks a free cell: looking it up must not return a free
  // cell's value, and storing it is refused.
  FlatMap<std::uint32_t, std::uint64_t> m;
  m.try_emplace(1, 10);
  EXPECT_EQ(m.find(FlatMap<std::uint32_t, std::uint64_t>::kEmptyKey), nullptr);
  EXPECT_DEATH(m.try_emplace(0xffffffffu, 5), "free cell");
}

}  // namespace
}  // namespace bc::util
