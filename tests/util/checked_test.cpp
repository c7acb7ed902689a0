// Unit tests for util/checked.hpp — the overflow-policy helpers the
// Bytes accounting paths rely on.
#include "util/checked.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace bc::util {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(Checked, AddPlainValues) {
  EXPECT_EQ(checked_add(2, 3), 5);
  EXPECT_EQ(checked_add(-7, 7), 0);
  EXPECT_EQ(checked_add(kMax - 1, 1), kMax);
  EXPECT_EQ(checked_add(kMin + 1, -1), kMin);
}

TEST(Checked, MulPlainValues) {
  EXPECT_EQ(checked_mul(6, 7), 42);
  EXPECT_EQ(checked_mul(-4, 5), -20);
  EXPECT_EQ(checked_mul(kMax, 1), kMax);
  EXPECT_EQ(checked_mul(kMin, 1), kMin);
  EXPECT_EQ(checked_mul(kMax / 2, 2), kMax - 1);
}

#ifdef NDEBUG
// Release builds: the checked forms return the two's-complement wrap
// (computed without UB by the builtin) instead of trapping.
TEST(Checked, ReleaseWrapIsDefined) {
  EXPECT_EQ(checked_add(kMax, 1), kMin);
  EXPECT_EQ(checked_add(kMin, -1), kMax);
}
#else
// Debug builds: an overflowing checked op must trip BC_DASSERT.
TEST(CheckedDeathTest, DebugOverflowAsserts) {
  EXPECT_DEATH(checked_add(kMax, 1), "checked_add");
  EXPECT_DEATH(checked_add(kMin, -1), "checked_add");
  EXPECT_DEATH(checked_mul(kMax, 2), "checked_mul");
}
#endif

TEST(Saturating, AddClampsAtBothEndpoints) {
  EXPECT_EQ(saturating_add(2, 3), 5);
  EXPECT_EQ(saturating_add(kMax, 1), kMax);
  EXPECT_EQ(saturating_add(kMax, kMax), kMax);
  EXPECT_EQ(saturating_add(kMin, -1), kMin);
  EXPECT_EQ(saturating_add(kMin, kMin), kMin);
  EXPECT_EQ(saturating_add(kMax, kMin), -1);  // no overflow: exact
}

TEST(Saturating, SubClampsAtBothEndpoints) {
  EXPECT_EQ(saturating_sub(5, 2), 3);
  EXPECT_EQ(saturating_sub(kMin, 1), kMin);
  EXPECT_EQ(saturating_sub(kMax, -1), kMax);
  EXPECT_EQ(saturating_sub(0, kMin), kMax);  // |kMin| is kMax + 1: clamp
  EXPECT_EQ(saturating_sub(-1, kMin), kMax);  // exactly representable
}

TEST(Saturating, EndpointIdentities) {
  EXPECT_EQ(saturating_add(kMax, 0), kMax);
  EXPECT_EQ(saturating_add(kMin, 0), kMin);
  EXPECT_EQ(saturating_sub(kMin, 0), kMin);
  EXPECT_EQ(saturating_sub(kMax, 0), kMax);
}

}  // namespace
}  // namespace bc::util
