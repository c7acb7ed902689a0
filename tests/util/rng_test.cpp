#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "util/checked.hpp"  // BC_NO_SANITIZE_INTEGER

namespace bc {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) seen.insert(r());
  EXPECT_GT(seen.size(), 30u);  // no degenerate constant stream
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(7);
  Rng child = parent.fork();
  // Child stream should not replicate the parent stream.
  Rng parent2(7);
  (void)parent2.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == parent()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 9.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng r(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng r(10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(r.uniform_int(42, 42), 42);
  }
}

/// uniform_int's rejection as first written: the limit computed for every
/// draw. The current code computes it only for draws that can reach it.
/// The sum is formed in unsigned space, as there.
BC_NO_SANITIZE_INTEGER std::int64_t uniform_int_every_draw(
    Rng& r, std::int64_t lo, std::int64_t hi) {
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(r());
  const std::uint64_t limit = Rng::max() - Rng::max() % range;
  std::uint64_t v = r();
  while (v >= limit) v = r();
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   v % range);
}

/// The hi of a span of `range` values from INT64_MIN (0: the full span).
BC_NO_SANITIZE_INTEGER std::int64_t hi_from_min(std::uint64_t range) {
  return static_cast<std::int64_t>(
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min()) +
      range - 1);
}

TEST(Rng, UniformIntMatchesTheLimitOnEveryDrawFormula) {
  // Spans just past 2^63 reject about half their draws, so the redraw
  // loop runs often there.
  constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t ranges[] = {1,
                                  2,
                                  3,
                                  7,
                                  kTwo32 - 1,
                                  kTwo32,
                                  kTwo32 + 1,
                                  std::uint64_t{1} << 62,
                                  kTwo63 - 1,
                                  kTwo63,
                                  kTwo63 + 1,
                                  kMax - 1,
                                  kMax,
                                  0};  // 0: the full 64-bit range
  constexpr std::int64_t kLo = std::numeric_limits<std::int64_t>::min();
  for (std::uint64_t range : ranges) {
    const std::int64_t hi = hi_from_min(range);
    Rng fast(424242);
    Rng reference(424242);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(fast.uniform_int(kLo, hi),
                uniform_int_every_draw(reference, kLo, hi))
          << "range " << range << " draw " << i;
    }
    EXPECT_EQ(fast(), reference()) << "range " << range;
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(12);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, ExponentialNonNegative) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.exponential(1.0), 0.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(14);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(2.0, 1.5);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 2.25, 0.15);
}

TEST(Rng, LognormalIsExpOfNormal) {
  Rng a(15), b(15);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.lognormal(0.5, 0.2), std::exp(b.normal(0.5, 0.2)));
  }
}

TEST(Rng, ParetoAboveMinimum) {
  Rng r(16);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, ZipfFavoursLowRanks) {
  Rng r(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[r.zipf(10, 1.0)];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(Rng, ZipfSingleElement) {
  Rng r(18);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(r.zipf(1, 1.0), 0u);
  }
}

TEST(Rng, IndexInRange) {
  Rng r(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.index(7), 7u);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng r(20);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleDistinctAndSubset) {
  Rng r(21);
  std::vector<int> v{10, 20, 30, 40, 50};
  const auto s = r.sample(v, 3);
  ASSERT_EQ(s.size(), 3u);
  std::set<int> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 3u);
  for (int x : s) {
    EXPECT_NE(std::find(v.begin(), v.end(), x), v.end());
  }
}

TEST(Rng, SampleMoreThanAvailableReturnsAll) {
  Rng r(22);
  std::vector<int> v{1, 2, 3};
  const auto s = r.sample(v, 10);
  EXPECT_EQ(s.size(), 3u);
}

TEST(Rng, SampleEmpty) {
  Rng r(23);
  EXPECT_TRUE(r.sample(std::vector<int>{}, 4).empty());
}

// Property sweep: bounded generation is unbiased enough across seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformIntCoversRangeUniformly) {
  Rng r(GetParam());
  std::vector<int> counts(8, 0);
  const int n = 16000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(r.uniform_int(0, 7))];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 / 4);  // within 25% of expectation
  }
}

TEST_P(RngSeedSweep, DeterministicReplay) {
  Rng a(GetParam()), b(GetParam());
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 1337ULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace bc
