#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace bc {
namespace {

TEST(OnlineStats, EmptyIsNeutral) {
  OnlineStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.5, -3.0, 4.0, 4.0, 10.0};
  OnlineStats s;
  for (double x : xs) s.add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.sum(), 18.5);
}

TEST(Percentile, EmptyIsZero) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, Extremes) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 3.0);
}

TEST(Percentile, MedianInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 7.0);
}

TEST(MeanFn, Basic) {
  const std::vector<double> xs{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Pearson, PerfectPositive) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegative) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesIsZero) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> y{5, 5, 5};
  EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, TooFewPointsIsZero) {
  const std::vector<double> x{1};
  const std::vector<double> y{2};
  EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Ranks, TiesGetAverageRank) {
  const std::vector<double> xs{10.0, 20.0, 20.0, 30.0};
  const auto r = ranks(xs);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Spearman, MonotoneNonlinearIsOne) {
  std::vector<double> x, y;
  for (int i = 1; i <= 20; ++i) {
    x.push_back(i);
    y.push_back(std::atan(i * 0.3));  // nonlinear but monotone
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(LinearFit, RecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 10; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const auto fit = linear_fit(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
}

TEST(LinearFit, DegenerateXGivesZeroSlope) {
  const std::vector<double> x{2, 2, 2};
  const std::vector<double> y{1, 2, 3};
  const auto fit = linear_fit(x, y);
  EXPECT_EQ(fit.slope, 0.0);
}

// Property: pearson is symmetric and invariant to affine transforms.
class PearsonProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PearsonProperty, SymmetricAndAffineInvariant) {
  Rng rng(GetParam());
  std::vector<double> x, y, y_affine;
  for (int i = 0; i < 200; ++i) {
    const double xv = rng.normal(0, 1);
    const double yv = 0.5 * xv + rng.normal(0, 0.5);
    x.push_back(xv);
    y.push_back(yv);
    y_affine.push_back(3.0 * yv - 7.0);
  }
  EXPECT_NEAR(pearson(x, y), pearson(y, x), 1e-12);
  EXPECT_NEAR(pearson(x, y), pearson(x, y_affine), 1e-9);
  EXPECT_LE(std::abs(pearson(x, y)), 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PearsonProperty,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

}  // namespace
}  // namespace bc
