#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bc {
namespace {

TEST(Cdf, EmptyInput) {
  EXPECT_TRUE(empirical_cdf({}).empty());
}

TEST(Cdf, SingleValue) {
  const std::vector<double> xs{3.0};
  const auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 1.0);
}

TEST(Cdf, CollapsesDuplicates) {
  const std::vector<double> xs{1.0, 2.0, 2.0, 3.0};
  const auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].value, 2.0);
  EXPECT_DOUBLE_EQ(cdf[1].fraction, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(Cdf, MonotoneNonDecreasing) {
  const std::vector<double> xs{5.0, -1.0, 3.0, 3.0, 0.0, 5.0, 2.0};
  const auto cdf = empirical_cdf(xs);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(CdfAt, StepSemantics) {
  const std::vector<double> xs{1.0, 2.0};
  const auto cdf = empirical_cdf(xs);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 1.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf_at(cdf, 99.0), 1.0);
}

}  // namespace
}  // namespace bc
