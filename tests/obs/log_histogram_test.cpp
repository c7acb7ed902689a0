#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace bc::obs {
namespace {

TEST(LogHistogram, EdgesAscendStrictly) {
  const LogHistogram h(LogSpec::signed_unit());
  for (std::size_t i = 1; i < h.num_buckets(); ++i) {
    EXPECT_LT(h.upper_edge(i - 1), h.upper_edge(i)) << "bucket " << i;
  }
}

TEST(LogHistogram, ValuesLandInsideTheirBucket) {
  const LogHistogram h(LogSpec::latency_seconds());
  // In-range positives: buckets are lower-inclusive, so a value sits in
  // [upper_edge(i - 1), upper_edge(i)) — exact powers of two start a
  // fresh bucket rather than topping off the previous one.
  for (const double v : {1e-6, 3.7e-5, 0.001, 0.25, 0.5, 1.0, 3.14, 1e3,
                         9.9e5}) {
    const std::size_t i = h.index_of(v);
    EXPECT_LT(v, h.upper_edge(i)) << v;
    ASSERT_GT(i, 0u);
    EXPECT_GE(v, h.upper_edge(i - 1)) << v;
  }
}

TEST(LogHistogram, TinyValuesHitTheZeroBucket) {
  const LogHistogram h(LogSpec::latency_seconds());
  EXPECT_EQ(h.index_of(0.0), 0u);
  EXPECT_EQ(h.index_of(1e-9), 0u);  // below 2^-20
  EXPECT_EQ(h.upper_edge(0), std::ldexp(1.0, -20));
}

TEST(LogHistogram, HugeValuesClampIntoTheTopBucket) {
  const LogHistogram h(LogSpec::magnitude());  // caps at 2^40
  const std::size_t top = h.num_buckets() - 1;
  EXPECT_EQ(h.index_of(1e13), top);
  EXPECT_EQ(h.index_of(1e300), top);
}

TEST(LogHistogram, SignedSpecMirrorsNegativeValues) {
  LogHistogram h(LogSpec::signed_unit());
  const std::size_t ip = h.index_of(0.5);
  const std::size_t in = h.index_of(-0.5);
  // Mirrored around the zero bucket; negative buckets ascend toward zero.
  const std::size_t zero = h.index_of(0.0);
  EXPECT_EQ(ip - zero, zero - in);
  EXPECT_LT(in, zero);
  // The negative bucket's upper edge is the magnitude lower bound, negated,
  // so -0.5 <= edge and edges still ascend through the sign change.
  EXPECT_GE(h.upper_edge(in), -0.5);
  h.observe(-0.5);
  h.observe(0.5);
  EXPECT_EQ(h.count(in), 1u);
  EXPECT_EQ(h.count(ip), 1u);
  EXPECT_NEAR(h.sum(), 0.0, 1e-6);  // fixed-point: exact for these values
}

TEST(LogHistogram, QuantilesAndMax) {
  LogHistogram h(LogSpec::magnitude());
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.total(), 100u);
  // Quantiles report the upper edge of the target bucket: within one
  // sub-bucket (~12.5% for sub_bits=3) above the exact order statistic.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 50.0);
  EXPECT_LE(p50, 50.0 * 1.125 + 1.0);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p99, 99.0);
  EXPECT_LE(p99, 112.0);
  EXPECT_GE(h.max_value(), 100.0);
  EXPECT_EQ(h.quantile(1.0), h.max_value());
  EXPECT_EQ(LogHistogram(LogSpec::magnitude()).quantile(0.5), 0.0);
}

TEST(LogHistogram, MemoryIsOBucketsIndependentOfN) {
  LogHistogram h(LogSpec::latency_seconds());
  const std::size_t buckets = h.num_buckets();
  for (int i = 0; i < 100000; ++i) {
    h.observe(std::ldexp(1.0, i % 30 - 15));
  }
  EXPECT_EQ(h.num_buckets(), buckets);  // fixed at construction
  EXPECT_EQ(h.total(), 100000u);
}

TEST(LogHistogram, ResetClearsCountsAndSum) {
  LogHistogram h(LogSpec::magnitude());
  h.observe(1.0);
  h.observe(2.0);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.sum_units(), 0);
  EXPECT_EQ(h.max_value(), 0.0);
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    EXPECT_EQ(h.count(i), 0u) << "bucket " << i;
  }
}

TEST(Registry, LogHistogramRegistrationAndSnapshot) {
  Registry r;
  LogHistogram& h = r.log_histogram("lat", LogSpec::latency_seconds());
  EXPECT_EQ(&h, &r.log_histogram("lat", LogSpec::magnitude()))
      << "later lookups must ignore the spec argument";
  h.observe(0.5);
  h.observe(2.0);
  const Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.log_histograms.size(), 1u);
  const LogHistogramSnapshot& ls = snap.log_histograms[0];
  EXPECT_EQ(ls.name, "lat");
  EXPECT_EQ(ls.total, 2u);
  ASSERT_EQ(ls.buckets.size(), 2u);
  EXPECT_EQ(ls.buckets[0].second, 1u);
  ASSERT_EQ(ls.bucket_edges.size(), 2u);
  EXPECT_EQ(ls.bucket_edges[0], h.upper_edge(ls.buckets[0].first));
  EXPECT_GT(ls.p50, 0.0);
  EXPECT_GE(ls.max, 2.0);
}

TEST(Counter, StoreTotalOverwritesValue) {
  Counter c;
  c.inc(5);
  c.store_total(42);
  EXPECT_EQ(c.value(), 42u);
  c.inc(1);
  EXPECT_EQ(c.value(), 43u);
}

}  // namespace
}  // namespace bc::obs
