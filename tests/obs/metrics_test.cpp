#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

namespace bc::obs {
namespace {

TEST(ObsRegistry, CounterFindOrCreateAndIncrement) {
  Registry r;
  Counter& c = r.counter("a.events");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Second lookup returns the same instrument, not a fresh one.
  EXPECT_EQ(&r.counter("a.events"), &c);
  EXPECT_EQ(r.counter("a.events").value(), 5u);
  EXPECT_EQ(r.num_instruments(), 1u);
}

TEST(ObsRegistry, ReferencesSurviveLaterInsertions) {
  Registry r;
  Counter& m = r.counter("m");
  m.inc(7);
  // Insertions on either side of "m" must not invalidate the reference
  // (node-based storage guarantee the call sites rely on).
  for (int i = 0; i < 64; ++i) {
    const std::string n = std::to_string(i);
    r.counter("a" + n);
    r.counter("z" + n);
  }
  EXPECT_EQ(m.value(), 7u);
  m.inc();
  EXPECT_EQ(r.counter("m").value(), 8u);
}

TEST(ObsRegistry, SnapshotIsNameSorted) {
  Registry r;
  r.counter("zeta").inc(1);
  r.counter("alpha").inc(2);
  r.counter("mid").inc(3);
  r.log_histogram("h2", LogSpec::magnitude()).observe(2.0);
  r.log_histogram("h1", LogSpec::magnitude()).observe(1.0);
  const Snapshot s = r.snapshot();
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].first, "alpha");
  EXPECT_EQ(s.counters[1].first, "mid");
  EXPECT_EQ(s.counters[2].first, "zeta");
  EXPECT_EQ(s.counters[0].second, 2u);
  ASSERT_EQ(s.log_histograms.size(), 2u);
  EXPECT_EQ(s.log_histograms[0].name, "h1");
  EXPECT_EQ(s.log_histograms[1].name, "h2");
}

TEST(ObsRegistry, SnapshotIsDeterministicAcrossInsertionOrders) {
  Registry a;
  a.counter("x").inc(1);
  a.counter("y").inc(2);
  Registry b;
  b.counter("y").inc(2);
  b.counter("x").inc(1);
  const Snapshot sa = a.snapshot();
  const Snapshot sb = b.snapshot();
  ASSERT_EQ(sa.counters.size(), sb.counters.size());
  for (std::size_t i = 0; i < sa.counters.size(); ++i) {
    EXPECT_EQ(sa.counters[i], sb.counters[i]);
  }
}

TEST(ObsRegistry, ResetValuesKeepsRegistrationsAndReferences) {
  Registry r;
  Counter& c = r.counter("c");
  c.inc(10);
  LogHistogram& h = r.log_histogram("h", LogSpec::magnitude());
  h.observe(3.0);
  const std::size_t buckets = h.num_buckets();
  r.reset_values();
  EXPECT_EQ(r.num_instruments(), 2u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.total(), 0u);
  // The bucket layout survives the reset even though the counts are zeroed.
  EXPECT_EQ(h.num_buckets(), buckets);
  c.inc();
  EXPECT_EQ(r.counter("c").value(), 1u);
}

TEST(ObsRegistry, HistogramEdgesConsumedOnFirstCreationOnly) {
  Registry r;
  LogHistogram& h = r.log_histogram("rep", LogSpec::signed_unit());
  // A later lookup with another geometry returns the original instrument.
  LogHistogram& again = r.log_histogram("rep", LogSpec::magnitude());
  EXPECT_EQ(&h, &again);
  EXPECT_TRUE(again.spec().with_negative);
  EXPECT_EQ(again.num_buckets(),
            LogHistogram(LogSpec::signed_unit()).num_buckets());
}

// The shape of the per-class final-reputation histograms: signed values,
// negative buckets first, and an exact fixed-point sum.
TEST(ObsRegistry, HistogramSnapshotCarriesBucketsAndTotals) {
  Registry r;
  LogHistogram& h = r.log_histogram("rep", LogSpec::signed_unit());
  h.observe(-0.5);
  h.observe(0.25);
  h.observe(0.25);
  const Snapshot s = r.snapshot();
  ASSERT_EQ(s.log_histograms.size(), 1u);
  const LogHistogramSnapshot& hs = s.log_histograms[0];
  EXPECT_EQ(hs.name, "rep");
  ASSERT_EQ(hs.buckets.size(), 2u);
  EXPECT_EQ(hs.buckets[0].first, h.index_of(-0.5));
  EXPECT_EQ(hs.buckets[0].second, 1u);
  EXPECT_EQ(hs.buckets[1].first, h.index_of(0.25));
  EXPECT_EQ(hs.buckets[1].second, 2u);
  ASSERT_EQ(hs.bucket_edges.size(), 2u);
  EXPECT_LT(hs.bucket_edges[0], 0.0);
  EXPECT_GT(hs.bucket_edges[1], 0.0);
  EXPECT_EQ(hs.total, 3u);
  EXPECT_EQ(hs.sum_units, 0);
}

}  // namespace
}  // namespace bc::obs
