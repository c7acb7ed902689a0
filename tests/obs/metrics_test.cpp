#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

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

TEST(ObsRegistry, GaugeSetAddAndReset) {
  Registry r;
  Gauge& g = r.gauge("queue.depth");
  g.set(3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
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
  r.gauge("g2").set(2.0);
  r.gauge("g1").set(1.0);
  const Snapshot s = r.snapshot();
  ASSERT_EQ(s.counters.size(), 3u);
  EXPECT_EQ(s.counters[0].first, "alpha");
  EXPECT_EQ(s.counters[1].first, "mid");
  EXPECT_EQ(s.counters[2].first, "zeta");
  EXPECT_EQ(s.counters[0].second, 2u);
  ASSERT_EQ(s.gauges.size(), 2u);
  EXPECT_EQ(s.gauges[0].first, "g1");
  EXPECT_EQ(s.gauges[1].first, "g2");
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
  Gauge& g = r.gauge("g");
  g.set(4.0);
  Histogram& h = r.histogram("h", {1.0, 2.0});
  h.add(0.5);
  r.reset_values();
  EXPECT_EQ(r.num_instruments(), 3u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.total(), 0u);
  // Histogram shape survives the reset even though the counts are zeroed.
  ASSERT_EQ(h.edges().size(), 2u);
  c.inc();
  EXPECT_EQ(r.counter("c").value(), 1u);
}

TEST(ObsRegistry, HistogramEdgesConsumedOnFirstCreationOnly) {
  Registry r;
  Histogram& h = r.histogram("lat", {1.0, 2.0, 3.0});
  // A later lookup with different edges returns the original instrument.
  Histogram& again = r.histogram("lat", {99.0});
  EXPECT_EQ(&h, &again);
  ASSERT_EQ(again.edges().size(), 3u);
  EXPECT_DOUBLE_EQ(again.edges()[2], 3.0);
}

TEST(ObsHistogram, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 finite + overflow
  h.add(0.0);   // -> bucket 0 (v <= 1.0)
  h.add(1.0);   // -> bucket 0 (edge-exact lands below)
  h.add(1.5);   // -> bucket 1
  h.add(2.0);   // -> bucket 1
  h.add(4.0);   // -> bucket 2
  h.add(4.01);  // -> overflow
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0 + 1.0 + 1.5 + 2.0 + 4.0 + 4.01);
}

TEST(ObsHistogram, OverflowEdgeIsInfinity) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.upper_edge(0), 1.0);
  EXPECT_TRUE(std::isinf(h.upper_edge(1)));
  EXPECT_GT(h.upper_edge(1), 0.0);
}

TEST(ObsHistogram, UniformEdgesCoverRangeExactly) {
  const std::vector<double> edges = Histogram::uniform_edges(-1.0, 1.0, 4);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_DOUBLE_EQ(edges[0], -0.5);
  EXPECT_DOUBLE_EQ(edges[1], 0.0);
  EXPECT_DOUBLE_EQ(edges[2], 0.5);
  // The top edge is exact (no floating-point drift), so hi itself never
  // falls into the overflow bucket.
  EXPECT_DOUBLE_EQ(edges[3], 1.0);
  Histogram h(edges);
  h.add(1.0);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.count(4), 0u);
}

TEST(ObsHistogram, ResetZeroesCountsKeepsShape) {
  Histogram h({1.0, 2.0});
  h.add(0.5);
  h.add(5.0);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.num_buckets(), 3u);
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    EXPECT_EQ(h.count(i), 0u);
  }
}

TEST(ObsRegistry, HistogramSnapshotCarriesBucketsAndTotals) {
  Registry r;
  Histogram& h = r.histogram("rep", {0.0, 1.0});
  h.add(-0.5);
  h.add(0.5);
  h.add(2.0);
  const Snapshot s = r.snapshot();
  ASSERT_EQ(s.histograms.size(), 1u);
  const HistogramSnapshot& hs = s.histograms[0];
  EXPECT_EQ(hs.name, "rep");
  ASSERT_EQ(hs.upper_edges.size(), 2u);
  ASSERT_EQ(hs.counts.size(), 3u);
  EXPECT_EQ(hs.counts[0], 1u);
  EXPECT_EQ(hs.counts[1], 1u);
  EXPECT_EQ(hs.counts[2], 1u);
  EXPECT_EQ(hs.total, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 2.0);
}

}  // namespace
}  // namespace bc::obs
