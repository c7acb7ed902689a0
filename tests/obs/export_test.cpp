#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace_writer.hpp"

namespace bc::obs {
namespace {

TEST(ObsExport, MetricsJsonEmptyRegistry) {
  Registry r;
  Profiler p;
  const std::string json = metrics_json(r, p);
  EXPECT_EQ(json,
            "{\n  \"counters\": {},\n  \"log_histograms\": {},\n"
            "  \"profile\": {}\n}\n");
}

TEST(ObsExport, MetricsJsonContainsAllKinds) {
  Registry r;
  r.counter("b.count").inc(5);
  r.counter("a.count").inc(2);
  LogHistogram& h = r.log_histogram("lat", LogSpec::magnitude());
  h.observe(4.0);  // bucket 17, upper edge 4.5
  h.observe(5.0);  // bucket 19, upper edge 5.5
  Profiler p;
  p.set_enabled(true);
  { const ScopedTimer t(p.site("hot"), p); }
  const std::string json = metrics_json(r, p);
  // Counters appear sorted by name.
  const std::size_t pos_a = json.find("\"a.count\": 2");
  const std::size_t pos_b = json.find("\"b.count\": 5");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  EXPECT_NE(json.find("\"lat\": {\"buckets\": [[17, 1], [19, 1]], "
                      "\"total\": 2, \"sum\": 9, \"p50\": 4.5, "
                      "\"p90\": 5.5, \"p99\": 5.5, \"max\": 5.5}"),
            std::string::npos);
  EXPECT_NE(json.find("\"hot\": {\"calls\": 1, \"total_ns\": "),
            std::string::npos);
}

TEST(ObsExport, MetricsJsonIsDeterministic) {
  Registry a;
  a.counter("x").inc(1);
  a.log_histogram("h", LogSpec::magnitude()).observe(2.0);
  Registry b;
  b.log_histogram("h", LogSpec::magnitude()).observe(2.0);
  b.counter("x").inc(1);
  Profiler p;
  EXPECT_EQ(metrics_json(a, p), metrics_json(b, p));
}

TEST(ObsExport, MetricsCsvRowsAndHistogramBuckets) {
  Registry r;
  r.counter("events").inc(3);
  LogHistogram& h = r.log_histogram("lat", LogSpec::magnitude());
  h.observe(4.0);
  h.observe(5.0);
  const std::string csv = metrics_csv(r);
  EXPECT_EQ(csv,
            "name,kind,value\n"
            "events,counter,3\n"
            "lat[bucket=17],log_histogram,1\n"
            "lat[bucket=19],log_histogram,1\n"
            "lat[p50],log_histogram,4.5\n"
            "lat[p99],log_histogram,5.5\n");
}

TEST(ObsExport, ProfileReportListsSitesWithCalls) {
  Profiler p;
  p.set_enabled(true);
  { const ScopedTimer t(p.site("alpha"), p); }
  { const ScopedTimer t(p.site("alpha"), p); }
  const std::string report = profile_report(p);
  EXPECT_NE(report.find("site"), std::string::npos);
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find('2'), std::string::npos);
}

TEST(ObsExport, SnapshotCountersToTraceBuildsTracks) {
  Registry r;
  r.counter("msgs").inc(10);
  r.counter("drops").inc(1);
  Tracer t;
  snapshot_counters_to_trace(r, t, 1.0);
  r.counter("msgs").inc(5);
  snapshot_counters_to_trace(r, t, 2.0);
  ASSERT_EQ(t.size(), 4u);
  // Each snapshot emits counters in name order at the snapshot's sim time.
  EXPECT_EQ(t.events()[0].name, "drops");
  EXPECT_EQ(t.events()[0].phase, 'C');
  EXPECT_EQ(t.events()[0].ts_us, 1000000u);
  EXPECT_EQ(t.events()[1].name, "msgs");
  EXPECT_DOUBLE_EQ(t.events()[1].value, 10.0);
  EXPECT_EQ(t.events()[3].name, "msgs");
  EXPECT_DOUBLE_EQ(t.events()[3].value, 15.0);
  EXPECT_EQ(t.events()[3].ts_us, 2000000u);
}

TEST(ObsExport, WriteTextFileReportsFailureForBadPath) {
  EXPECT_FALSE(write_text_file("/nonexistent-dir-bc-obs/out.txt", "x"));
  const std::string path = ::testing::TempDir() + "bc_obs_export_test.txt";
  EXPECT_TRUE(write_text_file(path, "hello"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bc::obs
