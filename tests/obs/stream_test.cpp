#include "obs/stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace bc::obs {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Golden-string check for the "bc.metrics.window.v2" schema. The NDJSON
// stream is a contract with the CI schema checker and with anything that
// tails it — if this test needs updating, bump the schema id.
TEST(MetricsStream, GoldenWindowLines) {
  Registry r;
  r.counter("a").inc(3);  // pre-open activity: excluded by the baseline

  MetricsStream s;
  const std::string path = ::testing::TempDir() + "bc_stream_golden.ndjson";
  ASSERT_TRUE(s.open(path, r));

  r.counter("a").inc(2);
  r.counter("b").inc(1);
  LogHistogram& h = r.log_histogram("h", LogSpec::magnitude());
  h.observe(4.0);  // bucket 17, upper edge 4.5
  h.observe(5.0);  // bucket 19, upper edge 5.5
  s.emit_window(r, 3600.0);

  r.counter("a").inc(5);
  s.emit_window(r, 7200.0);

  s.emit_window(r, 10800.0);  // empty window: line still emitted
  s.close();

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "{\"schema\":\"bc.metrics.window.v2\",\"seq\":0,\"t\":3600,"
            "\"counters\":{\"a\":2,\"b\":1},"
            "\"log_histograms\":{\"h\":{\"buckets\":[[17,1],[19,1]],"
            "\"total\":2,\"sum\":9,\"p50\":4.5,\"p99\":5.5,\"max\":5.5}}}");
  EXPECT_EQ(lines[1],
            "{\"schema\":\"bc.metrics.window.v2\",\"seq\":1,\"t\":7200,"
            "\"counters\":{\"a\":5},\"log_histograms\":{}}");
  EXPECT_EQ(lines[2],
            "{\"schema\":\"bc.metrics.window.v2\",\"seq\":2,\"t\":10800,"
            "\"counters\":{},\"log_histograms\":{}}");
  EXPECT_EQ(s.windows_written(), 3u);
  std::remove(path.c_str());
}

TEST(MetricsStream, CounterDeltasSumToEndOfRunTotals) {
  Registry r;
  r.counter("events").inc(7);  // baseline the stream must subtract

  MetricsStream s;
  const std::string path = ::testing::TempDir() + "bc_stream_sum.ndjson";
  ASSERT_TRUE(s.open(path, r));
  const std::uint64_t baseline = r.counter("events").value();

  std::int64_t summed = 0;
  for (int w = 0; w < 5; ++w) {
    const std::uint64_t before = r.counter("events").value();
    r.counter("events").inc(static_cast<std::uint64_t>(w * 13 + 1));
    s.emit_window(r, (w + 1) * 3600.0);
    summed += static_cast<std::int64_t>(r.counter("events").value() - before);
  }
  s.close();

  // Exact reconstruction: baseline + sum of window deltas == final total.
  EXPECT_EQ(baseline + static_cast<std::uint64_t>(summed),
            r.counter("events").value());
  // And the file's deltas are those exact integers (5 lines, all non-empty).
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 5u);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"events\":"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(MetricsStream, SignedDeltaWhenResetLowersACounter) {
  Registry r;
  r.counter("cache").inc(10);
  MetricsStream s;
  const std::string path = ::testing::TempDir() + "bc_stream_signed.ndjson";
  ASSERT_TRUE(s.open(path, r));
  r.reset_values();  // lawful mid-stream: the counter drops from 10 to 4
  r.counter("cache").inc(4);
  s.emit_window(r, 1.0);
  s.close();
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"cache\":-6"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsStream, OpenFailureLeavesStreamClosed) {
  Registry r;
  MetricsStream s;
  EXPECT_FALSE(s.open("/nonexistent-dir-bc-obs/out.ndjson", r));
  EXPECT_FALSE(s.is_open());
  s.emit_window(r, 1.0);  // no-op, must not crash
  EXPECT_EQ(s.windows_written(), 0u);
}

}  // namespace
}  // namespace bc::obs
