#include "obs/trace_writer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

namespace bc::obs {
namespace {

TEST(ObsJsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("maxflow.two_hop"), "maxflow.two_hop");
  EXPECT_EQ(json_escape(""), "");
}

TEST(ObsJsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("\r\t"), "\\r\\t");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(ObsTracer, EmptyTracerSerializesNoEvents) {
  const Tracer t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.to_json(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

// Golden-string check: the exact Chrome trace-event JSON for one instant
// and one counter event. chrome://tracing and Perfetto both
// consume this object form verbatim, so the serialization is a contract —
// if this test needs updating, re-validate a real trace in a viewer.
TEST(ObsTracer, GoldenJsonForKnownEvents) {
  Tracer t;
  t.instant("gossip.exchange", "gossip", 1.5,
            {{"initiator", "3"}, {"partner", "7"}});
  t.counter("barter.messages_sent", 3.0, 42.0);
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"gossip.exchange\",\"cat\":\"gossip\",\"ph\":\"i\","
      "\"pid\":0,\"tid\":0,\"ts\":1500000,"
      "\"args\":{\"initiator\":\"3\",\"partner\":\"7\"}},"
      "{\"name\":\"barter.messages_sent\",\"cat\":\"metrics\",\"ph\":\"C\","
      "\"pid\":0,\"tid\":0,\"ts\":3000000,\"args\":{\"value\":42}}"
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(t.to_json(), expected);
}

TEST(ObsTracer, TimestampsAreIntegerMicroseconds) {
  Tracer t;
  // 1e-7 s rounds to 0 us; 1.9999996 s rounds to 2000000 us (llround).
  t.instant("a", "c", 1e-7);
  t.instant("b", "c", 1.9999996);
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].ts_us, 0u);
  EXPECT_EQ(t.events()[1].ts_us, 2000000u);
}

TEST(ObsTracer, ArgsWithSpecialCharactersStayValidJson) {
  Tracer t;
  t.instant("ev", "c", 0.0, {{"policy", "ban(\"strict\")\n"}});
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"policy\":\"ban(\\\"strict\\\")\\n\""),
            std::string::npos);
}

TEST(ObsTracer, WriteFileRoundTrips) {
  Tracer t;
  t.instant("ev", "c", 0.5, {{"k", "v"}});
  const std::string path = ::testing::TempDir() + "bc_obs_trace_test.json";
  ASSERT_TRUE(t.write_file(path));
  std::string read_back;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    std::fclose(f);
    read_back.assign(buf, n);
  }
  EXPECT_EQ(read_back, t.to_json());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bc::obs
