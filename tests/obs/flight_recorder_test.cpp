#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace_writer.hpp"

namespace bc::obs {
namespace {

// "e<i>", appended rather than `"e" + std::to_string(i)`: GCC 12 at -O3
// raises a false -Wrestrict on `literal + std::string&&`.
std::string event_name(int i) {
  return std::string("e").append(std::to_string(i));
}

// Golden eviction order: a capacity-4 ring fed 6 events keeps the newest
// 4, and chronological() resolves the wrap-around back to time order.
TEST(FlightRecorder, RingEvictsOldestInOrder) {
  Tracer t;
  t.set_ring_capacity(4);
  for (int i = 0; i < 6; ++i) {
    t.instant(event_name(i), "test", static_cast<double>(i));
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped_events(), 2u);
  const std::vector<TraceEvent> chron = t.chronological();
  ASSERT_EQ(chron.size(), 4u);
  EXPECT_EQ(chron[0].name, "e2");
  EXPECT_EQ(chron[1].name, "e3");
  EXPECT_EQ(chron[2].name, "e4");
  EXPECT_EQ(chron[3].name, "e5");
}

TEST(FlightRecorder, WriteJsonResolvesWrapAround) {
  Tracer t;
  t.set_ring_capacity(2);
  t.instant("a", "c", 1.0);
  t.instant("b", "c", 2.0);
  t.instant("c", "c", 3.0);  // evicts "a"; raw buffer is now [c, b]
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"b\",\"cat\":\"c\",\"ph\":\"i\","
      "\"pid\":0,\"tid\":0,\"ts\":2000000},"
      "{\"name\":\"c\",\"cat\":\"c\",\"ph\":\"i\","
      "\"pid\":0,\"tid\":0,\"ts\":3000000}"
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(t.to_json(), expected);
}

TEST(FlightRecorder, UnboundedBufferKeepsEverythingChronological) {
  Tracer t;
  for (int i = 0; i < 8; ++i) {
    t.instant(event_name(i), "test", static_cast<double>(i));
  }
  EXPECT_EQ(t.dropped_events(), 0u);
  const std::vector<TraceEvent> chron = t.chronological();
  ASSERT_EQ(chron.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(chron[static_cast<std::size_t>(i)].name, event_name(i));
  }
}

TEST(FlightRecorder, DumpNowWritesConfiguredPath) {
  Tracer t;
  EXPECT_FALSE(t.dump_now());  // no path configured yet
  t.instant("ev", "c", 1.0);
  const std::string path = ::testing::TempDir() + "bc_flight_dump.json";
  t.set_dump_path(path);
  ASSERT_TRUE(t.dump_now());
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

TEST(FlightRecorder, SignalDumpIsServedAtPollTime) {
  Tracer t;
  const std::string path = ::testing::TempDir() + "bc_flight_signal.json";
  t.set_dump_path(path);
  t.instant("before_signal", "c", 1.0);

  EXPECT_FALSE(t.poll_signal_dump());  // nothing requested yet
  t.arm_signal_dump(SIGUSR1);
  std::raise(SIGUSR1);  // handler only sets a flag; no file yet
  EXPECT_TRUE(t.poll_signal_dump());
  EXPECT_FALSE(t.poll_signal_dump());  // request was consumed

  std::string read_back;
  {
    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[8192];
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    std::fclose(f);
    read_back.assign(buf, n);
  }
  EXPECT_NE(read_back.find("before_signal"), std::string::npos);
  std::remove(path.c_str());
  std::signal(SIGUSR1, SIG_DFL);
}

}  // namespace
}  // namespace bc::obs
