#include "trace/csv.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "trace/generator.hpp"

namespace bc::trace {
namespace {

TEST(TraceCsv, RoundTripsGeneratedTrace) {
  GeneratorConfig cfg;
  cfg.seed = 5;
  cfg.num_peers = 10;
  cfg.num_swarms = 3;
  cfg.duration = kDay;
  const Trace original = generate(cfg);

  std::string error;
  const auto parsed = from_csv(to_csv(original), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->duration, original.duration);
  EXPECT_EQ(parsed->files, original.files);
  EXPECT_EQ(parsed->peers, original.peers);
  EXPECT_EQ(parsed->requests, original.requests);
}

TEST(TraceCsv, ParsesMinimalHandWritten) {
  const std::string text =
      "#trace,100\n"
      "#file,0,1000,100\n"
      "#peer,0,1\n"
      "#session,0,0,50\n"
      "#request,0,0,5\n";
  std::string error;
  const auto t = from_csv(text, &error);
  ASSERT_TRUE(t.has_value()) << error;
  EXPECT_EQ(t->files.size(), 1u);
  EXPECT_TRUE(t->peers[0].connectable);
  EXPECT_EQ(t->requests[0].swarm, 0u);
}

TEST(TraceCsv, IgnoresCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "\n"
      "#trace,100\n"
      "#file,0,1000,100\n"
      "#peer,0,0\n";
  const auto t = from_csv(text);
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->peers[0].connectable);
}

TEST(TraceCsv, RejectsSessionBeforePeer) {
  const std::string text =
      "#trace,100\n"
      "#session,0,0,50\n";
  std::string error;
  EXPECT_FALSE(from_csv(text, &error).has_value());
  EXPECT_NE(error.find("before"), std::string::npos);
}

TEST(TraceCsv, RejectsMalformedFields) {
  std::string error;
  EXPECT_FALSE(from_csv("#trace,abc\n", &error).has_value());
  EXPECT_FALSE(from_csv("#trace,100\n#file,0,xyz,100\n", &error).has_value());
  EXPECT_FALSE(from_csv("#trace,100\n#file,0,1000\n", &error).has_value());
}

TEST(TraceCsv, RejectsUnknownRecord) {
  std::string error;
  EXPECT_FALSE(from_csv("bogus,1,2\n", &error).has_value());
  EXPECT_NE(error.find("unknown"), std::string::npos);
}

TEST(TraceCsv, RejectsSemanticallyInvalid) {
  // Parses fine but fails validate() (request for unknown swarm).
  const std::string text =
      "#trace,100\n"
      "#file,0,1000,100\n"
      "#peer,0,1\n"
      "#request,0,7,5\n";
  std::string error;
  EXPECT_FALSE(from_csv(text, &error).has_value());
  EXPECT_NE(error.find("invalid trace"), std::string::npos);
}

TEST(TraceCsv, RejectsNonFiniteTimes) {
  // std::stod parses "nan" and "inf", and NaN passes every range
  // comparison: each of these used to load and then abort the simulator.
  const std::string file_and_peer =
      "#file,0,1000,100\n"
      "#peer,0,1\n";
  const std::pair<const char*, std::string> cases[] = {
      {"nan duration", "#trace,nan\n" + file_and_peer},
      {"infinite duration", "#trace,inf\n" + file_and_peer},
      {"nan session end",
       "#trace,100\n" + file_and_peer + "#session,0,0,nan\n"},
      {"nan request time",
       "#trace,100\n" + file_and_peer + "#session,0,0,50\n"
       "#request,0,0,nan\n"},
  };
  for (const auto& [label, text] : cases) {
    std::string error;
    EXPECT_FALSE(from_csv(text, &error).has_value()) << label;
    EXPECT_NE(error.find("invalid trace"), std::string::npos)
        << label << ": " << error;
    EXPECT_NE(error.find("finite"), std::string::npos)
        << label << ": " << error;
  }
}

TEST(TraceCsv, RejectsTracesOverTheAllocationBounds) {
  // Each of these used to load and then abort the simulator: a series
  // with more bins than fit a size_t or memory, a piece table of 10^18.
  const std::string peer = "#peer,0,1\n";
  const std::string file = "#file,0,1048576,16384\n";
  const std::pair<std::string, const char*> cases[] = {
      {"#trace,1e300\n" + file + peer, "longer than one year"},
      {"#trace,1e12\n" + file + peer, "longer than one year"},
      {"#trace,1000\n#file,0,1000000000000000000,1\n" + peer,
       "more than 1048576 pieces"},
  };
  for (const auto& [text, why] : cases) {
    std::string error;
    EXPECT_FALSE(from_csv(text, &error).has_value()) << text;
    EXPECT_NE(error.find("invalid trace"), std::string::npos) << error;
    EXPECT_NE(error.find(why), std::string::npos) << error;
  }
}

TEST(TraceCsv, EmptyInputIsInvalid) {
  // An empty stream has duration 0 -> fails validation.
  EXPECT_FALSE(from_csv("").has_value());
}

}  // namespace
}  // namespace bc::trace
