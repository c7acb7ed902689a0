#include "analysis/plot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace bc::analysis {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct PlotFixture : ::testing::Test {
  PlotFixture() : metrics(2.0 * kDay, 6.0 * kHour) {
    metrics.reputation_sharers.add(3.0 * kHour, 0.1);
    metrics.reputation_freeriders.add(3.0 * kHour, -0.1);
    metrics.speed_sharers.add(3.0 * kHour, 1024.0);
    metrics.speed_freeriders.add(3.0 * kHour, 512.0);
    community::PeerOutcome o;
    o.peer = 0;
    o.total_uploaded = gib(2.0);
    o.total_downloaded = gib(1.0);
    o.final_system_reputation = 0.4;
    metrics.outcomes.push_back(o);
    // One directory per test: ctest runs each test in its own process,
    // in parallel, and the destructor removes the directory.
    dir = std::filesystem::temp_directory_path() /
          ("bc_plot_test_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::create_directories(dir);
  }
  ~PlotFixture() override {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  community::Metrics metrics;
  std::filesystem::path dir;
};

TEST_F(PlotFixture, ReputationPlotFiles) {
  const std::string gp =
      write_reputation_plot(metrics, dir.string(), "rep");
  ASSERT_FALSE(gp.empty());
  EXPECT_TRUE(std::filesystem::exists(dir / "rep.dat"));
  EXPECT_TRUE(std::filesystem::exists(dir / "rep.gp"));
  const std::string dat = slurp((dir / "rep.dat").string());
  EXPECT_NE(dat.find("0.100000"), std::string::npos);
  EXPECT_NE(dat.find("-0.100000"), std::string::npos);
  const std::string script = slurp(gp);
  EXPECT_NE(script.find("sharers"), std::string::npos);
  EXPECT_NE(script.find("freeriders"), std::string::npos);
}

TEST_F(PlotFixture, SpeedPlotConvertsToKiB) {
  const std::string gp = write_speed_plot(metrics, dir.string(), "speed");
  ASSERT_FALSE(gp.empty());
  const std::string dat = slurp((dir / "speed.dat").string());
  EXPECT_NE(dat.find("1.000000"), std::string::npos);  // 1024 B/s -> 1 KiB/s
}

TEST_F(PlotFixture, ScatterPlotHasOutcome) {
  const std::string gp = write_scatter_plot(metrics, dir.string(), "sc");
  ASSERT_FALSE(gp.empty());
  const std::string dat = slurp((dir / "sc.dat").string());
  EXPECT_NE(dat.find("1.000000 0.400000 0"), std::string::npos);
}

// v lands in the first bucket with v <= upper edge: -0.95 and 0.0 sit on
// an edge, -0.94 just above one, and 0.99 and 1.0 in the top bucket.
// Buckets empty in both classes are skipped.
TEST_F(PlotFixture, ReputationHistogramBinsOutcomesExactly) {
  metrics.outcomes.clear();
  const std::vector<std::pair<double, bool>> reps = {
      {-0.95, false}, {0.0, false},  {0.42, false}, {0.99, false},
      {1.0, false},   {-0.95, true}, {-0.94, true}, {-0.33, true}};
  for (const auto& [rep, freerider] : reps) {
    community::PeerOutcome o;
    o.freerider = freerider;
    o.final_system_reputation = rep;
    metrics.outcomes.push_back(o);
  }
  ASSERT_FALSE(
      write_reputation_histogram_plot(metrics, dir.string(), "hist").empty());
  EXPECT_EQ(slurp((dir / "hist.dat").string()),
            "# bucket_upper_edge sharers_count freeriders_count\n"
            "-0.950000 1 1\n"
            "-0.900000 0 1\n"
            "-0.300000 0 1\n"
            "0.000000 1 0\n"
            "0.450000 1 0\n"
            "1.000000 2 0\n");
}

TEST_F(PlotFixture, CdfPlot) {
  const std::vector<CdfPoint> cdf{{-0.5, 0.25}, {0.0, 0.75}, {0.5, 1.0}};
  const std::string gp = write_cdf_plot(cdf, dir.string(), "cdf", "rep");
  ASSERT_FALSE(gp.empty());
  const std::string dat = slurp((dir / "cdf.dat").string());
  EXPECT_NE(dat.find("0.750000"), std::string::npos);
}

TEST_F(PlotFixture, UnwritableDirectoryReturnsEmpty) {
  EXPECT_EQ(write_reputation_plot(metrics, "/nonexistent/dir", "x"), "");
}

}  // namespace
}  // namespace bc::analysis
