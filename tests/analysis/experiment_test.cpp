#include "analysis/experiment.hpp"

#include <gtest/gtest.h>

namespace bc::analysis {
namespace {

community::Metrics fake_metrics() {
  community::Metrics m(10.0 * kDay, kDay);
  // Two sharers with positive contribution/reputation, two freeriders
  // negative — a perfectly consistent world.
  for (int i = 0; i < 4; ++i) {
    community::PeerOutcome o;
    o.peer = static_cast<PeerId>(i);
    o.behavior = i < 2 ? "sharer" : "lazy-freerider";
    o.freerider = i >= 2;
    o.total_uploaded = i < 2 ? gib(2.0 + i) : 0;
    o.total_downloaded = gib(1.0);
    o.final_system_reputation = i < 2 ? 0.3 + 0.1 * i : -0.4 - 0.1 * i;
    m.outcomes.push_back(o);
  }
  m.speed_sharers.add(0.5 * kDay, 1000.0);
  m.speed_sharers.add(9.5 * kDay, 2000.0);
  m.speed_freeriders.add(9.5 * kDay, 500.0);
  m.reputation_sharers.add(9.5 * kDay, 0.35);
  m.reputation_freeriders.add(9.5 * kDay, -0.5);
  return m;
}

TEST(ContributionPoints, MapsOutcomes) {
  const auto pts = contribution_points(fake_metrics());
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_FALSE(pts[0].freerider);
  EXPECT_TRUE(pts[3].freerider);
  EXPECT_NEAR(pts[0].net_contribution_gib, 1.0, 1e-9);
  EXPECT_NEAR(pts[2].net_contribution_gib, -1.0, 1e-9);
  EXPECT_DOUBLE_EQ(pts[1].system_reputation, 0.4);
}

TEST(ContributionCorrelation, ConsistentWorldIsStronglyPositive) {
  EXPECT_GT(contribution_correlation(fake_metrics()), 0.8);
  EXPECT_GT(contribution_rank_correlation(fake_metrics()), 0.7);
}

TEST(ReputationTable, OneRowPerNonEmptyBin) {
  const auto t = reputation_table(fake_metrics(), kDay);
  EXPECT_EQ(t.num_rows(), 1u);  // only the day-9 bin has data
  EXPECT_EQ(t.num_cols(), 3u);
}

TEST(SpeedTable, ConvertsToKiB) {
  const auto t = speed_table(fake_metrics(), kDay);
  EXPECT_EQ(t.num_rows(), 2u);  // day-0 bin (sharers only) and day-9 bin
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("2.0"), std::string::npos);  // 2000 B/s ~ 2.0 KiB/s
}

}  // namespace
}  // namespace bc::analysis
