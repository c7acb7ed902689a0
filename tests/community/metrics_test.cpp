#include "community/metrics.hpp"

#include <gtest/gtest.h>

namespace bc::community {
namespace {

TEST(Metrics, BinCountCoversDuration) {
  Metrics m(100.0, 30.0);
  EXPECT_EQ(m.speed_sharers.num_bins(), 4u);  // ceil(100/30)
  EXPECT_EQ(m.duration, 100.0);
}

TEST(PeerOutcome, NetContribution) {
  PeerOutcome o;
  o.total_uploaded = 700;
  o.total_downloaded = 300;
  EXPECT_EQ(o.net_contribution(), 400);
  o.total_uploaded = 100;
  EXPECT_EQ(o.net_contribution(), -200);
}

}  // namespace
}  // namespace bc::community
