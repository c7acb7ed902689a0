#include "bittorrent/bandwidth.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

namespace bc::bt {
namespace {

AccessProfile profile(Rate up, Rate down) {
  AccessProfile p;
  p.uplink = up;
  p.downlink = down;
  return p;
}

TEST(Bandwidth, EmptyLinks) {
  const auto rates = allocate_rates({}, AccessProfile{});
  EXPECT_TRUE(rates.empty());
}

TEST(Bandwidth, SingleLinkGetsFullUplink) {
  const std::vector<LinkRequest> links{{1, 2}};
  const auto rates = allocate_rates(links, profile(100.0, 1000.0));
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(Bandwidth, UplinkSplitsEquallyAcrossLinks) {
  const std::vector<LinkRequest> links{{1, 2}, {1, 3}, {1, 4}, {1, 5}};
  const auto rates = allocate_rates(links, profile(400.0, 10000.0));
  for (const Rate r : rates) EXPECT_DOUBLE_EQ(r, 100.0);
}

TEST(Bandwidth, SplitIsPerUploaderAcrossSwarmsImplicitly) {
  // Links from two different uploaders do not affect each other.
  const std::vector<LinkRequest> links{{1, 3}, {2, 3}, {1, 4}};
  const auto rates = allocate_rates(links, profile(100.0, 10000.0));
  EXPECT_DOUBLE_EQ(rates[0], 50.0);   // 1 has two links
  EXPECT_DOUBLE_EQ(rates[1], 100.0);  // 2 has one
  EXPECT_DOUBLE_EQ(rates[2], 50.0);
}

TEST(Bandwidth, DownlinkCapScalesProportionally) {
  // Receiver 9 gets 100 from each of three uploaders but can take 150.
  const std::vector<LinkRequest> links{{1, 9}, {2, 9}, {3, 9}};
  const auto rates = allocate_rates(links, profile(100.0, 150.0));
  double sum = 0.0;
  for (const Rate r : rates) {
    EXPECT_DOUBLE_EQ(r, 50.0);
    sum += r;
  }
  EXPECT_DOUBLE_EQ(sum, 150.0);
}

TEST(Bandwidth, DownlinkCapOnlyAffectsTheOversubscribedReceiver) {
  // Receiver 9 takes 150 from two full uplinks of 100; receiver 8 takes
  // one uplink, inside its cap.
  const std::vector<LinkRequest> links{{1, 9}, {2, 9}, {3, 8}};
  const auto rates = allocate_rates(links, profile(100.0, 150.0));
  EXPECT_DOUBLE_EQ(rates[0], 75.0);
  EXPECT_DOUBLE_EQ(rates[1], 75.0);
  EXPECT_DOUBLE_EQ(rates[2], 100.0);  // receiver 8 unaffected
}

TEST(Bandwidth, ConservationUplink) {
  // No uploader exceeds its uplink.
  const std::vector<LinkRequest> links{{1, 2}, {1, 3}, {1, 4},
                                       {2, 3}, {2, 4}, {3, 4}};
  const auto rates = allocate_rates(links, profile(120.0, 200.0));
  std::unordered_map<PeerId, Rate> out;
  for (std::size_t i = 0; i < links.size(); ++i) {
    out[links[i].uploader] += rates[i];
  }
  for (const auto& [p, sum] : out) {
    EXPECT_LE(sum, 120.0 + 1e-9) << "uploader " << p;
  }
}

TEST(Bandwidth, ConservationDownlink) {
  const std::vector<LinkRequest> links{{1, 9}, {2, 9}, {3, 9}, {4, 9}};
  const auto rates = allocate_rates(links, profile(100.0, 250.0));
  Rate sum = 0.0;
  for (const Rate r : rates) sum += r;
  EXPECT_LE(sum, 250.0 + 1e-9);
}

TEST(Bandwidth, ZeroUplinkYieldsZeroRates) {
  const std::vector<LinkRequest> links{{1, 2}};
  const auto rates = allocate_rates(links, profile(0.0, 100.0));
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
}

}  // namespace
}  // namespace bc::bt
