#include "gossip/pss.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace bc::gossip {
namespace {

const PeerSamplingService::CanTalk kAlwaysTalk = [](PeerId, PeerId) {
  return true;
};
const PeerSamplingService::CanTalk kNeverTalk = [](PeerId, PeerId) {
  return false;
};

PeerSamplingService make_pss(std::size_t num_peers = 8) {
  return PeerSamplingService(/*seed=*/11, num_peers);
}

TEST(Pss, RegisterAndBootstrap) {
  // Every peer of the population starts with an empty view.
  auto pss = make_pss(5);
  for (PeerId p = 0; p < 5; ++p) EXPECT_EQ(pss.view_size(p), 0u);
  const std::vector<PeerId> seeds{2, 3, 4};
  pss.bootstrap(1, seeds);
  EXPECT_EQ(pss.view_size(1), 3u);
  EXPECT_EQ(pss.view(1), seeds);
}

TEST(Pss, ViewNeverContainsSelf) {
  auto pss = make_pss();
  const std::vector<PeerId> seeds{1, 1, 2};
  pss.bootstrap(1, seeds);
  const auto view = pss.view(1);
  EXPECT_EQ(std::count(view.begin(), view.end(), 1u), 0);
}

TEST(Pss, ViewDeduplicates) {
  auto pss = make_pss();
  const std::vector<PeerId> seeds{2, 2, 2};
  pss.bootstrap(1, seeds);
  EXPECT_EQ(pss.view_size(1), 1u);
}

TEST(Pss, ViewBounded) {
  constexpr PeerId n = 2 * PeerSamplingService::kViewSize + 1;
  auto pss = make_pss(n);
  std::vector<PeerId> seeds;
  for (PeerId p = 1; p < n; ++p) seeds.push_back(p);
  pss.bootstrap(0, seeds);
  EXPECT_EQ(pss.view_size(0), PeerSamplingService::kViewSize);
}

TEST(Pss, ExchangeReturnsPartnerAndSpreadsEntries) {
  auto pss = make_pss(6);
  const std::vector<PeerId> a_seeds{1};
  const std::vector<PeerId> b_seeds{2, 3, 4, 5};
  pss.bootstrap(0, a_seeds);
  pss.bootstrap(1, b_seeds);
  const PeerId partner = pss.exchange(0, kAlwaysTalk);
  EXPECT_EQ(partner, 1u);
  // 0 must have learned something from 1's view.
  EXPECT_GT(pss.view_size(0), 1u);
  // 1 must now know 0.
  const auto v1 = pss.view(1);
  EXPECT_NE(std::find(v1.begin(), v1.end(), 0u), v1.end());
}

TEST(Pss, ExchangeWithEmptyViewFails) {
  auto pss = make_pss();
  EXPECT_EQ(pss.exchange(0, kAlwaysTalk), kInvalidPeer);
}

TEST(Pss, ExchangeRespectsCanTalk) {
  auto pss = make_pss();
  const std::vector<PeerId> seeds{1};
  pss.bootstrap(0, seeds);
  EXPECT_EQ(pss.exchange(0, kNeverTalk), kInvalidPeer);
  EXPECT_EQ(pss.exchange(0, kAlwaysTalk), 1u);
}

TEST(Pss, EpidemicSpreadsKnowledge) {
  // A line bootstrap (each peer knows only its successor) must become a
  // well-mixed set of views after enough random exchanges.
  const PeerId n = 40;
  auto pss = make_pss(n);
  for (PeerId p = 0; p < n; ++p) {
    const std::vector<PeerId> seed{static_cast<PeerId>((p + 1) % n)};
    pss.bootstrap(p, seed);
  }
  for (int round = 0; round < 30; ++round) {
    for (PeerId p = 0; p < n; ++p) (void)pss.exchange(p, kAlwaysTalk);
  }
  double avg = 0.0;
  for (PeerId p = 0; p < n; ++p) {
    avg += static_cast<double>(pss.view_size(p));
  }
  avg /= n;
  // Views filled up by the epidemic.
  EXPECT_GT(avg, 0.7 * static_cast<double>(PeerSamplingService::kViewSize));
}

TEST(PssDeathTest, PeerOutsideThePopulationRejected) {
  auto pss = make_pss(4);
  const std::vector<PeerId> seeds{4};
  EXPECT_DEATH(pss.bootstrap(0, seeds), "outside the population");
  EXPECT_DEATH(pss.bootstrap(4, std::vector<PeerId>{1}),
               "outside the population");
}

}  // namespace
}  // namespace bc::gossip
