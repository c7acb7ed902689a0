#include "analysis/deployment_observer.hpp"

#include <gtest/gtest.h>

#include "trace/deployment.hpp"

namespace bc::analysis {
namespace {

trace::DeploymentPopulation small_population(std::uint64_t seed) {
  trace::DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.num_peers = 400;
  return trace::generate_deployment(cfg);
}

ObserverConfig small_observer(std::uint64_t seed) {
  ObserverConfig cfg;
  cfg.seed = seed;
  cfg.direct_partners = 60;
  return cfg;
}

TEST(Observer, ProducesOneReputationPerPeer) {
  const auto pop = small_population(1);
  const auto result = run_observer(pop, small_observer(1));
  EXPECT_EQ(result.reputations.size(), pop.num_peers);
  EXPECT_EQ(result.net_contribution.size(), pop.num_peers);
  EXPECT_GT(result.messages_logged, 0u);
  EXPECT_GT(result.records_applied, 0u);
}

TEST(Observer, ReputationsBounded) {
  const auto result = run_observer(small_population(2), small_observer(2));
  for (double r : result.reputations) {
    EXPECT_GE(r, -1.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(Observer, IdlePeersHaveZeroReputation) {
  const auto pop = small_population(3);
  const auto result = run_observer(pop, small_observer(3));
  for (PeerId i = 0; i < pop.num_peers; ++i) {
    if (pop.total_up[i] == 0 && pop.total_down[i] == 0) {
      EXPECT_EQ(result.reputations[i], 0.0) << "idle peer " << i;
    }
  }
}

TEST(Observer, FractionsPartitionUnity) {
  const auto result = run_observer(small_population(4), small_observer(4));
  const double total = result.fraction_negative() + result.fraction_zero() +
                       result.fraction_positive();
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Observer, MoreNegativeThanPositive) {
  // The paper's deployment shape: downloaders dominate uploaders.
  const auto result = run_observer(small_population(5), small_observer(5));
  EXPECT_GT(result.fraction_negative(), result.fraction_positive());
}

TEST(Observer, CdfIsMonotone) {
  const auto result = run_observer(small_population(6), small_observer(6));
  const auto cdf = result.reputation_cdf();
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GT(cdf[i].value, cdf[i - 1].value);
    EXPECT_GE(cdf[i].fraction, cdf[i - 1].fraction);
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(Observer, Deterministic) {
  const auto a = run_observer(small_population(7), small_observer(7));
  const auto b = run_observer(small_population(7), small_observer(7));
  EXPECT_EQ(a.reputations, b.reputations);
}

TEST(Observer, NetContributionSignCorrelatesWithReputation) {
  const auto pop = small_population(8);
  const auto result = run_observer(pop, small_observer(8));
  // Among peers with nonzero reputation, negative contributors should get
  // negative reputations much more often than positive ones.
  std::size_t consistent = 0, inconsistent = 0;
  for (PeerId i = 0; i < pop.num_peers; ++i) {
    const double r = result.reputations[i];
    const Bytes net = result.net_contribution[i];
    const bool r_positive = r > 0.0;
    if (!(r_positive || r < 0.0) || net == 0) continue;
    if (r_positive == (net > 0)) {
      ++consistent;
    } else {
      ++inconsistent;
    }
  }
  EXPECT_GT(consistent, inconsistent);
}

}  // namespace
}  // namespace bc::analysis
