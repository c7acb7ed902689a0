// Integration tests of the adversary behaviours (§5.4) at small scale:
// what ignoring and lying actually do to the reputation fabric.
#include <gtest/gtest.h>

#include "community/simulator.hpp"
#include "trace/generator.hpp"

namespace bc::community {
namespace {

trace::Trace adversary_trace(std::uint64_t seed) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_peers = 24;
  cfg.num_swarms = 3;
  cfg.duration = kDay;
  cfg.file_size_min = mib(30);
  cfg.file_size_max = mib(120);
  cfg.requests_per_peer_min = 2;
  cfg.requests_per_peer_max = 3;
  return trace::generate(cfg);
}

ScenarioConfig adversary_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.reputation_probe_interval = 2.0 * kHour;
  cfg.series_bin = 2.0 * kHour;
  return cfg;
}

/// How many trace evaluators hold a nonzero opinion of `subject`.
std::size_t evaluators_knowing(CommunitySimulator& sim, PeerId subject) {
  std::size_t known = 0;
  for (PeerId j = 0; j < sim.num_trace_peers(); ++j) {
    if (j == subject) continue;
    // node() is const; go through system_reputation-style access instead.
    if (sim.node(j).view().graph().has_node(subject)) ++known;
  }
  return known;
}

TEST(Adversaries, IgnorersAreLessVisibleThanTalkers) {
  trace::Trace tr = adversary_trace(1);
  ScenarioConfig cfg = adversary_scenario(1);
  cfg.freerider_fraction = 0.5;
  cfg.ignorer_fraction = 0.25;
  CommunitySimulator sim(std::move(tr), cfg);
  sim.run();

  // Average visibility (graph presence at evaluators) per class.
  double ignorer_vis = 0.0, talker_vis = 0.0;
  std::size_t ignorers = 0, talkers = 0;
  for (PeerId p = 0; p < sim.num_trace_peers(); ++p) {
    const double vis = static_cast<double>(evaluators_knowing(sim, p));
    if (sim.behavior(p).name() == "ignoring-freerider") {
      ignorer_vis += vis;
      ++ignorers;
    } else if (sim.behavior(p).name() == "lazy-freerider") {
      talker_vis += vis;
      ++talkers;
    }
  }
  ASSERT_GT(ignorers, 0u);
  ASSERT_GT(talkers, 0u);
  // Ignorers still appear in others' views (their partners report the
  // transfers), but less often than protocol-following freeriders, whose
  // own messages advertise their edges too.
  EXPECT_LE(ignorer_vis / static_cast<double>(ignorers),
            talker_vis / static_cast<double>(talkers));
}

TEST(Adversaries, LiarsBoostTheirOwnReputation) {
  // Same world twice: in one, a fraction of freeriders lies. Lying
  // freeriders must end with a higher average system reputation than the
  // honest lazy freeriders in the same run (the §5.4 self-boost).
  trace::Trace tr = adversary_trace(2);
  ScenarioConfig cfg = adversary_scenario(2);
  cfg.freerider_fraction = 0.5;
  cfg.liar_fraction = 0.25;
  CommunitySimulator sim(std::move(tr), cfg);
  sim.run();

  double liar_rep = 0.0, lazy_rep = 0.0;
  std::size_t liars = 0, lazies = 0;
  for (const auto& o : sim.metrics().outcomes) {
    if (o.behavior == "lying-freerider") {
      liar_rep += o.final_system_reputation;
      ++liars;
    } else if (o.behavior == "lazy-freerider") {
      lazy_rep += o.final_system_reputation;
      ++lazies;
    }
  }
  ASSERT_GT(liars, 0u);
  ASSERT_GT(lazies, 0u);
  EXPECT_GT(liar_rep / static_cast<double>(liars),
            lazy_rep / static_cast<double>(lazies));
}

TEST(Adversaries, LiarBoostIsBoundedByRealService) {
  // Even a population where every freerider lies cannot push a liar's
  // reputation past what saturated honest contribution would produce.
  trace::Trace tr = adversary_trace(3);
  ScenarioConfig cfg = adversary_scenario(3);
  cfg.freerider_fraction = 0.5;
  cfg.liar_fraction = 0.5;
  CommunitySimulator sim(std::move(tr), cfg);
  sim.run();
  for (const auto& o : sim.metrics().outcomes) {
    EXPECT_GE(o.final_system_reputation, -1.0);
    EXPECT_LE(o.final_system_reputation, 1.0);
  }
}

TEST(Adversaries, HonestWorldHasNoDroppedRecords) {
  // With everyone following the protocol, the only records dropped are
  // claims about the receiver's own edges (which honest senders do emit:
  // their records about *their* transfers with the receiver).
  trace::Trace tr = adversary_trace(4);
  ScenarioConfig cfg = adversary_scenario(4);
  CommunitySimulator sim(std::move(tr), cfg);
  sim.run();
  const auto& msg = sim.metrics().messages;
  EXPECT_GT(msg.records_applied, 0u);
  // Dropped records exist (own-edge claims) but are a minority.
  EXPECT_LT(msg.records_dropped(), msg.records_applied);
}

}  // namespace
}  // namespace bc::community
