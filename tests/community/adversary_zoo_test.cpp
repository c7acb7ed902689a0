// Simulator-level adversary-zoo suite (ctest label: adversary). Each test
// runs a small community with one catalog attack archetype, under one or
// both aggregation backends, and asserts the end-to-end properties the
// ablation bench measures at scale: runs complete, scores stay bounded,
// and the maxflow metric keeps the class gap positive. The CI
// adversary-smoke job runs exactly this label under asan-ubsan.
#include <gtest/gtest.h>

#include <string>

#include "bartercast/backend.hpp"
#include "community/simulator.hpp"
#include "trace/generator.hpp"

namespace bc::community {
namespace {

trace::Trace zoo_trace(std::uint64_t seed, Seconds duration) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_peers = 20;
  cfg.num_swarms = 2;
  cfg.duration = duration;
  cfg.file_size_min = mib(15);
  cfg.file_size_max = mib(40);
  cfg.requests_per_peer_min = 1;
  cfg.requests_per_peer_max = 2;
  return trace::generate(cfg);
}

Metrics run_zoo(const std::string& population,
                bartercast::BackendKind backend,
                Seconds duration = 12.0 * kHour,
                std::uint64_t seed = 11) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.policy = bartercast::ReputationPolicy::ban(-0.5);
  cfg.population = population;
  cfg.node.backend = backend;
  CommunitySimulator sim(zoo_trace(seed, duration), cfg);
  sim.run();
  return sim.metrics();
}

double class_mean(const Metrics& m, bool freeriders) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& o : m.outcomes) {
    if (o.freerider != freeriders) continue;
    sum += o.final_system_reputation;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::size_t count_behavior(const Metrics& m, const std::string& name) {
  std::size_t n = 0;
  for (const auto& o : m.outcomes) {
    if (o.behavior == name) ++n;
  }
  return n;
}

TEST(AdversaryZoo, SybilRegionIsContainedByMaxflow) {
  // Containment needs enough simulated time for the classes to separate
  // (the same reason the paper reports week-long communities).
  const Metrics m = run_zoo("sharer:0.5,lazy:0.25,sybil-region:0.25",
                            bartercast::BackendKind::kMaxflow, 2.0 * kDay);
  EXPECT_EQ(count_behavior(m, "sybil-region"), 5u);
  // Bounded mutual promotion: the cohort's fabricated intra-region edges
  // must not lift the freerider class above the sharers.
  EXPECT_GT(class_mean(m, false), class_mean(m, true));
}

TEST(AdversaryZoo, SlandererIsContainedByMaxflow) {
  const Metrics m = run_zoo("sharer:0.5,lazy:0.25,slanderer:0.25",
                            bartercast::BackendKind::kMaxflow, 2.0 * kDay);
  EXPECT_EQ(count_behavior(m, "slanderer"), 5u);
  EXPECT_GT(class_mean(m, false), class_mean(m, true));
}

TEST(AdversaryZoo, StrategicUploaderSeedsAFraction) {
  const Metrics m = run_zoo("sharer:0.5,strategic-uploader:0.5",
                            bartercast::BackendKind::kMaxflow);
  // The strategic uploader is freerider-class (it aims to do the minimum)
  // but, unlike a lazy freerider, it does seed a fraction of the sharer
  // duration, so the cohort uploads a nonzero total.
  Bytes strategic_up = 0;
  for (const auto& o : m.outcomes) {
    if (o.behavior != "strategic-uploader") continue;
    EXPECT_TRUE(o.freerider);
    strategic_up += o.total_uploaded;
  }
  EXPECT_GT(strategic_up, 0);
}

TEST(AdversaryZoo, MobileChurnerIsSharerClass) {
  const Metrics m = run_zoo("sharer:0.5,lazy:0.25,mobile-churner:0.25",
                            bartercast::BackendKind::kMaxflow);
  for (const auto& o : m.outcomes) {
    if (o.behavior == "mobile-churner") {
      EXPECT_FALSE(o.freerider);
    }
  }
  EXPECT_EQ(count_behavior(m, "mobile-churner"), 5u);
}

TEST(AdversaryZoo, EveryAdversaryRunsUnderBothBackends) {
  const std::string adversaries[] = {"sybil-region", "slanderer",
                                     "strategic-uploader", "mobile-churner"};
  const bartercast::BackendKind backends[] = {
      bartercast::BackendKind::kMaxflow,
      bartercast::BackendKind::kDifferentialGossip};
  for (const auto& adversary : adversaries) {
    for (const auto backend : backends) {
      const Metrics m =
          run_zoo("sharer:0.5,lazy:0.25," + adversary + ":0.25", backend);
      ASSERT_EQ(m.outcomes.size(), 20u)
          << adversary << " x " << bartercast::backend_name(backend);
      for (const auto& o : m.outcomes) {
        EXPECT_GE(o.final_system_reputation, -1.0);
        EXPECT_LE(o.final_system_reputation, 1.0);
      }
    }
  }
}

TEST(AdversaryZoo, GossipBackendRunsAreDeterministic) {
  const std::string population = "sharer:0.5,lazy:0.25,slanderer:0.25";
  const Metrics a =
      run_zoo(population, bartercast::BackendKind::kDifferentialGossip);
  const Metrics b =
      run_zoo(population, bartercast::BackendKind::kDifferentialGossip);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].behavior, b.outcomes[i].behavior);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.outcomes[i].final_system_reputation,
              b.outcomes[i].final_system_reputation);
    EXPECT_EQ(a.outcomes[i].total_uploaded, b.outcomes[i].total_uploaded);
  }
}

TEST(AdversaryZoo, BackendChoiceChangesScoresNotTransfers) {
  const std::string population = "sharer:0.5,lazy:0.25,sybil-region:0.25";
  const Metrics mf = run_zoo(population, bartercast::BackendKind::kMaxflow);
  const Metrics dg =
      run_zoo(population, bartercast::BackendKind::kDifferentialGossip);
  ASSERT_EQ(mf.outcomes.size(), dg.outcomes.size());
  // Same seed, same behaviors: the population assignment is identical.
  for (std::size_t i = 0; i < mf.outcomes.size(); ++i) {
    EXPECT_EQ(mf.outcomes[i].behavior, dg.outcomes[i].behavior);
  }
}

}  // namespace
}  // namespace bc::community
