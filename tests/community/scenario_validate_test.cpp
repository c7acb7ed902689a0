// ScenarioConfig::validate(): the fail-fast contract for population
// fractions, the population spec and the seeding period, including the
// simulator's rejection path (construction aborts with the validation
// message).
#include <gtest/gtest.h>

#include <limits>

#include "community/simulator.hpp"
#include "trace/generator.hpp"

namespace bc::community {
namespace {

TEST(ScenarioValidate, DefaultsAreValid) {
  EXPECT_TRUE(ScenarioConfig{}.validate().empty());
}

TEST(ScenarioValidate, FractionRangeChecked) {
  ScenarioConfig cfg;
  cfg.freerider_fraction = 1.5;
  EXPECT_NE(cfg.validate().find("within [0, 1]"), std::string::npos);
  cfg.freerider_fraction = -0.1;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(ScenarioValidate, DisobeyersMustFitFreeriderPool) {
  // The constraint that used to be only a doc comment.
  ScenarioConfig cfg;
  cfg.freerider_fraction = 0.3;
  cfg.ignorer_fraction = 0.2;
  cfg.liar_fraction = 0.2;
  const std::string error = cfg.validate();
  EXPECT_NE(error.find("exceeds freerider_fraction"), std::string::npos);
  EXPECT_NE(error.find("drawn from the freerider population"),
            std::string::npos);
}

TEST(ScenarioValidate, BoundaryDisobeyersAccepted) {
  ScenarioConfig cfg;
  cfg.freerider_fraction = 0.5;
  cfg.ignorer_fraction = 0.25;
  cfg.liar_fraction = 0.25;
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
}

TEST(ScenarioValidate, PopulationSpecChecked) {
  ScenarioConfig cfg;
  cfg.population = "sharer:0.5,unknown-thing:0.5";
  EXPECT_NE(cfg.validate().find("unknown behavior"), std::string::npos);
  cfg.population = "sharer:0.5:0.5";
  EXPECT_FALSE(cfg.validate().empty());
  cfg.population = "sharer:0.4,sybil-region:0.2";
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
}

TEST(ScenarioValidate, SeedDurationMustBeANonNegativeNumber) {
  // A NaN deadline never expires (`now >= NaN` is false), so a sharer
  // would seed forever.
  ScenarioConfig cfg;
  cfg.seed_duration = 0.0;
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
  cfg.seed_duration = -1.0;
  EXPECT_NE(cfg.validate().find("seed_duration"), std::string::npos);
  cfg.seed_duration = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(cfg.validate().find("seed_duration"), std::string::npos);
}

TEST(ScenarioValidate, OnlyOneThreadAccepted) {
  // A simulation runs on one thread; the field survives only for the
  // benchmark, which sets it to 1.
  ScenarioConfig cfg;
  cfg.threads = 1;
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
  cfg.threads = 2;
  const std::string error = cfg.validate();
  EXPECT_NE(error.find("threads must be 1"), std::string::npos) << error;
  EXPECT_NE(error.find("DESIGN.md"), std::string::npos) << error;
}

TEST(ScenarioValidateDeathTest, SimulatorRejectsInvalidConfig) {
  trace::GeneratorConfig tcfg;
  tcfg.seed = 1;
  tcfg.num_peers = 8;
  tcfg.num_swarms = 1;
  tcfg.duration = kHour;
  trace::Trace tr = trace::generate(tcfg);

  ScenarioConfig cfg;
  cfg.freerider_fraction = 0.3;
  cfg.ignorer_fraction = 0.2;
  cfg.liar_fraction = 0.2;
  EXPECT_DEATH(CommunitySimulator(std::move(tr), cfg),
               "freerider population");
}

TEST(ScenarioValidateDeathTest, SimulatorRejectsBadPopulationSpec) {
  trace::GeneratorConfig tcfg;
  tcfg.seed = 2;
  tcfg.num_peers = 8;
  tcfg.num_swarms = 1;
  tcfg.duration = kHour;
  trace::Trace tr = trace::generate(tcfg);

  ScenarioConfig cfg;
  cfg.population = "sharer:0.5,bogus:0.5";
  EXPECT_DEATH(CommunitySimulator(std::move(tr), cfg), "unknown behavior");
}

}  // namespace
}  // namespace bc::community
