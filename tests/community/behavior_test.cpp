#include "community/behavior.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "community/scenario.hpp"

namespace bc::community {
namespace {

std::size_t count(const std::vector<const PeerBehavior*>& v,
                  std::string_view name) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](const PeerBehavior* b) {
        return b->name() == name;
      }));
}

TEST(BehaviorRegistry, BuiltinsAndPredicates) {
  EXPECT_FALSE(behavior_named("sharer").freerider());
  EXPECT_TRUE(behavior_named("lazy-freerider").freerider());
  EXPECT_TRUE(behavior_named("ignoring-freerider").freerider());
  EXPECT_TRUE(behavior_named("lying-freerider").freerider());

  EXPECT_TRUE(behavior_named("sharer").sends_messages());
  EXPECT_TRUE(behavior_named("lazy-freerider").sends_messages());
  EXPECT_FALSE(behavior_named("ignoring-freerider").sends_messages());
  EXPECT_TRUE(behavior_named("lying-freerider").sends_messages());

  // The extended zoo is in the catalog too.
  EXPECT_NE(find_behavior("sybil-region"), nullptr);
  EXPECT_NE(find_behavior("slanderer"), nullptr);
  EXPECT_NE(find_behavior("strategic-uploader"), nullptr);
  EXPECT_NE(find_behavior("mobile-churner"), nullptr);
  EXPECT_FALSE(behavior_named("mobile-churner").freerider());
}

TEST(BehaviorRegistry, AliasesAndNormalization) {
  EXPECT_EQ(find_behavior("lazy"), find_behavior("lazy-freerider"));
  EXPECT_EQ(find_behavior("liar"), find_behavior("lying-freerider"));
  EXPECT_EQ(find_behavior("bittyrant"), find_behavior("strategic-uploader"));
  // '_' and '-' are interchangeable in lookups.
  EXPECT_EQ(find_behavior("sybil_region"), find_behavior("sybil-region"));
  EXPECT_EQ(find_behavior("lazy_freerider"), find_behavior("lazy"));
  EXPECT_EQ(find_behavior("no-such-behavior"), nullptr);
  // An empty name matches no behavior (single-alias rows pad with "").
  EXPECT_EQ(find_behavior(""), nullptr);
}

TEST(BehaviorRegistry, NamesAreSortedCanonical) {
  const auto names = behavior_names();
  EXPECT_EQ(names.size(), 8u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // Aliases are not listed.
  EXPECT_EQ(std::find(names.begin(), names.end(), "lazy"), names.end());
  for (const std::string& name : names) {
    ASSERT_NE(find_behavior(name), nullptr) << name;
    EXPECT_EQ(find_behavior(name)->name(), name);
  }
}

TEST(Behavior, SeedDurationPolicy) {
  ScenarioConfig cfg;
  EXPECT_DOUBLE_EQ(behavior_named("sharer").seed_duration(cfg),
                   cfg.seed_duration);
  EXPECT_DOUBLE_EQ(behavior_named("lazy-freerider").seed_duration(cfg), 0.0);
  // A strategic uploader invests a tenth of the sharers' seeding period.
  EXPECT_DOUBLE_EQ(behavior_named("strategic-uploader").seed_duration(cfg),
                   0.1 * cfg.seed_duration);
}

TEST(PopulationSpec, ParsesNameFractionList) {
  std::string error;
  const auto spec =
      PopulationSpec::parse("sharer:0.5, lazy:0.3,sybil_region:0.1", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_EQ(spec->entries.size(), 3u);
  EXPECT_EQ(spec->entries[0].name, "sharer");
  EXPECT_DOUBLE_EQ(spec->entries[0].fraction, 0.5);
  EXPECT_EQ(spec->entries[2].name, "sybil_region");
  EXPECT_TRUE(spec->validate().empty()) << spec->validate();
}

TEST(PopulationSpec, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(PopulationSpec::parse("sharer", &error).has_value());
  EXPECT_NE(error.find("name:fraction"), std::string::npos);
  EXPECT_FALSE(PopulationSpec::parse("sharer:", &error).has_value());
  EXPECT_FALSE(PopulationSpec::parse(":0.5", &error).has_value());
  EXPECT_FALSE(PopulationSpec::parse("a:0.1,,b:0.2", &error).has_value());
  EXPECT_FALSE(PopulationSpec::parse("sharer:abc", &error).has_value());
  EXPECT_NE(error.find("not a number"), std::string::npos);
}

TEST(PopulationSpec, ValidateCatchesSemanticErrors) {
  auto spec = PopulationSpec::parse("nonexistent:0.5");
  ASSERT_TRUE(spec.has_value());
  EXPECT_NE(spec->validate().find("unknown behavior"), std::string::npos);

  spec = PopulationSpec::parse("sharer:1.5");
  ASSERT_TRUE(spec.has_value());
  EXPECT_NE(spec->validate().find("within [0, 1]"), std::string::npos);

  spec = PopulationSpec::parse("sharer:0.8,lazy:0.8");
  ASSERT_TRUE(spec.has_value());
  EXPECT_NE(spec->validate().find("sum"), std::string::npos);
}

TEST(PopulationSpec, SlicesRoundAndClamp) {
  const auto spec = PopulationSpec::parse("lazy:0.5,sybil:0.25");
  ASSERT_TRUE(spec.has_value());
  const auto slices = spec->slices(30);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].count, 15u);
  EXPECT_EQ(slices[1].count, 8u);  // lround(7.5) rounds half away from zero
}

TEST(AssignPopulation, FillsRemainderWithFallback) {
  Rng rng(11);
  const std::vector<PopulationSlice> slices = {
      {&behavior_named("lazy-freerider"), 3},
      {&behavior_named("sybil-region"), 2}};
  const auto v = assign_population(10, slices, behavior_named("sharer"), rng);
  EXPECT_EQ(count(v, "lazy-freerider"), 3u);
  EXPECT_EQ(count(v, "sybil-region"), 2u);
  EXPECT_EQ(count(v, "sharer"), 5u);
}

TEST(AssignBehaviors, ExactCounts) {
  Rng rng(1);
  const auto v = assign_behaviors(100, 0.5, 0.1, 0.2, rng);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_EQ(count(v, "sharer"), 50u);
  EXPECT_EQ(count(v, "ignoring-freerider"), 10u);
  EXPECT_EQ(count(v, "lying-freerider"), 20u);
  EXPECT_EQ(count(v, "lazy-freerider"), 20u);
}

TEST(AssignBehaviors, AllSharers) {
  Rng rng(2);
  const auto v = assign_behaviors(10, 0.0, 0.0, 0.0, rng);
  EXPECT_EQ(count(v, "sharer"), 10u);
}

TEST(AssignBehaviors, AllFreeriders) {
  Rng rng(3);
  const auto v = assign_behaviors(10, 1.0, 0.0, 0.0, rng);
  EXPECT_EQ(count(v, "lazy-freerider"), 10u);
}

TEST(AssignBehaviors, DeterministicInRng) {
  Rng a(9), b(9);
  EXPECT_EQ(assign_behaviors(50, 0.5, 0.1, 0.1, a),
            assign_behaviors(50, 0.5, 0.1, 0.1, b));
}

TEST(AssignBehaviors, AssignmentIsShuffled) {
  Rng rng(4);
  const auto v = assign_behaviors(100, 0.5, 0.0, 0.0, rng);
  // The first 50 peers must not all be freeriders (random placement).
  std::size_t first_half_freeriders = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    if (v[i]->freerider()) ++first_half_freeriders;
  }
  EXPECT_GT(first_half_freeriders, 10u);
  EXPECT_LT(first_half_freeriders, 40u);
}

TEST(AssignBehaviorsDeathTest, DisobeyersExceedFreeriders) {
  Rng rng(5);
  EXPECT_DEATH(assign_behaviors(100, 0.3, 0.2, 0.2, rng), "freerider");
}

}  // namespace
}  // namespace bc::community
