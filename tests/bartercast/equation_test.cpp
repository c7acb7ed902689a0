// Numerical spot checks of Equation 1 against hand-computed values:
//   R_i(j) = arctan((maxflow(j,i) - maxflow(i,j)) / unit) / (pi/2).
#include <gtest/gtest.h>

#include <cmath>

#include "bartercast/reputation.hpp"

namespace bc::bartercast {
namespace {

ReputationEngine engine_with_unit(Bytes unit) {
  ReputationConfig cfg;
  cfg.arctan_unit = unit;
  return ReputationEngine(cfg);
}

double expected(double flow_units) {
  return std::atan(flow_units) / (M_PI / 2.0);
}

TEST(Equation1, HandComputedTable) {
  const auto engine = engine_with_unit(kGiB);

  // Tabulate (received, sent) -> expected value in 1 GiB units.
  struct Case {
    Bytes received;  // j -> i
    Bytes sent;      // i -> j
  };
  const Case cases[] = {
      {0, 0},          {kGiB, 0},         {0, kGiB},
      {kGiB, kGiB},    {4 * kGiB, 0},     {0, 4 * kGiB},
      {512 * kMiB, 0}, {3 * kGiB, kGiB},
  };
  PeerId j = 1;
  for (const Case& c : cases) {
    graph::FlowGraph g;
    // Keep both endpoints known. The helper edges point away from the
    // pair: 0 -> 2 -> 1 would add a 1-byte two-hop path from 0 to 1.
    g.add_capacity(2, 0, 1);
    g.add_capacity(2, 1, 1);
    g.add_capacity(1, 0, c.received);
    g.add_capacity(0, 1, c.sent);
    const double units =
        static_cast<double>(c.received - c.sent) / static_cast<double>(kGiB);
    EXPECT_NEAR(engine.reputation(g, 0, j), expected(units), 1e-12)
        << "received=" << c.received << " sent=" << c.sent;
  }
}

TEST(Equation1, KnownFixedPoints) {
  // arctan(1)/(pi/2) == 0.5 exactly; arctan(-1) symmetric.
  const auto engine = engine_with_unit(kGiB);
  EXPECT_NEAR(engine.scale(kGiB), 0.5, 1e-12);
  EXPECT_NEAR(engine.scale(-kGiB), -0.5, 1e-12);
  EXPECT_DOUBLE_EQ(engine.scale(0), 0.0);
}

TEST(Equation1, BanThresholdInversion) {
  // A ban threshold delta corresponds to a deficit of tan(|delta| pi/2)
  // units — the calibration identity DESIGN.md relies on.
  const auto engine = engine_with_unit(kGiB);
  for (double delta : {-0.3, -0.5, -0.7}) {
    const double deficit_units = std::tan(-delta * M_PI / 2.0);
    const auto deficit =
        static_cast<Bytes>(deficit_units * static_cast<double>(kGiB));
    EXPECT_NEAR(engine.scale(-deficit), delta, 1e-6) << delta;
  }
}

TEST(Equation1, StrictlyMonotoneInFlowDifference) {
  const auto engine = engine_with_unit(256 * kMiB);
  double prev = -2.0;
  for (Bytes diff = -4 * kGiB; diff <= 4 * kGiB; diff += 256 * kMiB) {
    const double r = engine.scale(diff);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(Equation1, OddFunction) {
  const auto engine = engine_with_unit(kGiB);
  for (Bytes d : {kMiB, 100 * kMiB, kGiB, 10 * kGiB}) {
    EXPECT_NEAR(engine.scale(d), -engine.scale(-d), 1e-12);
  }
}

}  // namespace
}  // namespace bc::bartercast
