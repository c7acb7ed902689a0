// Golden-assignment regression: pins the exact RNG draws of
// assign_behaviors for the paper's §5.1/§5.4 population splits.
//
// The expected strings below were captured from the original enum
// implementation (one Fisher-Yates shuffle over the index vector, legacy
// lround counts, lazy = freeriders - ignorers - liars). The behavior
// catalog must keep the legacy path bit-identical: any change to the RNG
// consumption, the slice order, or the count arithmetic flips characters
// here and is a determinism break for every seeded paper scenario.
#include <gtest/gtest.h>

#include <string>

#include "community/behavior.hpp"
#include "util/rng.hpp"

namespace bc::community {
namespace {

/// One char per peer: S=sharer, L=lazy, I=ignoring, Y=lying freerider.
std::string encode(std::size_t n, std::uint64_t seed, double freeriders,
                   double ignorers, double liars) {
  Rng rng(seed);
  const auto v = assign_behaviors(n, freeriders, ignorers, liars, rng);
  std::string out;
  out.reserve(v.size());
  for (const PeerBehavior* b : v) {
    const std::string_view name = b->name();
    if (name == "sharer") {
      out += 'S';
    } else if (name == "lazy-freerider") {
      out += 'L';
    } else if (name == "ignoring-freerider") {
      out += 'I';
    } else if (name == "lying-freerider") {
      out += 'Y';
    } else {
      out += '?';
    }
  }
  return out;
}

TEST(GoldenAssignment, Paper51LazySplit) {
  // §5.1: 50% lazy freeriders, no disobeyers.
  EXPECT_EQ(encode(20, 42, 0.5, 0.0, 0.0), "SLSLSLLLLSSSLLLSSLSS");
  EXPECT_EQ(encode(100, 1, 0.5, 0.0, 0.0),
            "SSSSSLSLLSLLLLSLSLSLLSLLSLLSSLLLSLSLSSLLLSLSLSSLLSSSLLSSLSLSSSLL"
            "LSLLLLLSSSSLLLSSLSSSLLSLSSSLSSSLSLSL");
}

TEST(GoldenAssignment, Paper54IgnorerSplit) {
  // §5.4 manipulation (1): half the freeriders ignore the protocol.
  EXPECT_EQ(encode(20, 42, 0.5, 0.25, 0.0), "SLSISLLIISSSIILSSLSS");
}

TEST(GoldenAssignment, Paper54LiarSplit) {
  // §5.4 manipulation (2): half the freeriders lie.
  EXPECT_EQ(encode(20, 42, 0.5, 0.0, 0.25), "SLSYSLLYYSSSYYLSSLSS");
}

TEST(GoldenAssignment, MixedDisobeyers) {
  EXPECT_EQ(encode(20, 7, 0.5, 0.1, 0.2), "SLSLSYSLSLISSISSYSYY");
  EXPECT_EQ(encode(100, 1, 0.5, 0.25, 0.25),
            "SSSSSISYISYYIISISISYISIYSIYSSIIYSYSYSSYYISYSYSSIYSSSIYSSYSYSSSIY"
            "ISIIYIISSSSYYYSSISSSYISYSSSYSSSISISI");
}

TEST(GoldenAssignment, LegacyCountArithmetic) {
  // n = 30, freeriders 0.5, ignorers 0.25: the legacy lazy count is
  // 15 - 8 = 7, NOT lround(0.25 * 30) = 8 — the subtraction formula must
  // be preserved, not re-derived per fraction.
  Rng rng(3);
  const auto v = assign_behaviors(30, 0.5, 0.25, 0.0, rng);
  std::size_t lazy = 0, ignoring = 0, sharer = 0;
  for (const PeerBehavior* b : v) {
    if (b->name() == "lazy-freerider") ++lazy;
    if (b->name() == "ignoring-freerider") ++ignoring;
    if (b->name() == "sharer") ++sharer;
  }
  EXPECT_EQ(ignoring, 8u);
  EXPECT_EQ(lazy, 7u);
  EXPECT_EQ(sharer, 15u);
}

}  // namespace
}  // namespace bc::community
