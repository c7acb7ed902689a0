// Bit-exact determinism of the community simulator: two runs from the
// same trace seed and scenario config must produce bit-identical metrics,
// down to the floating-point bit patterns of every time-series bin and
// reputation value.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "community/simulator.hpp"
#include "trace/generator.hpp"

namespace bc::community {
namespace {

trace::Trace small_trace(std::uint64_t seed) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_peers = 16;
  cfg.num_swarms = 2;
  cfg.duration = 10.0 * kHour;
  cfg.file_size_min = mib(15);
  cfg.file_size_max = mib(40);
  cfg.requests_per_peer_min = 1;
  cfg.requests_per_peer_max = 2;
  return trace::generate(cfg);
}

void put_double(std::ostringstream& out, double v) {
  // Doubles go out as raw bit patterns: "equal enough" is not determinism.
  out << std::bit_cast<std::uint64_t>(v) << ',';
}

void put_series(std::ostringstream& out, const TimeSeries& s) {
  out << s.num_bins() << ';';
  for (std::size_t i = 0; i < s.num_bins(); ++i) {
    out << s.bin_count(i) << ':';
    put_double(out, s.bin_mean(i));
  }
  out << '\n';
}

std::string fingerprint(const Metrics& m) {
  std::ostringstream out;
  put_series(out, m.reputation_sharers);
  put_series(out, m.reputation_freeriders);
  put_series(out, m.speed_sharers);
  put_series(out, m.speed_freeriders);
  for (const auto& o : m.outcomes) {
    out << o.peer << ',' << o.behavior << ','
        << o.total_uploaded << ',' << o.total_downloaded << ','
        << o.files_requested << ',' << o.files_completed << ',';
    put_double(out, o.final_system_reputation);
    put_double(out, o.time_downloading);
    out << o.late_downloaded << ',';
    put_double(out, o.late_time_downloading);
    out << '\n';
  }
  out << m.messages.messages_sent << ',' << m.messages.messages_received << ','
      << m.messages.records_applied << ',' << m.messages.records_dropped() << ','
      << m.messages.gossip_exchanges << '\n';
  return out.str();
}

std::string run_once(std::uint64_t trace_seed, std::uint64_t scenario_seed) {
  ScenarioConfig cfg;
  cfg.seed = scenario_seed;
  cfg.policy = bartercast::ReputationPolicy::rank_ban(-0.5);
  CommunitySimulator sim(small_trace(trace_seed), cfg);
  sim.run();
  return fingerprint(sim.metrics());
}

TEST(Determinism, SameSeedsGiveBitIdenticalMetrics) {
  const std::string first = run_once(21, 9);
  const std::string second = run_once(21, 9);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, DifferentScenarioSeedDiverges) {
  // A sanity check that the fingerprint is actually sensitive to the run:
  // changing the scenario seed must change some recorded bit.
  const std::string first = run_once(21, 9);
  const std::string other = run_once(21, 10);
  EXPECT_NE(first, other);
}

}  // namespace
}  // namespace bc::community
