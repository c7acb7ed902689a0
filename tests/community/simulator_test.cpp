// End-to-end integration tests of the community simulator. These use small
// scenarios (tens of peers, hours-to-days) so the whole suite stays fast,
// but exercise the full stack: trace replay, sessions, swarms, choking,
// bandwidth, gossip, BarterCast, policies, probes.
#include "community/simulator.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_writer.hpp"
#include "trace/generator.hpp"

namespace bc::community {
namespace {

trace::Trace small_trace(std::uint64_t seed, Seconds duration = 12 * kHour) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_peers = 16;
  cfg.num_swarms = 3;
  cfg.duration = duration;
  cfg.file_size_min = mib(20);
  cfg.file_size_max = mib(60);
  cfg.requests_per_peer_min = 1;
  cfg.requests_per_peer_max = 2;
  cfg.request_window = 0.6;
  return trace::generate(cfg);
}

ScenarioConfig small_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.series_bin = kHour;
  cfg.reputation_probe_interval = kHour;
  return cfg;
}

TEST(Simulator, RunsToCompletionAndMovesData) {
  CommunitySimulator sim(small_trace(1), small_scenario(1));
  sim.run();
  const auto& m = sim.metrics();
  ASSERT_EQ(m.outcomes.size(), 16u);
  Bytes up = 0, down = 0;
  std::size_t completed = 0;
  for (const auto& o : m.outcomes) {
    up += o.total_uploaded;
    down += o.total_downloaded;
    completed += o.files_completed;
  }
  EXPECT_GT(down, 0);
  EXPECT_GT(completed, 0u);
  // The community is closed: every byte downloaded was uploaded by a peer.
  EXPECT_EQ(up, down);
}

TEST(Simulator, DeterministicAcrossRuns) {
  CommunitySimulator a(small_trace(2), small_scenario(2));
  CommunitySimulator b(small_trace(2), small_scenario(2));
  a.run();
  b.run();
  const auto& ma = a.metrics();
  const auto& mb = b.metrics();
  ASSERT_EQ(ma.outcomes.size(), mb.outcomes.size());
  for (std::size_t i = 0; i < ma.outcomes.size(); ++i) {
    EXPECT_EQ(ma.outcomes[i].total_uploaded, mb.outcomes[i].total_uploaded);
    EXPECT_EQ(ma.outcomes[i].total_downloaded,
              mb.outcomes[i].total_downloaded);
    EXPECT_DOUBLE_EQ(ma.outcomes[i].final_system_reputation,
                     mb.outcomes[i].final_system_reputation);
  }
  EXPECT_EQ(ma.messages.messages_sent, mb.messages.messages_sent);
}

TEST(Simulator, SeedChangesOutcome) {
  CommunitySimulator a(small_trace(3), small_scenario(3));
  ScenarioConfig other = small_scenario(4);
  CommunitySimulator b(small_trace(3), other);
  a.run();
  b.run();
  // Different scenario seed -> different gossip phases and behaviour
  // assignment; at minimum the message traffic differs. (Per-peer byte
  // totals can coincide in a short run where no download completes before
  // the trace ends, so they are not a reliable discriminator.)
  EXPECT_NE(a.metrics().messages.messages_sent,
            b.metrics().messages.messages_sent);
}

TEST(Simulator, FreeridersNeverSeed) {
  CommunitySimulator sim(small_trace(5), small_scenario(5));
  sim.run();
  for (const auto& o : sim.metrics().outcomes) {
    if (!o.freerider) continue;
    // A freerider may upload via tit-for-tat *while* downloading, but its
    // upload must stay below what sharers achieve by seeding. The hard
    // guarantee testable here: it left every completed swarm.
    for (SwarmId s = 0; s < sim.trace().files.size(); ++s) {
      if (sim.swarm(s).has_peer(o.peer)) {
        EXPECT_FALSE(sim.swarm(s).is_complete(o.peer))
            << "freerider " << o.peer << " still seeding swarm " << s;
      }
    }
  }
}

TEST(Simulator, MessagesFlowBetweenPeers) {
  CommunitySimulator sim(small_trace(6), small_scenario(6));
  sim.run();
  const auto& msg = sim.metrics().messages;
  EXPECT_GT(msg.gossip_exchanges, 0u);
  EXPECT_GT(msg.messages_sent, 0u);
  EXPECT_GT(msg.messages_received, 0u);
  EXPECT_GT(msg.records_applied, 0u);
}

TEST(Simulator, IgnorersSendNothing) {
  trace::Trace tr = small_trace(7);
  ScenarioConfig cfg = small_scenario(7);
  cfg.freerider_fraction = 1.0;
  cfg.ignorer_fraction = 1.0;  // every peer ignores the message protocol
  CommunitySimulator sim(std::move(tr), cfg);
  sim.run();
  // Origin seeders still gossip with each other, but records about trace
  // transfers can only come from origin seeders' own histories.
  for (PeerId p = 0; p < sim.num_trace_peers(); ++p) {
    EXPECT_EQ(sim.behavior(p).name(), "ignoring-freerider");
  }
}

TEST(Simulator, ReputationSignSeparatesClasses) {
  // Longer run so reputations accumulate.
  CommunitySimulator sim(small_trace(8, /*duration=*/kDay),
                         small_scenario(8));
  sim.run();
  double sharer_sum = 0.0, freerider_sum = 0.0;
  std::size_t sharers = 0, freeriders = 0;
  for (const auto& o : sim.metrics().outcomes) {
    if (o.freerider) {
      freerider_sum += o.final_system_reputation;
      ++freeriders;
    } else {
      sharer_sum += o.final_system_reputation;
      ++sharers;
    }
  }
  ASSERT_GT(sharers, 0u);
  ASSERT_GT(freeriders, 0u);
  EXPECT_GT(sharer_sum / static_cast<double>(sharers),
            freerider_sum / static_cast<double>(freeriders));
}

TEST(Simulator, SystemReputationMatchesOutcome) {
  CommunitySimulator sim(small_trace(9), small_scenario(9));
  sim.run();
  const auto& o = sim.metrics().outcomes[3];
  // finalize() stores system_reputation(); recomputing must agree (the
  // simulator is paused after run()).
  CommunitySimulator& mutable_sim = sim;
  EXPECT_DOUBLE_EQ(o.final_system_reputation,
                   mutable_sim.system_reputation(3));
}

TEST(Simulator, InitialHoldersSeedFromTheStart) {
  CommunitySimulator sim(small_trace(10), small_scenario(10));
  std::size_t holders = 0;
  for (SwarmId s = 0; s < sim.trace().files.size(); ++s) {
    for (PeerId p = 0; p < sim.num_trace_peers(); ++p) {
      if (!sim.is_initial_holder(p, s)) continue;
      ++holders;
      // A holder is a community sharer already complete in that swarm.
      EXPECT_EQ(sim.behavior(p).name(), "sharer");
      EXPECT_TRUE(sim.swarm(s).has_peer(p));
      EXPECT_TRUE(sim.swarm(s).is_complete(p));
    }
  }
  EXPECT_EQ(holders, sim.trace().files.size() *
                         CommunitySimulator::kInitialHoldersPerSwarm);
  sim.run();
  EXPECT_EQ(sim.metrics().outcomes.size(), sim.num_trace_peers());
  // Holders keep seeding for the entire run.
  for (SwarmId s = 0; s < sim.trace().files.size(); ++s) {
    for (PeerId p = 0; p < sim.num_trace_peers(); ++p) {
      if (sim.is_initial_holder(p, s)) {
        EXPECT_TRUE(sim.swarm(s).has_peer(p));
      }
    }
  }
}

TEST(Simulator, BehaviorFractionsHonoured) {
  trace::Trace tr = small_trace(11);
  ScenarioConfig cfg = small_scenario(11);
  cfg.freerider_fraction = 0.5;
  cfg.liar_fraction = 0.25;
  CommunitySimulator sim(std::move(tr), cfg);
  std::size_t liars = 0, freeriders = 0;
  for (PeerId p = 0; p < sim.num_trace_peers(); ++p) {
    if (sim.behavior(p).name() == "lying-freerider") ++liars;
    if (sim.behavior(p).freerider()) ++freeriders;
  }
  EXPECT_EQ(freeriders, 8u);
  EXPECT_EQ(liars, 4u);
}

TEST(Simulator, ContributionReputationCorrelationPositive) {
  CommunitySimulator sim(small_trace(12, kDay), small_scenario(12));
  sim.run();
  // With little data the correlation is noisy, but it must not be strongly
  // negative; with a day of activity it is reliably positive.
  EXPECT_GT(analysis::contribution_correlation(sim.metrics()), 0.0);
}

// fig2, fig3 and the ablations run several simulators in one process: the
// reputation-cache counters must sum over them, as every other counter does.
TEST(Simulator, CacheCountersSumOverSimulatorsInOneProcess) {
  obs::Counter& hits_counter =
      obs::Registry::instance().counter("reputation.cache_hits");
  obs::Counter& misses_counter =
      obs::Registry::instance().counter("reputation.cache_misses");
  const std::uint64_t hits_before = hits_counter.value();
  const std::uint64_t misses_before = misses_counter.value();
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const std::uint64_t seed : {14u, 15u}) {
    CommunitySimulator sim(small_trace(seed), small_scenario(seed));
    sim.run();
    for (PeerId i = 0; i < sim.num_trace_peers(); ++i) {
      hits += sim.node(i).reputation_cache().hits();
      misses += sim.node(i).reputation_cache().misses();
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(hits_counter.value() - hits_before, hits);
  EXPECT_EQ(misses_counter.value() - misses_before, misses);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// A SIGUSR1-requested flight-recorder dump is served whenever the run has
// a tracer, not only while a metrics stream is open.
TEST(Simulator, SignalDumpServedWithoutMetricsStream) {
  const std::string path = ::testing::TempDir() + "bc_sim_signal_dump.json";
  std::remove(path.c_str());
  obs::Tracer tracer;
  tracer.set_ring_capacity(1000);
  tracer.set_dump_path(path);
  tracer.arm_signal_dump(SIGUSR1);
  RunContext run;
  run.tracer = &tracer;
  {
    CommunitySimulator sim(small_trace(16), small_scenario(16), run);
    std::raise(SIGUSR1);
    sim.run();
  }
  std::signal(SIGUSR1, SIG_DFL);

  ASSERT_TRUE(std::ifstream(path).good())
      << "no flight-recorder dump at " << path;
  EXPECT_EQ(read_file(path).rfind("{\"traceEvents\":[{", 0), 0u);
  std::remove(path.c_str());
}

// A failed audit inside a run is a fail-stop that names the site and the
// broken invariant, after dumping the run's flight recorder.
TEST(SimulatorDeathTest, FailedAuditDumpsTheFlightRecorderAndAborts) {
  const std::string path = ::testing::TempDir() + "bc_sim_audit_dump.json";
  std::remove(path.c_str());
  obs::Tracer tracer;
  tracer.set_ring_capacity(1000);
  tracer.set_dump_path(path);
  RunContext run;
  run.tracer = &tracer;
  run.audit = true;
  CommunitySimulator sim(small_trace(17), small_scenario(17), run);
  // A one-sided record: peer 0 claims an upload that peer 1 never
  // received and no swarm moved, so the first round's conservation audit
  // fails.
  const_cast<bartercast::Node&>(sim.node(0)).on_bytes_sent(1, mib(1), 0.0);
  EXPECT_DEATH(sim.run(), "community\\.round.*ledger");

  ASSERT_TRUE(std::ifstream(path).good())
      << "no flight-recorder dump at " << path;
  EXPECT_EQ(read_file(path).rfind("{\"traceEvents\":[{", 0), 0u);
  std::remove(path.c_str());
}

TEST(SimulatorDeathTest, DoubleRunRejected) {
  CommunitySimulator sim(small_trace(13), small_scenario(13));
  sim.run();
  EXPECT_DEATH(sim.run(), "once");
}

}  // namespace
}  // namespace bc::community
