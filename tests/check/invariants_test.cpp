// Unit coverage for the bc::check validators, including the acceptance
// scenario: a deliberately corrupted ledger must be caught.
#include <gtest/gtest.h>

#include "bartercast/history.hpp"
#include "bartercast/message.hpp"
#include "bartercast/reputation.hpp"
#include "check/invariants.hpp"
#include "community/simulator.hpp"
#include "graph/flow_graph.hpp"
#include "graph/maxflow.hpp"
#include "sim/engine.hpp"
#include "trace/generator.hpp"

namespace bc::check {
namespace {

using bartercast::BarterCastMessage;
using bartercast::BarterRecord;
using bartercast::MessageSelection;
using bartercast::PrivateHistory;

// --- ledger -----------------------------------------------------------------

TEST(CheckHistory, CleanHistoryPasses) {
  PrivateHistory h(0);
  h.record_upload(1, 1000, 1.0);
  h.record_download(1, 400, 2.0);
  h.touch(2, 3.0);
  Report r;
  check_history(h, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(CheckLedger, SymmetricLedgersConserve) {
  PrivateHistory a(0), b(1), c(2);
  // 0 uploads 500 to 1; 1 uploads 200 to 2.
  a.record_upload(1, 500, 1.0);
  b.record_download(0, 500, 1.0);
  b.record_upload(2, 200, 2.0);
  c.record_download(1, 200, 2.0);
  Report r;
  check_ledger_conservation({&a, &b, &c}, 700, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(CheckLedger, CorruptedLedgerIsCaught) {
  PrivateHistory a(0), b(1);
  a.record_upload(1, 500, 1.0);
  b.record_download(0, 500, 1.0);
  // Corruption: peer 0 books 100 extra uploaded bytes that peer 1 never
  // received (e.g. a lost accounting update).
  a.record_upload(1, 100, 2.0);
  Report r;
  check_ledger_conservation({&a, &b}, 500, r);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("ledger.conservation")) << r.to_string();
  EXPECT_TRUE(r.has("ledger.global_balance")) << r.to_string();
  EXPECT_TRUE(r.has("ledger.ground_truth")) << r.to_string();
}

TEST(CheckLedger, GroundTruthMismatchIsCaught) {
  PrivateHistory a(0), b(1);
  a.record_upload(1, 500, 1.0);
  b.record_download(0, 500, 1.0);
  Report r;
  // Internally symmetric but the transport claims a different total: the
  // ledgers dropped (or invented) a transfer.
  check_ledger_conservation({&a, &b}, 800, r);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("ledger.ground_truth")) << r.to_string();
  EXPECT_FALSE(r.has("ledger.conservation"));
}

TEST(CheckLedger, NegativeExpectedSkipsGroundTruth) {
  PrivateHistory a(0), b(1);
  a.record_upload(1, 500, 1.0);
  b.record_download(0, 500, 1.0);
  Report r;
  check_ledger_conservation({&a, &b}, -1, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

// --- flow graph / reputation -------------------------------------------------

TEST(CheckFlowGraph, CleanGraphPasses) {
  graph::FlowGraph g;
  g.add_capacity(0, 1, 100);
  g.add_capacity(1, 2, 50);
  g.add_capacity(2, 0, 25);
  g.raise_capacity(1, 2, 80);
  Report r;
  check_flow_graph(g, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(CheckReputation, BoundsAndMinCutHold) {
  graph::FlowGraph g;
  // Chain 0 -> 1 -> 2 plus direct edge 0 -> 2.
  g.add_capacity(0, 1, 1000);
  g.add_capacity(1, 2, 600);
  g.add_capacity(0, 2, 300);
  g.add_capacity(2, 0, 50);
  const bartercast::ReputationEngine engine;
  Report r;
  check_reputation_bounds(engine, g, 0, {1, 2}, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
  // Sanity of the bound the validator enforces: two-hop flow 0->2 is
  // min(1000,600) + 300 = 900, and the trivial cuts allow
  // min(out(0), in(2)) = min(1300, 900) = 900.
  EXPECT_EQ(graph::max_flow_two_hop(g, 0, 2), 900);
  EXPECT_EQ(std::min(g.out_capacity(0), g.in_capacity(2)), 900);
}

TEST(CheckReputation, AllMaxflowModesStayBounded) {
  graph::FlowGraph g;
  for (PeerId i = 0; i < 6; ++i) {
    for (PeerId j = 0; j < 6; ++j) {
      if (i != j) g.add_capacity(i, j, static_cast<Bytes>(37 * (i + 2 * j + 1)));
    }
  }
  for (const auto mode : {bartercast::MaxflowMode::kTwoHopExact,
                          bartercast::MaxflowMode::kBoundedFordFulkerson,
                          bartercast::MaxflowMode::kFullFordFulkerson}) {
    bartercast::ReputationConfig cfg;
    cfg.mode = mode;
    const bartercast::ReputationEngine engine(cfg);
    Report r;
    check_reputation_bounds(engine, g, 0, {1, 2, 3, 4, 5}, r);
    EXPECT_TRUE(r.ok()) << r.to_string();
  }
}

// --- engine -------------------------------------------------------------------

TEST(CheckEngine, MonotoneQueuePasses) {
  sim::Engine e;
  e.schedule_at(5.0, [] {});
  e.schedule_at(1.0, [] {});
  Report r;
  check_engine(e, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
  e.run_until(5.0);
  check_engine(e, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(e.next_event_time(), std::nullopt);
}

TEST(CheckEngine, NextEventTimeExposesQueueHead) {
  sim::Engine e;
  e.schedule_at(3.0, [] {});
  e.schedule_at(7.0, [] {});
  ASSERT_TRUE(e.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*e.next_event_time(), 3.0);
  e.step();
  ASSERT_TRUE(e.next_event_time().has_value());
  EXPECT_DOUBLE_EQ(*e.next_event_time(), 7.0);
}

// --- messages ------------------------------------------------------------------

TEST(CheckMessage, HonestMessagePasses) {
  PrivateHistory h(3);
  for (PeerId p = 0; p < 30; ++p) {
    if (p == 3) continue;
    h.record_upload(p, 100 * (p + 1), static_cast<Seconds>(p));
    h.record_download(p, 50 * (p + 1), static_cast<Seconds>(p) + 0.5);
  }
  MessageSelection sel;  // Nh = Nr = 10
  const BarterCastMessage msg = bartercast::build_message(h, sel, 40.0);
  Report r;
  check_message(msg, sel, r);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_LE(msg.records.size(), sel.nh + sel.nr);
}

TEST(CheckMessage, MalformedMessagesAreCaught) {
  MessageSelection sel;
  sel.nh = 1;
  sel.nr = 1;

  BarterCastMessage msg;
  msg.sender = 0;
  msg.sent_at = 1.0;
  msg.records.push_back({0, 1, 100, 50});  // fine
  msg.records.push_back({2, 3, 10, 10});   // third-party claim
  msg.records.push_back({0, 0, 10, 10});   // self record
  Report r;
  check_message(msg, sel, r);
  EXPECT_TRUE(r.has("message.record_limit")) << r.to_string();
  EXPECT_TRUE(r.has("message.third_party")) << r.to_string();
  EXPECT_TRUE(r.has("message.self_record")) << r.to_string();

  BarterCastMessage dup;
  dup.sender = 0;
  dup.sent_at = 2.0;
  dup.records.push_back({0, 1, 100, 50});
  dup.records.push_back({0, 1, 90, 40});
  Report r2;
  check_message(dup, sel, r2);
  EXPECT_TRUE(r2.has("message.duplicate")) << r2.to_string();

  BarterCastMessage neg;
  neg.sender = 0;
  neg.sent_at = 3.0;
  neg.records.push_back({0, 1, -5, 0});
  Report r3;
  check_message(neg, sel, r3);
  EXPECT_TRUE(r3.has("message.negative")) << r3.to_string();

  BarterCastMessage bad_sender;
  bad_sender.sender = kInvalidPeer;
  bad_sender.sent_at = -1.0;
  Report r4;
  check_message(bad_sender, sel, r4);
  EXPECT_TRUE(r4.has("message.sender")) << r4.to_string();
  EXPECT_TRUE(r4.has("message.timestamp")) << r4.to_string();
}

// --- end to end -----------------------------------------------------------------

TEST(CheckSimulator, FullAuditPassesOnRealRun) {
  trace::GeneratorConfig tcfg;
  tcfg.seed = 11;
  tcfg.num_peers = 12;
  tcfg.num_swarms = 2;
  tcfg.duration = 6.0 * kHour;
  tcfg.file_size_min = mib(10);
  tcfg.file_size_max = mib(30);
  tcfg.requests_per_peer_min = 1;
  tcfg.requests_per_peer_max = 2;

  community::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.policy = bartercast::ReputationPolicy::ban(-0.5);

  community::CommunitySimulator sim(trace::generate(tcfg), cfg);
  sim.run();
  Report r;
  sim.audit(r);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

}  // namespace
}  // namespace bc::check
