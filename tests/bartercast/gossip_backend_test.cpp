// Unit suite for the pluggable reputation backends (backend.hpp): the
// differential-gossip metric's scores, determinism, and memoisation, the
// kind parsing/factory, and the cross-backend property that both metrics
// rank a clear sharer above a clear freerider on the same evidence.
#include "bartercast/backend.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bartercast/shared_history.hpp"
#include "graph/flow_graph.hpp"

namespace bc::bartercast {
namespace {

TEST(BackendKindNames, RoundTrip) {
  EXPECT_EQ(backend_name(BackendKind::kMaxflow), "maxflow");
  EXPECT_EQ(backend_name(BackendKind::kDifferentialGossip),
            "differential-gossip");
  EXPECT_EQ(parse_backend("maxflow"), BackendKind::kMaxflow);
  EXPECT_EQ(parse_backend("differential-gossip"),
            BackendKind::kDifferentialGossip);
}

TEST(BackendKindNames, AliasesAndSeparators) {
  EXPECT_EQ(parse_backend("gossip"), BackendKind::kDifferentialGossip);
  EXPECT_EQ(parse_backend("differential_gossip"),
            BackendKind::kDifferentialGossip);
  EXPECT_EQ(parse_backend("pagerank"), std::nullopt);
  EXPECT_EQ(parse_backend(""), std::nullopt);
}

TEST(MakeBackend, ConstructsSelectedKind) {
  const auto mf = make_backend(BackendKind::kMaxflow, ReputationConfig{});
  const auto dg =
      make_backend(BackendKind::kDifferentialGossip, ReputationConfig{});
  EXPECT_EQ(mf->name(), "maxflow");
  EXPECT_EQ(dg->name(), "differential-gossip");
  // The production maxflow mode supports per-subject dirty tracking; the
  // gossip sweep is global and must not.
  EXPECT_TRUE(mf->incremental_two_hop());
  EXPECT_FALSE(dg->incremental_two_hop());
}

TEST(DifferentialGossip, ZeroRoundsIsThePurePrior) {
  graph::FlowGraph g;
  g.add_capacity(1, 0, kGiB);  // peer 1 served 1 GiB to peer 0
  const DifferentialGossipBackend backend;
  const auto scores = backend.scores(g);
  // Round 0 is the pure prior: atan(+1 GiB / 1 GiB) / (pi/2) = 0.5 for
  // peer 1, mirrored for peer 0. Each of the four rounds keeps half of
  // the prior and averages in the only neighbour's previous score, which
  // mirrors one's own: s <- 0.25 - s/2, so 0.5 -> 0 -> 0.25 -> 0.125
  // -> 0.1875 = 3/16.
  EXPECT_NEAR(scores.at(1), 3.0 / 16.0, 1e-12);
  EXPECT_NEAR(scores.at(0), -3.0 / 16.0, 1e-12);
}

TEST(DifferentialGossip, SharerConvergesPositiveFreeriderNegative) {
  // Peer 1 seeds everyone; peer 2 only consumes; peers 0 and 3 trade.
  graph::FlowGraph g;
  g.add_capacity(1, 0, 4 * kGiB);
  g.add_capacity(1, 2, 4 * kGiB);
  g.add_capacity(1, 3, 4 * kGiB);
  g.add_capacity(0, 2, 2 * kGiB);
  g.add_capacity(0, 3, kGiB);
  g.add_capacity(3, 0, kGiB);
  const DifferentialGossipBackend backend;
  const auto scores = backend.scores(g);
  EXPECT_GT(scores.at(1), 0.0);
  EXPECT_LT(scores.at(2), 0.0);
  EXPECT_GT(scores.at(1), scores.at(2));
}

TEST(DifferentialGossip, ScoresAreDeterministic) {
  graph::FlowGraph g;
  g.add_capacity(2, 0, 3 * kGiB);
  g.add_capacity(2, 1, kGiB);
  g.add_capacity(0, 1, 2 * kGiB);
  g.add_capacity(1, 0, 512 * kMiB);
  const DifferentialGossipBackend backend;
  const auto first = backend.scores(g);
  const auto second = backend.scores(g);
  ASSERT_EQ(first.size(), second.size());
  for (const auto& [peer, value] : first) {
    // Bit-identical, not just close: the sweep's FP order is fixed.
    EXPECT_EQ(second.at(peer), value) << "peer " << peer;
  }
}

TEST(DifferentialGossip, ScoresStayBounded) {
  graph::FlowGraph g;
  // Extreme volumes must not push a score outside [-1, 1].
  g.add_capacity(0, 1, 500 * kGiB);
  g.add_capacity(1, 2, 500 * kGiB);
  g.add_capacity(2, 0, kMiB);
  const DifferentialGossipBackend backend;
  for (const auto& [peer, value] : backend.scores(g)) {
    EXPECT_GE(value, -1.0) << "peer " << peer;
    EXPECT_LE(value, 1.0) << "peer " << peer;
  }
}

TEST(DifferentialGossip, IsolatedPeerKeepsItsPrior) {
  graph::FlowGraph g;
  g.add_capacity(0, 1, kGiB);
  g.add_capacity(2, 3, 2 * kGiB);  // component disjoint from {0, 1}
  const DifferentialGossipBackend backend;
  const auto scores = backend.scores(g);
  // Peer 2's opinion pool is only peer 3 and vice versa; scores still
  // exist and carry the right sign.
  EXPECT_GT(scores.at(2), 0.0);
  EXPECT_LT(scores.at(3), 0.0);
}

TEST(DifferentialGossip, ViewOwnerAndUnknownSubjectsAreNeutral) {
  SharedHistory view(/*owner=*/0);
  view.record_local_download(1, kGiB);
  const DifferentialGossipBackend backend;
  EXPECT_EQ(backend.reputation(view, 0), 0.0);   // self
  EXPECT_EQ(backend.reputation(view, 99), 0.0);  // never seen
  EXPECT_GT(backend.reputation(view, 1), 0.0);   // served the owner
}

TEST(DifferentialGossip, MemoRefreshesWhenTheViewChanges) {
  SharedHistory view(/*owner=*/0);
  view.record_local_download(1, kGiB);
  const DifferentialGossipBackend backend;
  const double before = backend.reputation(view, 1);
  EXPECT_GT(before, 0.0);
  // The owner now uploads far more to 1 than it received: 1's net (and
  // with it the gossip score) must flip once the version bumps.
  view.record_local_upload(1, 10 * kGiB);
  const double after = backend.reputation(view, 1);
  EXPECT_LT(after, before);
  EXPECT_LT(after, 0.0);
}

TEST(CachedReputationBackend, GossipBackendDisablesIncrementalMode) {
  SharedHistory view(/*owner=*/0);
  CachedReputation cache(
      view, std::make_unique<DifferentialGossipBackend>());
  EXPECT_FALSE(cache.incremental());
  EXPECT_EQ(cache.backend().name(), "differential-gossip");
}

TEST(CachedReputationBackend, CachesPerVersionAcrossBackends) {
  for (const BackendKind kind :
       {BackendKind::kMaxflow, BackendKind::kDifferentialGossip}) {
    SharedHistory view(/*owner=*/0);
    view.record_local_download(1, kGiB);
    CachedReputation cache(view, make_backend(kind, ReputationConfig{}));
    const double first = cache.reputation(1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.reputation(1), first);
    EXPECT_EQ(cache.hits(), 1u);
    view.record_local_download(1, kGiB);  // version bump invalidates
    const double updated = cache.reputation(1);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_GT(updated, first);  // 1 served even more
  }
}

// The headline cross-backend property: on identical evidence both
// aggregation metrics rank a clear sharer strictly above a clear
// freerider, so policy thresholds retain their sign under a backend swap.
TEST(CrossBackendProperty, BothBackendsRankSharerAboveFreerider) {
  constexpr PeerId kEvaluator = 0;
  constexpr PeerId kSharer = 1;
  constexpr PeerId kFreerider = 2;
  SharedHistory view(kEvaluator);
  // The sharer served the evaluator 5 GiB; the freerider consumed 3 GiB
  // from the evaluator and returned nothing.
  view.record_local_download(kSharer, 5 * kGiB);
  view.record_local_upload(kFreerider, 3 * kGiB);

  for (const BackendKind kind :
       {BackendKind::kMaxflow, BackendKind::kDifferentialGossip}) {
    const auto backend = make_backend(kind, ReputationConfig{});
    const double sharer = backend->reputation(view, kSharer);
    const double freerider = backend->reputation(view, kFreerider);
    EXPECT_GT(sharer, 0.0) << backend->name();
    EXPECT_LT(freerider, 0.0) << backend->name();
    EXPECT_GT(sharer, freerider) << backend->name();
  }
}

}  // namespace
}  // namespace bc::bartercast
