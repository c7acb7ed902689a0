#include "bartercast/shared_history.hpp"

#include <gtest/gtest.h>

namespace bc::bartercast {
namespace {

BarterCastMessage message_from(PeerId sender,
                               std::vector<BarterRecord> records) {
  BarterCastMessage msg;
  msg.sender = sender;
  msg.sent_at = 1.0;
  msg.records = std::move(records);
  return msg;
}

TEST(SharedHistory, LocalTransfersCreateOwnerEdges) {
  SharedHistory sh(0);
  sh.record_local_upload(1, 100);
  sh.record_local_download(2, 50);
  EXPECT_EQ(sh.graph().capacity(0, 1), 100);
  EXPECT_EQ(sh.graph().capacity(2, 0), 50);
  EXPECT_EQ(sh.graph().num_edges(), 2u);
}

TEST(SharedHistory, LocalTransfersAccumulate) {
  SharedHistory sh(0);
  sh.record_local_upload(1, 100);
  sh.record_local_upload(1, 100);
  EXPECT_EQ(sh.graph().capacity(0, 1), 200);
}

TEST(SharedHistory, ZeroLocalTransferDoesNothing) {
  SharedHistory sh(0);
  const auto v = sh.version();
  sh.record_local_upload(1, 0);
  EXPECT_EQ(sh.version(), v);
  EXPECT_EQ(sh.graph().num_edges(), 0u);
}

TEST(SharedHistory, AppliesSenderRecords) {
  SharedHistory sh(0);
  const auto msg =
      message_from(5, {{5, 6, 100, 40}});
  const auto stats = sh.apply_message(msg);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(sh.graph().capacity(5, 6), 100);
  EXPECT_EQ(sh.graph().capacity(6, 5), 40);
}

TEST(SharedHistory, DropsThirdPartyRecords) {
  SharedHistory sh(0);
  // Sender 5 reports about a (6, 7) pair it is not part of.
  const auto msg = message_from(5, {{6, 7, 100, 40}});
  const auto stats = sh.apply_message(msg);
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.dropped_third_party, 1u);
  EXPECT_EQ(sh.graph().capacity(6, 7), 0);
}

TEST(SharedHistory, AcceptsRecordWhereSenderIsOther) {
  SharedHistory sh(0);
  // 6 reports the record as (subject=5, other=6): still involves sender 6.
  const auto msg = message_from(6, {{5, 6, 80, 20}});
  const auto stats = sh.apply_message(msg);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(sh.graph().capacity(5, 6), 80);
}

TEST(SharedHistory, DropsRecordsNamingInvalidPeer) {
  // kInvalidPeer names no one and is a sentinel inside the graph core: a
  // record naming it must not create a graph node, whichever side it is on.
  SharedHistory sh(0);
  const auto stats = sh.apply_message(message_from(
      7, {{kInvalidPeer, 7, 100, 50}, {7, kInvalidPeer, 100, 50}}));
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.dropped_third_party, 2u);
  EXPECT_FALSE(sh.graph().has_node(kInvalidPeer));
  EXPECT_EQ(sh.graph().num_nodes(), 0u);
  EXPECT_TRUE(sh.graph().check_invariants());
  // The same from a sender that is kInvalidPeer itself.
  const auto from_invalid = sh.apply_message(
      message_from(kInvalidPeer, {{kInvalidPeer, 4, 100, 50}}));
  EXPECT_EQ(from_invalid.dropped_third_party, 1u);
  EXPECT_EQ(sh.graph().num_nodes(), 0u);
}

TEST(SharedHistory, DropsSelfReports) {
  SharedHistory sh(0);
  const auto msg = message_from(5, {{5, 5, 100, 40}});
  const auto stats = sh.apply_message(msg);
  EXPECT_EQ(stats.dropped_self_report, 1u);
  EXPECT_EQ(stats.applied, 0u);
}

TEST(SharedHistory, OwnerEdgesProtectedFromGossip) {
  // §3.4: the owner's incident edges come only from its private history.
  SharedHistory sh(0);
  sh.record_local_upload(5, 10);
  const auto msg = message_from(5, {{5, 0, 1'000'000, 0}});
  const auto stats = sh.apply_message(msg);
  EXPECT_EQ(stats.dropped_own_edge, 1u);
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(sh.graph().capacity(5, 0), 0);   // the claim was ignored
  EXPECT_EQ(sh.graph().capacity(0, 5), 10);  // private history intact
}

TEST(SharedHistory, RemoteClaimsMergeWithMax) {
  SharedHistory sh(0);
  sh.apply_message(message_from(5, {{5, 6, 100, 0}}));
  // An older/smaller claim must not shrink the edge.
  sh.apply_message(message_from(5, {{5, 6, 60, 0}}));
  EXPECT_EQ(sh.graph().capacity(5, 6), 100);
  // A newer/larger claim grows it.
  sh.apply_message(message_from(5, {{5, 6, 150, 0}}));
  EXPECT_EQ(sh.graph().capacity(5, 6), 150);
}

TEST(SharedHistory, BothDirectionsOfRecordApplied) {
  SharedHistory sh(0);
  sh.apply_message(message_from(5, {{5, 6, 0, 70}}));
  EXPECT_EQ(sh.graph().capacity(5, 6), 0);
  EXPECT_EQ(sh.graph().capacity(6, 5), 70);
}

TEST(SharedHistory, VersionBumpsOnChangeOnly) {
  SharedHistory sh(0);
  const auto v0 = sh.version();
  sh.apply_message(message_from(5, {{5, 6, 100, 0}}));
  const auto v1 = sh.version();
  EXPECT_GT(v1, v0);
  // Re-applying the identical message changes nothing.
  sh.apply_message(message_from(5, {{5, 6, 100, 0}}));
  EXPECT_EQ(sh.version(), v1);
}

TEST(SharedHistory, LastChangeTracksGossipEndpoints) {
  SharedHistory sh(0);
  EXPECT_EQ(sh.last_change(5), 0u);
  sh.apply_message(message_from(5, {{5, 6, 100, 40}}));
  EXPECT_EQ(sh.last_change(5), sh.version());
  EXPECT_EQ(sh.last_change(6), sh.version());
  EXPECT_EQ(sh.last_change(7), 0u);  // untouched peer stays at zero
}

TEST(SharedHistory, LastChangeMarksOwnerEdgeNeighbourhood) {
  SharedHistory sh(0);
  sh.apply_message(message_from(5, {{5, 6, 100, 0}}));   // v1: marks {5, 6}
  sh.apply_message(message_from(8, {{8, 9, 100, 0}}));   // v2: marks {8, 9}
  const auto v2 = sh.version();
  // A local transfer with 5 changes an owner-incident edge, which feeds
  // the two-hop flow of every neighbour of 5 — so 6 is re-marked too.
  sh.record_local_download(5, 100);
  const auto v3 = sh.version();
  EXPECT_GT(v3, v2);
  EXPECT_EQ(sh.last_change(5), v3);
  EXPECT_EQ(sh.last_change(6), v3);
  // Peers outside 5's neighbourhood keep their older marks.
  EXPECT_EQ(sh.last_change(8), v2);
  EXPECT_EQ(sh.last_change(9), v2);
}

TEST(SharedHistory, UnchangedReplayDoesNotTouchLastChange) {
  SharedHistory sh(0);
  const auto msg = message_from(5, {{5, 6, 100, 40}});
  sh.apply_message(msg);
  const auto v1 = sh.version();
  sh.apply_message(msg);  // max()-merge: nothing changes
  EXPECT_EQ(sh.version(), v1);
  EXPECT_EQ(sh.last_change(5), v1);
  EXPECT_EQ(sh.last_change(6), v1);
}

TEST(SharedHistory, HonestReplayIsIdempotent) {
  SharedHistory sh(0);
  const auto msg = message_from(5, {{5, 6, 100, 40}, {5, 7, 10, 20}});
  sh.apply_message(msg);
  const auto edges_before = sh.graph().num_edges();
  const auto cap_before = sh.graph().total_capacity();
  sh.apply_message(msg);
  sh.apply_message(msg);
  EXPECT_EQ(sh.graph().num_edges(), edges_before);
  EXPECT_EQ(sh.graph().total_capacity(), cap_before);
}

}  // namespace
}  // namespace bc::bartercast
