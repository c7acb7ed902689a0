#include "bartercast/persistence.hpp"

#include <gtest/gtest.h>

#include "bartercast/codec.hpp"

namespace bc::bartercast {
namespace {

Node busy_node() {
  Node n(3);
  n.on_bytes_sent(1, 100, 1.0);
  n.on_bytes_received(1, 40, 2.0);
  n.on_bytes_received(2, 7000, 3.5);
  n.on_peer_seen(9, 4.0);
  // Remote knowledge via gossip.
  BarterCastMessage msg;
  msg.sender = 5;
  msg.records.push_back({5, 6, 1234, 777});
  n.receive_message(msg);
  return n;
}

TEST(Persistence, RoundTripsState) {
  const Node original = busy_node();
  const std::string text = save_node_to_string(original);

  std::string error;
  const auto loaded = load_node_from_string(text, {}, &error);
  ASSERT_NE(loaded, nullptr) << error;

  EXPECT_EQ(loaded->id(), original.id());
  EXPECT_EQ(loaded->history().uploaded_to(1), 100);
  EXPECT_EQ(loaded->history().downloaded_from(1), 40);
  EXPECT_EQ(loaded->history().downloaded_from(2), 7000);
  EXPECT_TRUE(loaded->history().contains(9));  // touch survived
  EXPECT_EQ(loaded->view().graph().capacity(5, 6), 1234);
  EXPECT_EQ(loaded->view().graph().capacity(6, 5), 777);
  EXPECT_EQ(loaded->view().graph().capacity(3, 1), 100);
  EXPECT_EQ(loaded->view().graph().capacity(1, 3), 40);
}

TEST(Persistence, RoundTripIsStable) {
  const Node original = busy_node();
  const std::string once = save_node_to_string(original);
  const auto loaded = load_node_from_string(once, {});
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(save_node_to_string(*loaded), once);
}

TEST(Persistence, ReputationsSurviveReload) {
  Node original = busy_node();
  const auto loaded = load_node_from_string(save_node_to_string(original), {});
  ASSERT_NE(loaded, nullptr);
  for (PeerId p : {1u, 2u, 5u, 6u}) {
    EXPECT_DOUBLE_EQ(loaded->reputation(p), original.reputation(p))
        << "peer " << p;
  }
}

TEST(Persistence, EmptyNodeRoundTrips) {
  const Node empty(17);
  const auto loaded = load_node_from_string(save_node_to_string(empty), {});
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->id(), 17u);
  EXPECT_EQ(loaded->history().size(), 0u);
}

TEST(Persistence, RejectsMissingHeader) {
  std::string error;
  EXPECT_EQ(load_node_from_string("#history,1,2,3,4\n", {}, &error), nullptr);
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(Persistence, RejectsWrongVersion) {
  std::string error;
  EXPECT_EQ(load_node_from_string("#bartercast-node,99,3\n", {}, &error),
            nullptr);
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(Persistence, RejectsDuplicateHeader) {
  const std::string text =
      "#bartercast-node,1,3\n#bartercast-node,1,3\n";
  EXPECT_EQ(load_node_from_string(text, {}), nullptr);
}

TEST(Persistence, RejectsMalformedRows) {
  EXPECT_EQ(
      load_node_from_string("#bartercast-node,1,3\n#history,abc,1,2,3\n", {}),
      nullptr);
  EXPECT_EQ(
      load_node_from_string("#bartercast-node,1,3\n#edge,1,2\n", {}),
      nullptr);
  EXPECT_EQ(
      load_node_from_string("#bartercast-node,1,3\n#bogus,1\n", {}),
      nullptr);
}

TEST(Persistence, RejectsNegativeAmounts) {
  EXPECT_EQ(
      load_node_from_string("#bartercast-node,1,3\n#history,1,-5,0,0\n", {}),
      nullptr);
  EXPECT_EQ(
      load_node_from_string("#bartercast-node,1,3\n#edge,1,2,-5\n", {}),
      nullptr);
}

TEST(Persistence, RejectsTamperedOwnerEdges) {
  // An #edge row incident to the owner would bypass the private-history
  // authority; the loader must refuse it.
  std::string error;
  EXPECT_EQ(load_node_from_string(
                "#bartercast-node,1,3\n#edge,3,5,1000\n", {}, &error),
            nullptr);
  EXPECT_EQ(load_node_from_string(
                "#bartercast-node,1,3\n#edge,5,3,1000\n", {}, &error),
            nullptr);
}

TEST(Persistence, RejectsRepeatedHistoryPeer) {
  // save_node writes each peer once. Two 2^62 lines for one peer would sum
  // past INT64_MAX in the history while the graph edge saturates.
  std::string error;
  EXPECT_EQ(load_node_from_string("#bartercast-node,1,0\n"
                                  "#history,5,0,4611686018427387904,1\n"
                                  "#history,5,0,4611686018427387904,2\n",
                                  {}, &error),
            nullptr);
  EXPECT_EQ(error, "line 3: malformed #history");
  EXPECT_EQ(load_node_from_string(
                "#bartercast-node,1,0\n#history,5,1,0,1\n#history,5,0,0,2\n",
                {}),
            nullptr);
}

TEST(Persistence, RejectsInvalidPeerIds) {
  // kInvalidPeer (4294967295) names no one: it is malformed wherever an id
  // goes.
  std::string error;
  EXPECT_EQ(load_node_from_string("#bartercast-node,1,4294967295\n", {}),
            nullptr);
  EXPECT_EQ(load_node_from_string(
                "#bartercast-node,1,3\n#history,4294967295,1,1,0\n", {}),
            nullptr);
  EXPECT_EQ(load_node_from_string(
                "#bartercast-node,1,3\n#edge,4294967295,7,100\n", {}, &error),
            nullptr);
  EXPECT_EQ(error, "line 2: malformed #edge");
  EXPECT_EQ(load_node_from_string(
                "#bartercast-node,1,3\n#edge,7,4294967295,100\n", {}),
            nullptr);
}

TEST(Persistence, RejectsNonFiniteLastSeen) {
  for (const char* seen : {"nan", "inf", "-inf"}) {
    EXPECT_EQ(load_node_from_string(
                  std::string("#bartercast-node,1,3\n#history,5,1,1,") + seen +
                      "\n",
                  {}),
              nullptr)
        << seen;
  }
}

TEST(Persistence, RejectsSelfHistory) {
  EXPECT_EQ(
      load_node_from_string("#bartercast-node,1,3\n#history,3,1,1,0\n", {}),
      nullptr);
}

}  // namespace
}  // namespace bc::bartercast
