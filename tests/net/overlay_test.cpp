#include "net/overlay.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bc::net {
namespace {

// Peers 0-2 are connectable, 3 and 4 sit behind NAT; all start offline.
struct Fixture : ::testing::Test {
  Fixture() : overlay(engine, Rng(1), {true, true, true, false, false}) {}

  void go_online(std::initializer_list<PeerId> ids) {
    for (PeerId id : ids) overlay.set_online(id, true);
  }

  bool send(PeerId from, PeerId to, int value) {
    return overlay.schedule_delivery(from, to, [this, from, to, value] {
      received.push_back({to, from, value, engine.now()});
    });
  }

  struct Delivery {
    PeerId to;
    PeerId from;
    int value;
    Seconds at;
  };

  sim::Engine engine;
  Overlay overlay;
  std::vector<Delivery> received;
};

TEST_F(Fixture, DeliversAfterLatency) {
  go_online({1, 2});
  EXPECT_TRUE(send(1, 2, 42));
  EXPECT_TRUE(received.empty());  // not synchronous
  engine.run_until(1.0);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].to, 2u);
  EXPECT_EQ(received[0].from, 1u);
  EXPECT_EQ(received[0].value, 42);
  EXPECT_GT(received[0].at, 0.0);
}

TEST_F(Fixture, OfflineSenderDropsImmediately) {
  go_online({2});
  EXPECT_FALSE(send(1, 2, 1));
  EXPECT_FALSE(engine.next_event_time().has_value());  // nothing in flight
  engine.run_until(1.0);
  EXPECT_TRUE(received.empty());
}

TEST_F(Fixture, OfflineReceiverDropsImmediately) {
  go_online({1});
  EXPECT_FALSE(send(1, 2, 1));
  EXPECT_FALSE(engine.next_event_time().has_value());
}

TEST_F(Fixture, ReceiverGoingOfflineBeforeDeliveryDrops) {
  go_online({1, 2});
  EXPECT_TRUE(send(1, 2, 1));
  overlay.set_online(2, false);  // goes offline before the latency elapses
  engine.run_until(1.0);
  EXPECT_TRUE(received.empty());
}

TEST_F(Fixture, TwoNatedPeersCannotCommunicate) {
  go_online({3, 4});
  EXPECT_FALSE(overlay.can_communicate(3, 4));
  EXPECT_FALSE(send(3, 4, 1));
  EXPECT_FALSE(engine.next_event_time().has_value());
}

TEST_F(Fixture, OneConnectableSideSuffices) {
  go_online({3, 2});
  EXPECT_TRUE(overlay.can_communicate(3, 2));
  EXPECT_TRUE(overlay.can_communicate(2, 3));
}

TEST_F(Fixture, NoSelfCommunication) {
  go_online({1});
  EXPECT_FALSE(overlay.can_communicate(1, 1));
  EXPECT_FALSE(send(1, 1, 1));
}

TEST_F(Fixture, OfflinePeerNotCommunicable) {
  go_online({1});
  EXPECT_FALSE(overlay.can_communicate(1, 2));
  overlay.set_online(2, true);
  EXPECT_TRUE(overlay.can_communicate(1, 2));
}

TEST_F(Fixture, UnregisteredPeerQueries) {
  // Ids outside the overlay are neither online nor connectable.
  EXPECT_FALSE(overlay.online(9));
  EXPECT_FALSE(overlay.connectable(9));
  EXPECT_TRUE(overlay.connectable(2));
  EXPECT_FALSE(overlay.connectable(3));
}

TEST_F(Fixture, LatencyWithinConfiguredBounds) {
  go_online({1, 2});
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(send(1, 2, i));
  engine.run_until(0.25);  // default LatencyModel max, inclusive
  EXPECT_EQ(received.size(), 20u);
  for (const Delivery& d : received) EXPECT_GE(d.at, 0.02);  // default min
}

TEST_F(Fixture, ManyMessagesAllCounted) {
  go_online({1, 2, 3});
  EXPECT_TRUE(send(1, 2, 1));
  EXPECT_TRUE(send(2, 3, 2));
  EXPECT_TRUE(send(3, 1, 3));
  engine.run_until(1.0);
  EXPECT_EQ(received.size(), 3u);
}

TEST(OverlayDeathTest, SetOnlineUnknownPeerRejected) {
  sim::Engine engine;
  Overlay overlay(engine, Rng(1), {true, false});
  EXPECT_DEATH(overlay.set_online(5, true), "unknown");
}

}  // namespace
}  // namespace bc::net
