#include "bartercast/service.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.hpp"

namespace bc::bartercast {
namespace {

/// Two services wired back-to-back through in-memory "datagrams".
struct Pair {
  struct Sent {
    PeerId from;
    PeerId to;
    std::vector<std::uint8_t> data;
  };

  Pair() {
    auto make = [this](PeerId self, PeerId partner) {
      ServiceConfig cfg;
      cfg.exchange_interval = 10.0;
      return std::make_unique<Service>(
          self, cfg,
          [this, self](PeerId to, std::vector<std::uint8_t> data) {
            wire.push_back({self, to, std::move(data)});
          },
          [partner] { return partner; });
    };
    a = make(1, 2);
    b = make(2, 1);
  }

  /// Delivers everything in flight (replies may generate more traffic;
  /// those stay queued for the next call).
  void deliver(Seconds now) {
    std::vector<Sent> batch;
    batch.swap(wire);
    for (auto& msg : batch) {
      Service& dst = msg.to == 1 ? *a : *b;
      dst.on_datagram(msg.from, msg.data, now);
    }
  }

  std::unique_ptr<Service> a;
  std::unique_ptr<Service> b;
  std::vector<Sent> wire;
};

TEST(Service, ExchangeRespectsInterval) {
  Pair pair;
  EXPECT_EQ(pair.a->on_exchange_tick(0.0), 2u);  // due immediately
  EXPECT_EQ(pair.a->on_exchange_tick(5.0), kInvalidPeer);  // not yet
  EXPECT_EQ(pair.a->on_exchange_tick(10.0), 2u);
  EXPECT_EQ(pair.a->stats().exchanges_initiated, 2u);
  EXPECT_EQ(pair.a->stats().messages_sent, 2u);
}

TEST(Service, FullExchangePropagatesKnowledge) {
  Pair pair;
  // b bartered with peer 7.
  pair.b->on_bytes_sent(7, 500 * kMiB, 1.0);
  pair.b->on_bytes_received(7, 100 * kMiB, 1.0);
  // a's direct anchor toward b.
  pair.a->on_bytes_received(2, kGiB, 2.0);

  pair.a->on_exchange_tick(10.0);  // a -> b
  pair.deliver(10.1);              // b receives, replies
  pair.deliver(10.2);              // a receives the reply

  EXPECT_EQ(pair.b->stats().messages_received, 1u);
  EXPECT_EQ(pair.a->stats().messages_received, 1u);
  // a learned about peer 7 through b's records: 7 uploaded 100 MiB to b and
  // b uploaded 1 GiB to a -> positive two-hop flow from 7.
  EXPECT_GT(pair.a->reputation(7), 0.0);
}

TEST(Service, RejectsGarbageDatagrams) {
  Pair pair;
  const std::vector<std::uint8_t> junk{1, 2, 3, 4};
  EXPECT_FALSE(pair.a->on_datagram(2, junk, 1.0));
  EXPECT_EQ(pair.a->stats().messages_rejected, 1u);
  EXPECT_EQ(pair.a->stats().messages_received, 0u);
  EXPECT_TRUE(pair.wire.empty());  // no reply to garbage
}

TEST(Service, RejectsDatagramsFromOwnOrInvalidId) {
  // A well-formed message claiming our own id (or kInvalidPeer) as sender
  // is dropped before decoding: marking ourselves seen used to trip the
  // history's owner assertion and abort the process.
  Pair pair;
  pair.b->on_bytes_sent(7, kMiB, 1.0);
  const auto data = encode(pair.b->node().make_message(1.0));
  const obs::Counter& rejected =
      obs::Registry::instance().counter("service.datagrams_rejected");
  const std::uint64_t before = rejected.value();
  EXPECT_FALSE(pair.a->on_datagram(pair.a->id(), data, 2.0));
  EXPECT_FALSE(pair.a->on_datagram(kInvalidPeer, data, 2.0));
  EXPECT_EQ(pair.a->stats().messages_rejected, 2u);
  EXPECT_EQ(pair.a->stats().messages_received, 0u);
  EXPECT_EQ(pair.a->stats().records_applied, 0u);
  EXPECT_EQ(rejected.value() - before, 2u);
  EXPECT_EQ(pair.a->node().history().size(), 0u);
  EXPECT_TRUE(pair.wire.empty());  // no reply
  // The same bytes from their real sender are accepted.
  EXPECT_TRUE(pair.a->on_datagram(2, data, 3.0));
  EXPECT_EQ(pair.a->stats().messages_received, 1u);
}

TEST(Service, DropsRecordsNamingInvalidPeer) {
  // A decodable datagram from sender 7 whose record names kInvalidPeer: the
  // datagram is accepted, the record is counted as dropped, and the view
  // gains no node for kInvalidPeer.
  Pair pair;
  BarterCastMessage msg;
  msg.sender = 7;
  msg.sent_at = 1.0;
  msg.records.push_back({kInvalidPeer, 7, 100, 50});
  EXPECT_TRUE(pair.a->on_datagram(7, encode(msg), 2.0));
  EXPECT_EQ(pair.a->stats().records_applied, 0u);
  EXPECT_EQ(pair.a->stats().records_dropped, 1u);
  const graph::FlowGraph& g = pair.a->node().view().graph();
  EXPECT_FALSE(g.has_node(kInvalidPeer));
  EXPECT_TRUE(g.check_invariants());
}

TEST(Service, NoReplyWhenDisabled) {
  Pair pair;
  pair.b->on_bytes_sent(7, kMiB, 1.0);
  const auto data = encode(pair.b->node().make_message(1.0));
  EXPECT_TRUE(pair.a->on_datagram(2, data, 2.0, /*reply=*/false));
  EXPECT_TRUE(pair.wire.empty());
}

TEST(Service, NoPartnerNoExchange) {
  ServiceConfig cfg;
  std::size_t sends = 0;
  Service s(
      9, cfg, [&](PeerId, std::vector<std::uint8_t>) { ++sends; },
      [] { return kInvalidPeer; });
  EXPECT_EQ(s.on_exchange_tick(0.0), kInvalidPeer);
  EXPECT_EQ(sends, 0u);
  // The interval still advances (no hot retry loop).
  EXPECT_GT(s.next_exchange_due(), 0.0);
}

TEST(Service, SnapshotRestoreRoundTrip) {
  Pair pair;
  pair.a->on_bytes_sent(5, 123456, 1.0);
  pair.a->on_bytes_received(6, 654321, 2.0);
  const std::string state = pair.a->snapshot();

  Pair fresh;
  std::string error;
  ASSERT_TRUE(fresh.a->restore(state, &error)) << error;
  EXPECT_EQ(fresh.a->node().history().uploaded_to(5), 123456);
  EXPECT_EQ(fresh.a->node().history().downloaded_from(6), 654321);
}

TEST(Service, RestoreRejectsForeignState) {
  Pair pair;
  const std::string state_of_b = pair.b->snapshot();
  std::string error;
  EXPECT_FALSE(pair.a->restore(state_of_b, &error));
  EXPECT_NE(error.find("identity"), std::string::npos);
  EXPECT_FALSE(pair.a->restore("garbage", &error));
}

TEST(Service, TransfersFlowIntoReputation) {
  Pair pair;
  pair.a->on_bytes_received(2, kGiB, 1.0);
  EXPECT_GT(pair.a->reputation(2), 0.0);
  pair.a->on_bytes_sent(2, 3 * kGiB, 2.0);
  EXPECT_LT(pair.a->reputation(2), 0.0);
}

}  // namespace
}  // namespace bc::bartercast
