// BarterCast client service: the integration layer a deployed P2P client
// embeds.
//
// Where `Node` is the pure in-memory mechanism, `Service` packages the
// operational concerns around it:
//   * wire I/O  — outgoing messages are encoded, incoming datagrams are
//     decoded and validated before they touch the node;
//   * exchange scheduling — next_exchange_due()/on_exchange_tick() drive
//     the periodic BarterCast exchange against a caller-supplied partner
//     sampler (the PSS in Tribler);
//   * persistence — snapshot()/restore() wrap the state file format;
//   * statistics — a deployed client wants counters for its debug panel.
//
// The service is transport-agnostic: the client supplies a send callback
// and feeds received datagrams in; nothing here blocks or owns sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bartercast/codec.hpp"
#include "bartercast/node.hpp"

namespace bc::bartercast {

struct ServiceConfig {
  NodeConfig node;
  /// Period between initiated exchanges (Tribler's BuddyCast piggybacks
  /// BarterCast roughly at this cadence).
  Seconds exchange_interval = 60.0;
};

class Service {
 public:
  /// `send` delivers an encoded message to a peer; it must not reenter the
  /// service. `sample_partner` returns the next exchange partner, or
  /// kInvalidPeer when none is known (e.g. the PSS view is empty).
  using SendFn = std::function<void(PeerId to, std::vector<std::uint8_t>)>;
  using SamplePartnerFn = std::function<PeerId()>;

  struct Stats {
    std::uint64_t exchanges_initiated = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    // Undecodable datagrams, and datagrams from our own id or kInvalidPeer.
    std::uint64_t messages_rejected = 0;
    std::uint64_t records_applied = 0;
    std::uint64_t records_dropped = 0;
  };

  Service(PeerId self, ServiceConfig config, SendFn send,
          SamplePartnerFn sample_partner);

  PeerId id() const { return node_->id(); }
  Node& node() { return *node_; }
  const Node& node() const { return *node_; }
  const Stats& stats() const { return stats_; }

  /// Transfer notifications from the client's transport layer.
  void on_bytes_sent(PeerId remote, Bytes amount, Seconds now);
  void on_bytes_received(PeerId remote, Bytes amount, Seconds now);

  /// When the next exchange should run (absolute time).
  Seconds next_exchange_due() const { return next_exchange_; }

  /// Runs an exchange if one is due: samples a partner and sends it our
  /// message. Returns the partner contacted, or kInvalidPeer when nothing
  /// was due / no partner was available.
  PeerId on_exchange_tick(Seconds now);

  /// Feeds a received datagram in. A datagram whose `from` is our own id
  /// or kInvalidPeer, or that does not decode, is counted in
  /// messages_rejected and dropped without a reply. A valid message is
  /// merged and — when `reply` is true — answered with our own message (the
  /// bidirectional exchange). Returns true when the datagram was accepted.
  bool on_datagram(PeerId from, std::span<const std::uint8_t> data,
                   Seconds now, bool reply = true);

  /// Reputation of `subject` per Equation 1 on the current view.
  double reputation(PeerId subject) { return node_->reputation(subject); }

  /// The node's reputation cache, exposed for debug panels and tests
  /// (hit/miss tallies, incremental-invalidation mode).
  const CachedReputation& reputation_cache() const {
    return node_->reputation_cache();
  }

  /// Persistence (see persistence.hpp for the format).
  std::string snapshot() const;
  /// Replaces the service's node with a restored one. Returns false (and
  /// leaves the current state untouched) on malformed input or an identity
  /// mismatch.
  bool restore(const std::string& state, std::string* error = nullptr);

 private:
  void send_message(PeerId to, Seconds now);

  ServiceConfig config_;
  // Owned indirectly so restore() can swap in a reloaded node (Node holds
  // internal references and is deliberately not assignable).
  std::unique_ptr<Node> node_;
  SendFn send_;
  SamplePartnerFn sample_partner_;
  Seconds next_exchange_ = 0.0;
  Stats stats_;
};

}  // namespace bc::bartercast
