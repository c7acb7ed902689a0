// Overlay message layer.
//
// Sits on top of the discrete-event engine and models the only network
// properties the paper's evaluation depends on: per-message latency, peer
// online/offline churn (from the trace) and connectability (NAT): a pair of
// peers can communicate only if both are online and at least one of them is
// connectable.
//
// A message is its delivery callback: the overlay decides whether it
// leaves, draws its latency and runs the callback then unless the receiver
// went offline meanwhile. It never sees the message's contents, so it stays
// independent of the protocols layered on it (gossip, BarterCast).
#pragma once

#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bc::net {

/// Uniform random latency in [min, max). Deterministic given the overlay rng.
struct LatencyModel {
  Seconds min = 0.02;
  Seconds max = 0.25;
};

class Overlay {
 public:
  /// Peers are 0 .. connectable.size()-1 and start offline.
  /// `connectable[p]` models p's NAT/firewall reachability and is fixed for
  /// the run (as in the trace schema).
  Overlay(sim::Engine& engine, Rng rng, const std::vector<bool>& connectable,
          LatencyModel latency = {});

  void set_online(PeerId id, bool online);
  /// False for ids outside the overlay, as is connectable().
  bool online(PeerId id) const {
    return id < peers_.size() && peers_[id].online;
  }
  bool connectable(PeerId id) const {
    return id < peers_.size() && peers_[id].connectable;
  }

  /// Two peers can exchange messages iff both are online and at least one
  /// is connectable (the connectable one accepts the connection).
  bool can_communicate(PeerId a, PeerId b) const {
    return a != b && online(a) && online(b) &&
           (connectable(a) || connectable(b));
  }

  /// Sends a message from `from` to `to`. If the pair can communicate, one
  /// latency draw places the delivery, and `deliver()` runs then if `to` is
  /// still online (otherwise the message is dropped). Returns whether the
  /// message left the sender. The engine stores `deliver` until then, so it
  /// must not capture the caller's locals by reference (bc-analyze L3).
  template <class Deliver>
  bool schedule_delivery(PeerId from, PeerId to, Deliver deliver) {
    if (!can_communicate(from, to)) return false;
    const Seconds delay = rng_.uniform(latency_.min, latency_.max);
    engine_.schedule_after(delay, [this, to, deliver = std::move(deliver)] {
      if (online(to)) deliver();
    });
    return true;
  }

 private:
  struct PeerFlags {
    bool connectable = false;
    bool online = false;
  };

  sim::Engine& engine_;
  Rng rng_;
  LatencyModel latency_;
  std::vector<PeerFlags> peers_;
};

}  // namespace bc::net
