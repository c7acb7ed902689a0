#include "net/overlay.hpp"

#include "util/assert.hpp"

namespace bc::net {

Overlay::Overlay(sim::Engine& engine, Rng rng,
                 const std::vector<bool>& connectable, LatencyModel latency)
    : engine_(engine), rng_(rng), latency_(latency) {
  BC_ASSERT(latency_.min >= 0.0 && latency_.max >= latency_.min);
  peers_.reserve(connectable.size());
  for (const bool c : connectable) peers_.push_back(PeerFlags{c, false});
}

void Overlay::set_online(PeerId id, bool online) {
  BC_ASSERT_MSG(id < peers_.size(), "unknown peer");
  peers_[id].online = online;
}

}  // namespace bc::net
