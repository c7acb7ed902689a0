#include "bartercast/service.hpp"

#include <utility>

#include "bartercast/persistence.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace bc::bartercast {

Service::Service(PeerId self, ServiceConfig config, SendFn send,
                 SamplePartnerFn sample_partner)
    : config_(config),
      node_(std::make_unique<Node>(self, config.node)),
      send_(std::move(send)),
      sample_partner_(std::move(sample_partner)) {
  BC_ASSERT(send_ != nullptr);
  BC_ASSERT(sample_partner_ != nullptr);
  BC_ASSERT(config_.exchange_interval > 0.0);
}

void Service::on_bytes_sent(PeerId remote, Bytes amount, Seconds now) {
  node_->on_bytes_sent(remote, amount, now);
}

void Service::on_bytes_received(PeerId remote, Bytes amount, Seconds now) {
  node_->on_bytes_received(remote, amount, now);
}

void Service::send_message(PeerId to, Seconds now) {
  send_(to, encode(node_->make_message(now)));
  ++stats_.messages_sent;
}

PeerId Service::on_exchange_tick(Seconds now) {
  BC_OBS_SCOPE("service.exchange_tick");
  if (now < next_exchange_) return kInvalidPeer;
  next_exchange_ = now + config_.exchange_interval;
  const PeerId partner = sample_partner_();
  if (partner == kInvalidPeer || partner == node_->id()) return kInvalidPeer;
  ++stats_.exchanges_initiated;
  node_->on_peer_seen(partner, now);
  send_message(partner, now);
  return partner;
}

bool Service::on_datagram(PeerId from, std::span<const std::uint8_t> data,
                          Seconds now, bool reply) {
  BC_OBS_SCOPE("service.on_datagram");
  static obs::Counter& rejected =
      obs::Registry::instance().counter("service.datagrams_rejected");
  // The node keeps no history entry for itself and kInvalidPeer names no
  // one, so a datagram claiming either sender is dropped undecoded.
  const bool valid_sender = from != node_->id() && from != kInvalidPeer;
  const auto message =
      valid_sender ? decode(data) : std::optional<BarterCastMessage>{};
  if (!message.has_value()) {
    ++stats_.messages_rejected;
    rejected.inc();
    BC_LOG_TAG(LogLevel::Debug, "bartercast",
               "dropped %s datagram from peer %u (%zu bytes)",
               valid_sender ? "undecodable" : "wrong-sender",
               from, data.size());
    return false;
  }
  ++stats_.messages_received;
  const auto applied = node_->receive_message(*message);
  stats_.records_applied += applied.applied;
  stats_.records_dropped += applied.dropped_third_party +
                            applied.dropped_own_edge +
                            applied.dropped_self_report;
  node_->on_peer_seen(from, now);
  if (reply) send_message(from, now);
  return true;
}

std::string Service::snapshot() const {
  return save_node_to_string(*node_);
}

bool Service::restore(const std::string& state, std::string* error) {
  auto loaded = load_node_from_string(state, config_.node, error);
  if (loaded == nullptr) return false;
  if (loaded->id() != node_->id()) {
    if (error != nullptr) *error = "state file belongs to another identity";
    return false;
  }
  node_ = std::move(loaded);
  return true;
}

}  // namespace bc::bartercast
