#include "bartercast/node.hpp"

namespace bc::bartercast {

Node::Node(PeerId self, NodeConfig config)
    : self_(self),
      config_(config),
      history_(self),
      view_(self),
      cached_(view_, make_backend(config.backend, config.reputation)) {}

void Node::on_bytes_sent(PeerId remote, Bytes amount, Seconds now) {
  history_.record_upload(remote, amount, now);
  view_.record_local_upload(remote, amount);
}

void Node::on_bytes_received(PeerId remote, Bytes amount, Seconds now) {
  history_.record_download(remote, amount, now);
  view_.record_local_download(remote, amount);
}

void Node::on_peer_seen(PeerId remote, Seconds now) {
  history_.touch(remote, now);
}

BarterCastMessage Node::make_message(Seconds now) const {
  return build_message(history_, config_.selection, now);
}

SharedHistory::ApplyStats Node::receive_message(
    const BarterCastMessage& message) {
  return view_.apply_message(message);
}

}  // namespace bc::bartercast
