// BarterCast node: the per-peer façade of the library.
//
// A Node owns one peer's private history, subjective shared history, and a
// cached reputation engine, and exposes the handful of operations an
// integrating P2P client needs:
//
//   on_bytes_sent / on_bytes_received  -- feed real transfers in
//   make_message                       -- produce the gossip message
//   receive_message                    -- merge a received message
//   reputation                         -- evaluate another peer (Eq. 1)
//
// See examples/quickstart.cpp for end-to-end usage.
#pragma once

#include "bartercast/backend.hpp"
#include "bartercast/history.hpp"
#include "bartercast/message.hpp"
#include "bartercast/reputation.hpp"
#include "bartercast/shared_history.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::bartercast {

struct NodeConfig {
  MessageSelection selection;   // Nh / Nr record selection
  ReputationConfig reputation;  // maxflow mode + arctan unit
  /// Which aggregation metric the node evaluates reputations with.
  BackendKind backend = BackendKind::kMaxflow;
};

class Node {
 public:
  explicit Node(PeerId self, NodeConfig config = {});

  PeerId id() const { return self_; }
  const NodeConfig& config() const { return config_; }

  /// The node uploaded `amount` bytes to `remote` (updates both the private
  /// history and the owner-incident edge of the subjective graph).
  void on_bytes_sent(PeerId remote, Bytes amount, Seconds now);
  /// The node downloaded `amount` bytes from `remote`.
  void on_bytes_received(PeerId remote, Bytes amount, Seconds now);
  /// The node interacted with `remote` without a transfer (affects the
  /// most-recently-seen selection).
  void on_peer_seen(PeerId remote, Seconds now);

  /// Honest BarterCast message from the current private history.
  BarterCastMessage make_message(Seconds now) const;

  /// Merges a received message into the subjective view.
  SharedHistory::ApplyStats receive_message(const BarterCastMessage& message);

  /// R_self(subject) per Equation 1, on the subjective view (cached).
  double reputation(PeerId subject) { return cached_.reputation(subject); }

  const PrivateHistory& history() const { return history_; }
  const SharedHistory& view() const { return view_; }
  /// Cache statistics for observability (see obs/metrics.hpp consumers).
  const CachedReputation& reputation_cache() const { return cached_; }

 private:
  PeerId self_;
  NodeConfig config_;
  PrivateHistory history_;
  SharedHistory view_;
  CachedReputation cached_;
};

}  // namespace bc::bartercast
