// Epidemic Peer Sampling Service (paper §3.4).
//
// BarterCast assumes "that peers can discover other peers by using a Peer
// Sampling Service (PSS). The actual implementation of such a service is
// transparent to BarterCast" — Tribler uses the BuddyCast epidemic protocol.
// This is a BuddyCast-flavoured view-exchange PSS over a fixed population
// of peers 0..n-1: every peer keeps a view of at most kViewSize peer ids;
// an exchange merges a random slice of kExchangeSize entries of the
// partner's view into one's own (and vice versa), evicting random entries
// when the view overflows. Liveness/reachability is delegated to a caller-
// supplied predicate so the service composes with the overlay's
// online/connectability model without depending on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "util/ids.hpp"
#include "util/rng.hpp"

namespace bc::gossip {

class PeerSamplingService {
 public:
  static constexpr std::size_t kViewSize = 20;
  static constexpr std::size_t kExchangeSize = 8;  // entries per direction

  /// Returns true when `a` can currently exchange messages with `b`.
  using CanTalk = std::function<bool(PeerId a, PeerId b)>;

  /// Peers 0..num_peers-1, every view empty.
  PeerSamplingService(std::uint64_t seed, std::size_t num_peers);

  /// Seeds a peer's view (e.g. from a tracker or bootstrap list).
  void bootstrap(PeerId peer, std::span<const PeerId> seeds);

  /// One epidemic round initiated by `peer`: pick a reachable partner from
  /// its view, swap kExchangeSize random entries both ways. Returns the
  /// partner, or kInvalidPeer when no view member was reachable.
  PeerId exchange(PeerId peer, const CanTalk& can_talk);

  const std::vector<PeerId>& view(PeerId peer) const;
  std::size_t view_size(PeerId peer) const { return view(peer).size(); }

 private:
  std::vector<PeerId>& view_of(PeerId peer);
  /// Inserts entries, deduplicating and evicting random old entries to
  /// respect kViewSize. Never inserts the owner itself.
  void merge_into(PeerId owner, std::span<const PeerId> entries);

  Rng rng_;
  std::vector<std::vector<PeerId>> views_;  // indexed by PeerId
};

}  // namespace bc::gossip
