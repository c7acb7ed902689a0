#include "gossip/pss.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/assert.hpp"

namespace bc::gossip {

PeerSamplingService::PeerSamplingService(std::uint64_t seed,
                                         std::size_t num_peers)
    : rng_(seed), views_(num_peers) {}

const std::vector<PeerId>& PeerSamplingService::view(PeerId peer) const {
  BC_ASSERT_MSG(peer < views_.size(), "peer outside the population");
  return views_[peer];
}

std::vector<PeerId>& PeerSamplingService::view_of(PeerId peer) {
  BC_ASSERT_MSG(peer < views_.size(), "peer outside the population");
  return views_[peer];
}

void PeerSamplingService::bootstrap(PeerId peer,
                                    std::span<const PeerId> seeds) {
  merge_into(peer, seeds);
}

void PeerSamplingService::merge_into(PeerId owner,
                                     std::span<const PeerId> entries) {
  auto& view = view_of(owner);
  for (PeerId p : entries) {
    BC_ASSERT_MSG(p < views_.size(), "peer outside the population");
    if (p == owner) continue;
    if (std::find(view.begin(), view.end(), p) != view.end()) continue;
    if (view.size() < kViewSize) {
      view.push_back(p);
    } else {
      view[rng_.index(view.size())] = p;
    }
  }
}

PeerId PeerSamplingService::exchange(PeerId peer, const CanTalk& can_talk) {
  BC_OBS_SCOPE("gossip.exchange");
  static obs::Counter& exchanges =
      obs::Registry::instance().counter("gossip.exchanges");
  static obs::Counter& no_partner =
      obs::Registry::instance().counter("gossip.exchanges_no_partner");
  const auto& view = view_of(peer);
  if (view.empty()) {
    no_partner.inc();
    return kInvalidPeer;
  }

  // Try view members in random order until a reachable one is found.
  std::vector<PeerId> order = view;
  rng_.shuffle(order);
  const auto it = std::find_if(order.begin(), order.end(),
                               [&](PeerId p) { return can_talk(peer, p); });
  if (it == order.end()) {
    no_partner.inc();
    return kInvalidPeer;
  }
  const PeerId partner = *it;
  exchanges.inc();

  // Swap slices; both sides also learn about the other endpoint itself.
  std::vector<PeerId> mine = rng_.sample(view, kExchangeSize);
  mine.push_back(peer);
  std::vector<PeerId> theirs = rng_.sample(views_[partner], kExchangeSize);
  theirs.push_back(partner);
  merge_into(peer, theirs);
  merge_into(partner, mine);
  return partner;
}

}  // namespace bc::gossip
