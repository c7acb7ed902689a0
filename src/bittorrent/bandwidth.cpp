#include "bittorrent/bandwidth.hpp"

#include <unordered_map>

#include "util/assert.hpp"

namespace bc::bt {

std::vector<Rate> allocate_rates(std::span<const LinkRequest> links,
                                 const AccessProfile& profile) {
  BC_ASSERT(profile.uplink >= 0.0 && profile.downlink >= 0.0);
  std::vector<Rate> rates(links.size(), 0.0);
  if (links.empty()) return rates;

  // Pass 1: equal split of each uploader's uplink.
  std::unordered_map<PeerId, int> out_count;
  for (const auto& l : links) ++out_count[l.uploader];
  std::unordered_map<PeerId, Rate> in_sum;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto& l = links[i];
    BC_ASSERT(out_count[l.uploader] > 0);
    rates[i] = profile.uplink / out_count[l.uploader];
    in_sum[l.downloader] += rates[i];
  }

  // Pass 2: proportional scale-down at oversubscribed downlinks.
  std::unordered_map<PeerId, double> scale;
  // bc-analyze: allow(D1) -- writes one key-indexed entry per peer; no cross-iteration state, order-independent
  for (const auto& [peer, sum] : in_sum) {
    if (sum > profile.downlink && sum > 0.0) {
      scale[peer] = profile.downlink / sum;
    }
  }
  if (!scale.empty()) {
    for (std::size_t i = 0; i < links.size(); ++i) {
      auto it = scale.find(links[i].downloader);
      if (it != scale.end()) rates[i] *= it->second;
    }
  }
  return rates;
}

}  // namespace bc::bt
