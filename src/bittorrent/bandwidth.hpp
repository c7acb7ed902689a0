// Access-link bandwidth model (paper §5.1: ADSL peers, 3 MBps downlink and
// 512 KBps uplink).
//
// Rates are allocated in two passes over all simultaneously active directed
// links (across *all* swarms — cross-swarm uplink contention is exactly the
// effect that makes seeding costly and freeriding initially attractive,
// §4 "the consumed upload bandwidth cannot be used to do tit-for-tat in
// other downloads"):
//   1. every uploader splits its uplink equally over its active links;
//   2. every downloader whose incoming sum exceeds its downlink scales its
//      incoming rates down proportionally.
// Uplink slack left by downlink-capped receivers is not redistributed; with
// the paper's asymmetric ADSL profile the receiver cap almost never binds,
// so the approximation is benign (and it keeps allocation O(links)).
// Every peer has the same access link, as in the paper's setup.
#pragma once

#include <span>
#include <vector>

#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::bt {

struct LinkRequest {
  PeerId uploader = kInvalidPeer;
  PeerId downloader = kInvalidPeer;
};

/// Access-link capacities of a peer; the defaults are the paper's ADSL link.
struct AccessProfile {
  Rate uplink = 512.0 * 1024.0;          // 512 KiB/s
  Rate downlink = 3.0 * 1024.0 * 1024.0;  // 3 MiB/s
};

/// Returns one rate per request, in request order, with every peer on the
/// access link `profile`.
std::vector<Rate> allocate_rates(std::span<const LinkRequest> links,
                                 const AccessProfile& profile);

}  // namespace bc::bt
