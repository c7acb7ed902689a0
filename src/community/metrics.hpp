// Experiment outputs collected by the community simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/timeseries.hpp"
#include "util/units.hpp"

namespace bc::community {

/// Ground-truth and reputation outcomes for one trace peer.
struct PeerOutcome {
  PeerId peer = kInvalidPeer;
  /// Canonical name of the peer's assigned behavior (catalog name).
  std::string behavior = "sharer";
  /// Metrics class of that behavior (PeerBehavior::freerider()).
  bool freerider = false;
  Bytes total_uploaded = 0;    // real bytes, simulator ground truth
  Bytes total_downloaded = 0;
  /// Net contribution = total upload - total download (§5.2).
  Bytes net_contribution() const { return total_uploaded - total_downloaded; }
  /// System reputation at the end of the run: the average of the
  /// reputations the peer has at each of the other trace peers (Eq. 2).
  double final_system_reputation = 0.0;
  std::size_t files_requested = 0;
  std::size_t files_completed = 0;
  Seconds time_downloading = 0.0;  // online time spent with an active download
  /// Same accounting restricted to the second half of the run, where the
  /// policies have had time to act (the headline Figure 2/3 estimator).
  Bytes late_downloaded = 0;
  Seconds late_time_downloading = 0.0;
};

struct MessageStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t records_applied = 0;
  // Dropped records, by the integrity rule that rejected them (the
  // SharedHistory::ApplyStats reasons; see shared_history.hpp).
  std::uint64_t dropped_third_party = 0;  // record not involving its sender
  std::uint64_t dropped_own_edge = 0;     // gossip claim about our own edges
  std::uint64_t dropped_self_report = 0;  // record about (sender, sender)
  std::uint64_t gossip_exchanges = 0;

  std::uint64_t records_dropped() const {
    return dropped_third_party + dropped_own_edge + dropped_self_report;
  }
};

struct Metrics {
  Metrics(Seconds duration, Seconds bin);

  // Figure 1a: average system reputation per class over time.
  TimeSeries reputation_sharers;
  TimeSeries reputation_freeriders;

  // Figures 2-3: average download speed per class over time (bytes/s
  // samples; divide by 1024 for the paper's KBps axis).
  TimeSeries speed_sharers;
  TimeSeries speed_freeriders;

  /// One per trace peer, by peer id. Their final system reputations are
  /// the per-class distribution behind the Figure 1 class means
  /// (analysis::write_reputation_histogram_plot bins them).
  std::vector<PeerOutcome> outcomes;
  MessageStats messages;

  /// Pooled class download speed over the second half of the run:
  /// sum(bytes) / sum(active download time) across the class. Far more
  /// stable than time-bin means when few peers download concurrently.
  double late_class_speed(bool freeriders) const;

  Seconds duration = 0.0;
};

}  // namespace bc::community
