// Post-processing helpers shared by the bench binaries: turning raw Metrics
// into the rows/series the paper's figures report.
#pragma once

#include <string>
#include <vector>

#include "community/metrics.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace bc::analysis {

/// One (net contribution, system reputation) point of Figure 1(b).
struct ContributionPoint {
  PeerId peer = kInvalidPeer;
  bool freerider = false;
  double net_contribution_gib = 0.0;
  double system_reputation = 0.0;
};

std::vector<ContributionPoint> contribution_points(
    const community::Metrics& metrics);

/// Pearson correlation between net contribution and system reputation —
/// the consistency claim behind Figure 1(b).
double contribution_correlation(const community::Metrics& metrics);

/// Spearman (rank) correlation of the same relationship; robust to the
/// arctan nonlinearity.
double contribution_rank_correlation(const community::Metrics& metrics);

/// Figure 1(a)-style table: per time bin, the mean system reputation of
/// sharers and freeriders. `time_unit` scales the time column (e.g. kDay).
Table reputation_table(const community::Metrics& metrics, Seconds time_unit);

/// Figures 2-3-style table: per time bin, the mean download speed (KiB/s)
/// of sharers and freeriders.
Table speed_table(const community::Metrics& metrics, Seconds time_unit);

}  // namespace bc::analysis
