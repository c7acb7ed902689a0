// Gnuplot emission: turns experiment metrics into .dat/.gp file pairs so
// the paper's figures can be rendered exactly (`gnuplot figN.gp`). The
// benches print tables for the terminal; this module exists for people who
// want the actual plots.
#pragma once

#include <string>

#include "community/metrics.hpp"
#include "util/histogram.hpp"

namespace bc::analysis {

/// Figure 1(a)-style plot: per-class system reputation over time.
/// Writes `<stem>.dat` and `<stem>.gp` into `directory`. Returns the path
/// of the .gp file. Throws nothing; reports I/O failure via empty string.
std::string write_reputation_plot(const community::Metrics& metrics,
                                  const std::string& directory,
                                  const std::string& stem);

/// Figure 1(b)-style scatter: net contribution vs system reputation.
std::string write_scatter_plot(const community::Metrics& metrics,
                               const std::string& directory,
                               const std::string& stem);

/// Figure 2-style plot: per-class download speed (KiB/s) over time.
std::string write_speed_plot(const community::Metrics& metrics,
                             const std::string& directory,
                             const std::string& stem);

/// End-of-run final-reputation distribution per class: the outcomes'
/// final system reputations in 40 buckets of width 0.05 over (-1, 1] —
/// distributions, not just the time-series means of Figure 1(a).
std::string write_reputation_histogram_plot(const community::Metrics& metrics,
                                            const std::string& directory,
                                            const std::string& stem);

/// Figure 4(b)-style plot: a CDF curve.
std::string write_cdf_plot(std::span<const CdfPoint> cdf,
                           const std::string& directory,
                           const std::string& stem,
                           const std::string& x_label);

}  // namespace bc::analysis
