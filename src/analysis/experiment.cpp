#include "analysis/experiment.hpp"

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace bc::analysis {

std::vector<ContributionPoint> contribution_points(
    const community::Metrics& metrics) {
  std::vector<ContributionPoint> out;
  out.reserve(metrics.outcomes.size());
  for (const auto& o : metrics.outcomes) {
    ContributionPoint p;
    p.peer = o.peer;
    p.freerider = o.freerider;
    p.net_contribution_gib = to_gib(o.net_contribution());
    p.system_reputation = o.final_system_reputation;
    out.push_back(p);
  }
  return out;
}

namespace {

std::pair<std::vector<double>, std::vector<double>> xy(
    const community::Metrics& metrics) {
  std::vector<double> x, y;
  x.reserve(metrics.outcomes.size());
  y.reserve(metrics.outcomes.size());
  for (const auto& o : metrics.outcomes) {
    x.push_back(to_gib(o.net_contribution()));
    y.push_back(o.final_system_reputation);
  }
  return {std::move(x), std::move(y)};
}

}  // namespace

double contribution_correlation(const community::Metrics& metrics) {
  const auto [x, y] = xy(metrics);
  return pearson(x, y);
}

double contribution_rank_correlation(const community::Metrics& metrics) {
  const auto [x, y] = xy(metrics);
  return spearman(x, y);
}

Table reputation_table(const community::Metrics& metrics, Seconds time_unit) {
  BC_ASSERT(time_unit > 0.0);
  Table t({"time", "sharers", "freeriders"});
  const auto& s = metrics.reputation_sharers;
  const auto& f = metrics.reputation_freeriders;
  for (std::size_t i = 0; i < s.num_bins(); ++i) {
    if (s.bin_count(i) == 0 && f.bin_count(i) == 0) continue;
    t.add_row({fmt(s.bin_center(i) / time_unit, 2), fmt(s.bin_mean(i), 4),
               fmt(f.bin_mean(i), 4)});
  }
  return t;
}

Table speed_table(const community::Metrics& metrics, Seconds time_unit) {
  BC_ASSERT(time_unit > 0.0);
  Table t({"time", "sharers_KiBps", "freeriders_KiBps"});
  const auto& s = metrics.speed_sharers;
  const auto& f = metrics.speed_freeriders;
  for (std::size_t i = 0; i < s.num_bins(); ++i) {
    if (s.bin_count(i) == 0 && f.bin_count(i) == 0) continue;
    t.add_row({fmt(s.bin_center(i) / time_unit, 2),
               fmt(s.bin_mean(i) / 1024.0, 1), fmt(f.bin_mean(i) / 1024.0, 1)});
  }
  return t;
}

}  // namespace bc::analysis
