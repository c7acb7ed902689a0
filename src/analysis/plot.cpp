#include "analysis/plot.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>

#include "util/units.hpp"

namespace bc::analysis {

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return out.good();
}

std::string two_series_dat(const TimeSeries& a, const TimeSeries& b,
                           double scale) {
  std::string dat = "# time_days series_a series_b\n";
  for (std::size_t i = 0; i < a.num_bins(); ++i) {
    if (a.bin_count(i) == 0 && b.bin_count(i) == 0) continue;
    dat += std::to_string(a.bin_center(i) / kDay) + ' ' +
           std::to_string(a.bin_mean(i) * scale) + ' ' +
           std::to_string(b.bin_mean(i) * scale) + '\n';
  }
  return dat;
}

std::string two_series_gp(const std::string& stem, const std::string& title,
                          const std::string& ylabel) {
  return "set terminal pngcairo size 800,500\n"
         "set output '" + stem + ".png'\n"
         "set title '" + title + "'\n"
         "set xlabel 'time (days)'\n"
         "set ylabel '" + ylabel + "'\n"
         "set key top left\n"
         "plot '" + stem + ".dat' using 1:2 with lines lw 2 title "
         "'sharers', '" + stem + ".dat' using 1:3 with lines lw 2 title "
         "'freeriders'\n";
}

std::string emit(const std::string& directory, const std::string& stem,
                 const std::string& dat, const std::string& gp) {
  const std::string base = directory + "/" + stem;
  if (!write_file(base + ".dat", dat)) return "";
  if (!write_file(base + ".gp", gp)) return "";
  return base + ".gp";
}

}  // namespace

std::string write_reputation_plot(const community::Metrics& metrics,
                                  const std::string& directory,
                                  const std::string& stem) {
  return emit(directory, stem,
              two_series_dat(metrics.reputation_sharers,
                             metrics.reputation_freeriders, 1.0),
              two_series_gp(stem, "average system reputation",
                            "system reputation"));
}

std::string write_speed_plot(const community::Metrics& metrics,
                             const std::string& directory,
                             const std::string& stem) {
  return emit(directory, stem,
              two_series_dat(metrics.speed_sharers,
                             metrics.speed_freeriders, 1.0 / 1024.0),
              two_series_gp(stem, "average download speed",
                            "download speed (KiB/s)"));
}

std::string write_scatter_plot(const community::Metrics& metrics,
                               const std::string& directory,
                               const std::string& stem) {
  std::string dat = "# net_contribution_gib reputation class\n";
  for (const auto& o : metrics.outcomes) {
    dat += std::to_string(to_gib(o.net_contribution())) + ' ' +
           std::to_string(o.final_system_reputation) + ' ' +
           (o.freerider ? "1" : "0") + '\n';
  }
  const std::string gp =
      "set terminal pngcairo size 800,500\n"
      "set output '" + stem + ".png'\n"
      "set title 'system reputation vs net contribution'\n"
      "set xlabel 'net contribution (GiB)'\n"
      "set ylabel 'system reputation'\n"
      "plot '" + stem + ".dat' using 1:($3==0?$2:1/0) with points pt 7 "
      "title 'sharers', '" + stem + ".dat' using 1:($3==1?$2:1/0) with "
      "points pt 5 title 'freeriders'\n";
  return emit(directory, stem, dat, gp);
}

std::string write_reputation_histogram_plot(const community::Metrics& metrics,
                                            const std::string& directory,
                                            const std::string& stem) {
  // 40 buckets of width 0.05 across the metric's (-1, 1] range. A value
  // lands in the first bucket whose upper edge satisfies v <= edge; the top
  // edge is exactly 1.0 (accumulated widths would land just below it), and
  // a value above it is not plotted.
  constexpr std::size_t kBuckets = 40;
  const double width = 2.0 / static_cast<double>(kBuckets);
  std::array<double, kBuckets> edges{};
  for (std::size_t i = 0; i + 1 < kBuckets; ++i) {
    edges[i] = -1.0 + width * static_cast<double>(i + 1);
  }
  edges[kBuckets - 1] = 1.0;
  std::array<std::uint64_t, kBuckets> sharers{};
  std::array<std::uint64_t, kBuckets> freeriders{};
  for (const auto& o : metrics.outcomes) {
    const auto it = std::lower_bound(edges.begin(), edges.end(),
                                     o.final_system_reputation);
    if (it == edges.end()) continue;
    auto& counts = o.freerider ? freeriders : sharers;
    ++counts[static_cast<std::size_t>(it - edges.begin())];
  }
  std::string dat = "# bucket_upper_edge sharers_count freeriders_count\n";
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (sharers[i] == 0 && freeriders[i] == 0) continue;
    dat += std::to_string(edges[i]) + ' ' + std::to_string(sharers[i]) + ' ' +
           std::to_string(freeriders[i]) + '\n';
  }
  const std::string gp =
      "set terminal pngcairo size 800,500\n"
      "set output '" + stem + ".png'\n"
      "set title 'final system reputation distribution'\n"
      "set xlabel 'system reputation'\n"
      "set ylabel 'peers'\n"
      "set style fill transparent solid 0.5\n"
      "set boxwidth 0.04\n"
      "plot '" + stem + ".dat' using 1:2 with boxes title 'sharers', '" +
      stem + ".dat' using 1:3 with boxes title 'freeriders'\n";
  return emit(directory, stem, dat, gp);
}

std::string write_cdf_plot(std::span<const CdfPoint> cdf,
                           const std::string& directory,
                           const std::string& stem,
                           const std::string& x_label) {
  std::string dat = "# value fraction\n";
  for (const auto& p : cdf) {
    dat += std::to_string(p.value) + ' ' + std::to_string(p.fraction) + '\n';
  }
  const std::string gp =
      "set terminal pngcairo size 800,500\n"
      "set output '" + stem + ".png'\n"
      "set title 'cumulative distribution'\n"
      "set xlabel '" + x_label + "'\n"
      "set ylabel 'cdf'\n"
      "set yrange [0:1]\n"
      "plot '" + stem + ".dat' using 1:2 with steps lw 2 notitle\n";
  return emit(directory, stem, dat, gp);
}

}  // namespace bc::analysis
