// Figure 1 reproduction.
//
// (a) Average system reputation of sharers vs freeriders over the one-week
//     simulation — the paper shows the classes diverging within days.
// (b) Scatter of final system reputation vs real net contribution — the
//     paper shows a consistent, monotone (arctan-shaped) relationship.
//
// No penalty policy is active (as in the paper's §5.2 measurement): the
// figure isolates the reputation mechanism itself.
#include <cstdio>
#include <iostream>

#include <filesystem>

#include "analysis/experiment.hpp"
#include "analysis/plot.hpp"
#include "figure_common.hpp"

using namespace bc;

int main() {
  bench::print_header("Figure 1", "system reputation vs real behaviour");

  community::ScenarioConfig cfg = bench::paper_scenario(33);
  cfg.policy = bartercast::ReputationPolicy::none();
  community::CommunitySimulator sim(trace::generate(bench::paper_trace(33)),
                                    cfg, bench::metrics_stream());
  sim.run();
  const auto& m = sim.metrics();

  std::printf("\n(a) average system reputation over time (days):\n");
  std::cout << analysis::reputation_table(m, kDay).to_string();

  std::printf("\n(b) per-peer scatter: net contribution (GiB) vs system "
              "reputation:\n");
  Table scatter({"peer", "class", "net_GiB", "reputation"});
  for (const auto& p : analysis::contribution_points(m)) {
    scatter.add_row({std::to_string(p.peer),
                     p.freerider ? "freerider" : "sharer",
                     fmt(p.net_contribution_gib, 3),
                     fmt(p.system_reputation, 4)});
  }
  std::cout << scatter.to_string();

  const double pearson = analysis::contribution_correlation(m);
  const double spearman = analysis::contribution_rank_correlation(m);
  std::printf("\nconsistency: pearson=%.3f spearman=%.3f "
              "(paper: 'clearly consistent')\n",
              pearson, spearman);

  // Class means at the end of the run, the divergence headline.
  const auto& rs = m.reputation_sharers;
  const auto& rf = m.reputation_freeriders;
  double last_s = 0.0, last_f = 0.0;
  for (std::size_t i = 0; i < rs.num_bins(); ++i) {
    if (rs.bin_count(i) > 0) last_s = rs.bin_mean(i);
    if (rf.bin_count(i) > 0) last_f = rf.bin_mean(i);
  }
  std::printf("final class means: sharers=%.4f freeriders=%.4f "
              "(paper Fig 1a: ~+0.10 / ~-0.12 at day 7)\n",
              last_s, last_f);

  // Emit gnuplot inputs so the actual figures can be rendered.
  std::filesystem::create_directories("bench_plots");
  const auto gp_a = analysis::write_reputation_plot(m, "bench_plots", "fig1a");
  const auto gp_b = analysis::write_scatter_plot(m, "bench_plots", "fig1b");
  const auto gp_c =
      analysis::write_reputation_histogram_plot(m, "bench_plots", "fig1c");
  if (!gp_a.empty() && !gp_b.empty() && !gp_c.empty()) {
    std::printf("gnuplot scripts: %s %s %s\n", gp_a.c_str(), gp_b.c_str(),
                gp_c.c_str());
  }
  return last_s > last_f ? 0 : 1;
}
