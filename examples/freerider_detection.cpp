// Example: detecting lazy freeriders in a community.
//
// Runs a one-day community with no penalty policy and shows how each peer's
// BarterCast reputation separates the classes — the mechanism the paper's
// Figure 1 demonstrates — including the ROC-style detection quality a
// downstream integrator would care about: if you banned the bottom-k peers
// by reputation, how many would actually be freeriders?
//
// Build & run:  ./build/examples/freerider_detection
#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/experiment.hpp"
#include "community/simulator.hpp"
#include "trace/generator.hpp"

using namespace bc;

int main() {
  trace::GeneratorConfig tcfg;
  tcfg.seed = 99;
  tcfg.num_peers = 40;
  tcfg.num_swarms = 5;
  tcfg.duration = 2.0 * kDay;
  tcfg.file_size_max = mib(800);

  community::ScenarioConfig cfg;
  cfg.seed = 99;
  cfg.policy = bartercast::ReputationPolicy::none();  // observe only

  community::CommunitySimulator sim(trace::generate(tcfg), cfg);
  sim.run();
  const auto& m = sim.metrics();

  // Rank peers by final system reputation, worst first.
  auto points = analysis::contribution_points(m);
  std::sort(points.begin(), points.end(),
            [](const auto& a, const auto& b) {
              return a.system_reputation < b.system_reputation;
            });

  std::printf("peers ranked by BarterCast system reputation (worst first):\n");
  Table t({"rank", "peer", "reputation", "net_GiB", "actually"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    t.add_row({std::to_string(i + 1), std::to_string(points[i].peer),
               fmt(points[i].system_reputation, 4),
               fmt(points[i].net_contribution_gib, 2),
               points[i].freerider ? "freerider" : "sharer"});
  }
  std::printf("%s", t.to_string().c_str());

  // Detection quality at each cutoff.
  std::size_t total_freeriders = 0;
  for (const auto& p : points) total_freeriders += p.freerider ? 1u : 0u;
  std::printf("\ndetection quality (ban bottom-k by reputation):\n");
  Table q({"k", "freeriders_caught", "precision", "recall"});
  for (std::size_t k : {5ul, 10ul, 15ul, 20ul}) {
    std::size_t caught = 0;
    for (std::size_t i = 0; i < k && i < points.size(); ++i) {
      caught += points[i].freerider ? 1u : 0u;
    }
    const double kd = static_cast<double>(k);
    const double precision = static_cast<double>(caught) / kd;
    const double fr = static_cast<double>(total_freeriders);
    const double recall = static_cast<double>(caught) / fr;
    q.add_row({std::to_string(k), std::to_string(caught), fmt(precision, 2),
               fmt(recall, 2)});
  }
  std::printf("%s", q.to_string().c_str());
  std::printf("\ncorrelation(reputation, net contribution): %.3f\n",
              analysis::contribution_correlation(m));
  return 0;
}
