// Adversary zoo: every catalog attack archetype against every
// reputation-aggregation backend.
//
// §5.4 studies two manipulations (ignoring and lying); §6 leaves "die-hard
// cheating and malicious behaviour" as future work. This ablation runs the
// extended behavior catalog — sybil-region (bounded mutual promotion),
// slanderer (fabricated counter-claims against benefactors),
// strategic-uploader (minimal seeding to stay above the ban bar), and
// mobile-churner (duty-cycled uptime, an honest-but-flaky baseline) —
// under both the paper's maxflow metric and the differential-gossip
// averaging backend, in one process.
//
// Per {adversary x backend} cell the community is 50% sharers, 25% lazy
// freeriders, 25% attackers, ban(-0.5) policy, and the bench reports:
//   * reputation_gap    mean final system reputation of sharers minus
//                       freerider-class peers (metric health: > 0 means
//                       the metric still separates the classes)
//   * false_ban_rate    fraction of plain sharers ending below the ban
//                       threshold (collateral damage of the attack)
//   * attacker_benefit  attacker cohort's mean reputation minus the lazy
//                       cohort's (what the strategy buys over naive
//                       freeriding)
//
// Results go to BENCH_adversary.json (override with BC_BENCH_OUT).
// PASS requires the maxflow backend to keep reputation_gap > 0 under
// every adversary — the paper's containment claim; the gossip rows are
// the contrast that motivates maxflow. BC_QUICK=1 reduces the scale.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "figure_common.hpp"
#include "util/table.hpp"

using namespace bc;

namespace {

struct Cell {
  std::string adversary;
  std::string backend;
  double sharer_mean = 0.0;
  double freerider_mean = 0.0;
  double reputation_gap = 0.0;
  double false_ban_rate = 0.0;
  double attacker_mean = 0.0;
  double lazy_mean = 0.0;
  double attacker_benefit = 0.0;
};

constexpr double kBanDelta = -0.5;

Cell run_cell(const std::string& adversary, bartercast::BackendKind backend) {
  auto tcfg = bench::paper_trace(404);
  community::ScenarioConfig cfg = bench::paper_scenario(404);
  cfg.policy = bartercast::ReputationPolicy::ban(kBanDelta);
  cfg.population =
      "sharer:0.5,lazy-freerider:0.25," + adversary + ":0.25";
  cfg.node.backend = backend;

  community::CommunitySimulator sim(trace::generate(tcfg), cfg,
                                    bench::metrics_stream());
  sim.run();
  const auto& m = sim.metrics();

  Cell cell;
  cell.adversary = adversary;
  cell.backend = std::string(bartercast::backend_name(backend));
  double sharer_sum = 0.0, freerider_sum = 0.0;
  double attacker_sum = 0.0, lazy_sum = 0.0;
  std::size_t sharers = 0, freeriders = 0, attackers = 0, lazies = 0;
  std::size_t plain_sharers = 0, false_bans = 0;
  for (const auto& o : m.outcomes) {
    if (o.freerider) {
      freerider_sum += o.final_system_reputation;
      ++freeriders;
    } else {
      sharer_sum += o.final_system_reputation;
      ++sharers;
    }
    if (o.behavior == "sharer") {
      ++plain_sharers;
      if (o.final_system_reputation < kBanDelta) ++false_bans;
    }
    if (o.behavior == adversary) {
      attacker_sum += o.final_system_reputation;
      ++attackers;
    }
    if (o.behavior == "lazy-freerider") {
      lazy_sum += o.final_system_reputation;
      ++lazies;
    }
  }
  // Every reputation is in [-1, 1] (arctan normalization), so each class
  // mean is too; the clamp states that invariant on the summed path.
  if (sharers > 0) {
    cell.sharer_mean =
        std::clamp(sharer_sum / static_cast<double>(sharers), -1.0, 1.0);
  }
  if (freeriders > 0) {
    cell.freerider_mean = std::clamp(
        freerider_sum / static_cast<double>(freeriders), -1.0, 1.0);
  }
  cell.reputation_gap = cell.sharer_mean - cell.freerider_mean;
  if (plain_sharers > 0) {
    cell.false_ban_rate =
        static_cast<double>(false_bans) / static_cast<double>(plain_sharers);
  }
  if (attackers > 0) {
    cell.attacker_mean = std::clamp(
        attacker_sum / static_cast<double>(attackers), -1.0, 1.0);
  }
  if (lazies > 0) {
    cell.lazy_mean =
        std::clamp(lazy_sum / static_cast<double>(lazies), -1.0, 1.0);
  }
  cell.attacker_benefit = cell.attacker_mean - cell.lazy_mean;
  return cell;
}

void append_json(std::string& json, const Cell& c, bool last) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"adversary\": \"%s\", \"backend\": \"%s\","
      " \"sharer_mean\": %.6f, \"freerider_mean\": %.6f,"
      " \"reputation_gap\": %.6f, \"false_ban_rate\": %.6f,"
      " \"attacker_mean\": %.6f, \"lazy_mean\": %.6f,"
      " \"attacker_benefit\": %.6f}%s\n",
      c.adversary.c_str(), c.backend.c_str(), c.sharer_mean,
      c.freerider_mean, c.reputation_gap, c.false_ban_rate, c.attacker_mean,
      c.lazy_mean, c.attacker_benefit, last ? "" : ",");
  json += buf;
}

}  // namespace

int main() {
  bench::print_header("Ablation — adversary zoo x aggregation backend",
                      "registry attacks vs maxflow and differential gossip");

  const std::vector<std::string> adversaries = {
      "sybil-region", "slanderer", "strategic-uploader", "mobile-churner"};
  const std::vector<bartercast::BackendKind> backends = {
      bartercast::BackendKind::kMaxflow,
      bartercast::BackendKind::kDifferentialGossip};

  Table t({"adversary", "backend", "rep_gap", "false_ban_rate",
           "attacker_benefit"});
  std::vector<Cell> cells;
  for (const auto& adversary : adversaries) {
    for (const auto backend : backends) {
      const Cell c = run_cell(adversary, backend);
      t.add_row({c.adversary, c.backend, fmt(c.reputation_gap, 3),
                 fmt(c.false_ban_rate, 3), fmt(c.attacker_benefit, 3)});
      cells.push_back(c);
    }
  }
  std::printf("%s", t.to_string().c_str());

  std::string json = "{\n  \"bench\": \"adversary\",\n";
  json += std::string("  \"mode\": \"") +
          (bench::quick_mode() ? "quick" : "paper") + "\",\n";
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    append_json(json, cells[i], i + 1 == cells.size());
  }
  json += "  ]\n}\n";
  const char* out_path = std::getenv("BC_BENCH_OUT");
  const std::string path =
      out_path != nullptr ? out_path : "BENCH_adversary.json";
  if (obs::write_text_file(path, json)) {
    std::printf("\nadversary bench JSON written to %s\n", path.c_str());
  }

  // The paper's containment claim: under every attack in the zoo the
  // maxflow metric must still rank the sharer class above the freerider
  // class on average. The gossip backend is allowed to fail this — that
  // contrast is the point of the ablation — so it carries no bar.
  bool pass = true;
  for (const Cell& c : cells) {
    if (c.backend == "maxflow" && !(c.reputation_gap > 0.0)) {
      std::printf("FAIL: maxflow reputation gap not positive under %s "
                  "(%.3f)\n", c.adversary.c_str(), c.reputation_gap);
      pass = false;
    }
  }
  std::printf("\nshape check (maxflow gap > 0 under every adversary): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
