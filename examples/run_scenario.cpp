// Tool: run an arbitrary community scenario from the command line.
//
// Everything the figure benches hard-code is exposed as a flag here, so a
// researcher can explore the parameter space (or replay a real trace CSV)
// without writing C++.
//
// Examples:
//   run_scenario --peers 60 --swarms 8 --days 3 --policy ban --delta -0.5
//   run_scenario --trace mytrace.csv --policy rank --liars 0.2
//   run_scenario --policy none --csv   # machine-readable output
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "analysis/experiment.hpp"
#include "community/simulator.hpp"
#include "trace/csv.hpp"
#include "trace/generator.hpp"
#include "util/flags.hpp"

using namespace bc;

namespace {

// Size bounds for a generated trace. Peak memory grows as peers^2: the
// reputation probe and the final tally evaluate every (evaluator, subject)
// pair through a per-pair cache entry, about 0.9 GB at 4,096 peers and
// 15 GB at 16,384. 65,536 swarms run in about a second; 2^20 swarms need
// more than 3 GB.
constexpr std::int64_t kMaxPeers = 4096;
constexpr std::int64_t kMaxSwarms = 65536;

const std::map<std::string, std::string> kFlags = {
    {"help", "print this help"},
    {"seed", "random seed (default 1)"},
    {"peers", "number of trace peers, at most 4096 (default 100)"},
    {"swarms", "number of swarms, at most 65536 (default 10)"},
    {"days", "trace duration in days, at most 365 (default 7)"},
    {"trace", "load a trace CSV instead of generating one"},
    {"save-trace", "write the generated trace to this CSV path"},
    {"policy", "none | rank | ban (default none)"},
    {"delta", "ban threshold (default -0.5)"},
    {"freeriders", "freerider fraction (default 0.5)"},
    {"ignorers", "fraction ignoring the message protocol (default 0)"},
    {"liars", "fraction lying about contributions (default 0)"},
    {"seed-hours", "sharer seeding duration in hours (default 10)"},
    {"population", "behavior spec overriding the fraction flags, e.g. "
                   "\"sharer:0.5,lazy:0.3,sybil:0.2\""},
    {"backend", "reputation backend: maxflow (default) or gossip"},
    {"csv", "emit CSV tables instead of aligned text"},
};

int fail_usage(const char* argv0) {
  std::fputs(Flags::usage(argv0, kFlags).c_str(), stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Flags::parse(argc, argv, kFlags);
  if (!parsed.has_value()) return fail_usage(argv[0]);
  Flags flags = std::move(*parsed);
  if (flags.get_bool("help", false)) return fail_usage(argv[0]);

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::int64_t peers = flags.get_int("peers", 100);
  const std::int64_t swarms = flags.get_int("swarms", 10);
  const double trace_days = flags.get_double("days", 7.0);

  // --- scenario ------------------------------------------------------
  community::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.freerider_fraction = flags.get_double("freeriders", 0.5);
  cfg.ignorer_fraction = flags.get_double("ignorers", 0.0);
  cfg.liar_fraction = flags.get_double("liars", 0.0);
  cfg.seed_duration = flags.get_double("seed-hours", 10.0) * kHour;
  const std::string policy = flags.get("policy", "none");
  if (policy == "none") {
    cfg.policy = bartercast::ReputationPolicy::none();
  } else if (policy == "rank") {
    cfg.policy = bartercast::ReputationPolicy::rank();
  } else if (policy == "ban") {
    // ReputationPolicy::ban asserts this range; a bad value (NaN too) gets
    // the usage instead.
    const double delta = flags.get_double("delta", -0.5);
    if (!(delta >= -1.0 && delta <= 0.0)) {
      std::fputs("--delta must be a reputation value in [-1, 0]\n", stderr);
      return fail_usage(argv[0]);
    }
    cfg.policy = bartercast::ReputationPolicy::ban(delta);
  } else {
    std::fprintf(stderr, "unknown policy '%s'\n", policy.c_str());
    return fail_usage(argv[0]);
  }
  cfg.population = flags.get("population", "");
  const std::string backend = flags.get("backend", "maxflow");
  const auto backend_kind = bartercast::parse_backend(backend);
  if (!backend_kind.has_value()) {
    std::fprintf(stderr, "unknown --backend '%s'\n", backend.c_str());
    return fail_usage(argv[0]);
  }
  cfg.node.backend = *backend_kind;
  if (!flags.valid()) return fail_usage(argv[0]);
  // Checked before the size casts below, which would turn a negative count
  // into about 2^64, and before the generator's own assertions; a trace
  // longer than trace::kMaxDuration would fail validation.
  if (peers < 1 || peers > kMaxPeers || swarms < 1 || swarms > kMaxSwarms ||
      !std::isfinite(trace_days) || trace_days <= 0.0 ||
      trace_days * kDay > trace::kMaxDuration) {
    std::fputs("--peers must be in [1, 4096], --swarms in [1, 65536], and "
               "--days finite, positive and at most 365\n",
               stderr);
    return fail_usage(argv[0]);
  }
  const std::string config_error = cfg.validate();
  if (!config_error.empty()) {
    std::fprintf(stderr, "bad scenario: %s\n", config_error.c_str());
    return 1;
  }

  // --- trace ---------------------------------------------------------
  trace::Trace tr;
  if (flags.has("trace")) {
    std::ifstream in(flags.get("trace", ""));
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", flags.get("trace", "").c_str());
      return 1;
    }
    std::string error;
    auto loaded = trace::read_csv(in, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "bad trace: %s\n", error.c_str());
      return 1;
    }
    tr = std::move(*loaded);
  } else {
    trace::GeneratorConfig tcfg;
    tcfg.seed = seed;
    tcfg.num_peers = static_cast<std::size_t>(peers);
    tcfg.num_swarms = static_cast<std::size_t>(swarms);
    tcfg.duration = trace_days * kDay;
    tr = trace::generate(tcfg);
  }
  if (flags.has("save-trace")) {
    const std::string path = flags.get("save-trace", "");
    std::ofstream out(path);
    trace::write_csv(tr, out);
    out.close();
    if (out.fail()) {
      std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
      return 1;
    }
  }

  // --- run -----------------------------------------------------------
  community::CommunitySimulator sim(std::move(tr), cfg);
  sim.run();
  const auto& m = sim.metrics();
  const bool csv = flags.get_bool("csv", false);
  auto emit = [&](const Table& t) {
    std::cout << (csv ? t.to_csv() : t.to_string());
  };

  std::printf("policy=%s peers=%zu swarms=%zu duration=%.1fd\n",
              cfg.policy.name().c_str(), sim.num_trace_peers(),
              sim.trace().files.size(), days(sim.trace().duration));

  std::printf("\nclass download speeds over time:\n");
  emit(analysis::speed_table(m, kDay));
  std::printf("\nsystem reputation over time:\n");
  emit(analysis::reputation_table(m, kDay));

  const double sharers = m.late_class_speed(false) / 1024.0;
  const double freeriders = m.late_class_speed(true) / 1024.0;
  std::printf("\nlate-window speeds: sharers %.0f KiB/s, freeriders %.0f "
              "KiB/s (ratio %.2f)\n",
              sharers, freeriders,
              sharers > 0.0 ? freeriders / sharers : 0.0);
  std::printf("reputation/contribution correlation: pearson %.3f, "
              "spearman %.3f\n",
              analysis::contribution_correlation(m),
              analysis::contribution_rank_correlation(m));
  std::printf("messages: %llu sent, %llu received, %llu records applied\n",
              static_cast<unsigned long long>(m.messages.messages_sent),
              static_cast<unsigned long long>(m.messages.messages_received),
              static_cast<unsigned long long>(m.messages.records_applied));
  return 0;
}
