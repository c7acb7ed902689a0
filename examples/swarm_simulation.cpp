// Example: a small trace-driven community simulation.
//
// Generates a 2-day synthetic trace (30 peers, 4 swarms), runs the full
// stack (BitTorrent + PSS + BarterCast + ban policy) and prints the
// per-class download speeds and reputations over time.
//
// Build & run:  ./build/examples/swarm_simulation
//   --validate      turn on the bc::check invariant audits for the whole
//                   run (ledger conservation per round, Eq. 1 bounds at
//                   the end); any violation aborts with a report. Validate
//                   builds (-DBARTERCAST_VALIDATE=ON) audit by default.
//   --metrics-out=F write the obs metrics registry + profiling sites as
//                   JSON to F at end of run (implies --profile).
//   --metrics-csv=F write the counters and log-histogram buckets as CSV.
//   --trace-out=F   record a sim-time Chrome trace (engine events, gossip
//                   exchanges, choke rescans, counter tracks) and write it
//                   to F; open in chrome://tracing or ui.perfetto.dev.
//   --metrics-stream=F  append one NDJSON line of windowed metric deltas
//                   per snapshot interval of sim time to F (tail-able
//                   mid-run; see src/obs/stream.hpp for the schema).
//   --trace-ring=N  flight-recorder mode, with --trace-out: keep only the
//                   most recent N trace events. SIGUSR1 requests a mid-run
//                   dump of the ring to the --trace-out path; a failed
//                   invariant audit dumps it automatically before aborting.
//   --profile       enable the scoped wall-time profiler and print the
//                   per-site report (maxflow/gossip/choker attribution).
#include <csignal>
#include <cstdio>
#include <iostream>
#include <map>

#include "analysis/experiment.hpp"
#include "bartercast/backend.hpp"
#include "check/audit.hpp"
#include "community/simulator.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/stream.hpp"
#include "obs/trace_writer.hpp"
#include "trace/generator.hpp"
#include "util/flags.hpp"

using namespace bc;

int main(int argc, char** argv) {
  const std::map<std::string, std::string> allowed = {
      {"validate", "run the bc::check invariant audits during the simulation"},
      {"metrics-out", "write metrics + profile JSON to this path"},
      {"metrics-csv", "write metrics CSV to this path"},
      {"trace-out", "write a sim-time Chrome trace JSON to this path"},
      {"metrics-stream", "append windowed metric deltas (NDJSON) to this path"},
      {"trace-ring",
       "flight recorder (with --trace-out): keep only the last N events"},
      {"profile", "profile hot sites and print the report"},
      {"population", "behavior spec, e.g. \"sharer:0.5,lazy:0.3,sybil:0.2\""},
      {"backend", "reputation backend: maxflow (default) or gossip"},
  };
  auto flags = Flags::parse(argc, argv, allowed);
  if (!flags.has_value()) {
    std::fputs(Flags::usage(argv[0], allowed).c_str(), stderr);
    return 1;
  }
  if (flags->get_bool("validate", false)) check::set_enabled(true);

  const std::string metrics_out = flags->get("metrics-out", "");
  const std::string metrics_csv = flags->get("metrics-csv", "");
  const std::string trace_out = flags->get("trace-out", "");
  const std::string metrics_stream = flags->get("metrics-stream", "");
  const std::int64_t trace_ring = flags->get_int("trace-ring", 0);
  if (!flags->valid() || trace_ring < 0) {
    std::fprintf(stderr, "error: --trace-ring must be an integer >= 0\n");
    return 1;
  }
  if (trace_ring > 0 && trace_out.empty()) {
    std::fprintf(stderr,
                 "error: --trace-ring needs --trace-out, the path the ring "
                 "is dumped to\n");
    return 1;
  }
  // Opened before the run, so an unwritable path stops it before it
  // simulates; the simulator appends its windows.
  obs::MetricsStream stream;
  if (!metrics_stream.empty() &&
      !stream.open(metrics_stream, obs::Registry::instance())) {
    std::fprintf(stderr, "error: could not write %s\n",
                 metrics_stream.c_str());
    return 1;
  }
  const bool profile = flags->get_bool("profile", false) ||
                       !metrics_out.empty() || !trace_out.empty();
  // Enable before the simulator is constructed: schedule_periodics checks
  // the tracer flag to decide whether to emit counter-track snapshots.
  if (profile) obs::Profiler::instance().set_enabled(true);
  if (!trace_out.empty()) {
    auto& tracer = obs::Tracer::instance();
    tracer.set_enabled(true);
    tracer.set_dump_path(trace_out);
    if (trace_ring > 0) {
      // Flight recorder: bound memory to the last N events, dump the ring
      // on demand (SIGUSR1, served at the next hourly counter-track
      // snapshot of sim time) and on any invariant-audit failure, before
      // the default handler aborts.
      tracer.set_ring_capacity(static_cast<std::size_t>(trace_ring));
      tracer.arm_signal_dump(SIGUSR1);
      check::set_failure_observer(
          [](const std::string&) { obs::Tracer::instance().dump_now(); });
    }
  }

  trace::GeneratorConfig tcfg;
  tcfg.seed = 2024;
  tcfg.num_peers = 30;
  tcfg.num_swarms = 4;
  tcfg.duration = 2.0 * kDay;
  tcfg.file_size_max = mib(600);
  tcfg.requests_per_peer_min = 2;
  tcfg.requests_per_peer_max = 4;

  community::ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.policy = bartercast::ReputationPolicy::ban(-0.5);
  cfg.series_bin = 2.0 * kHour;
  cfg.population = flags->get("population", "");
  const std::string backend = flags->get("backend", "maxflow");
  const auto backend_kind = bartercast::parse_backend(backend);
  if (!backend_kind.has_value()) {
    std::fprintf(stderr, "error: unknown --backend '%s'\n", backend.c_str());
    return 1;
  }
  cfg.node.backend = *backend_kind;
  const std::string config_error = cfg.validate();
  if (!config_error.empty()) {
    std::fprintf(stderr, "error: %s\n", config_error.c_str());
    return 1;
  }

  community::CommunitySimulator sim(trace::generate(tcfg), cfg,
                                    stream.is_open() ? &stream : nullptr);
  sim.run();
  stream.close();
  const auto& m = sim.metrics();

  std::printf("== download speed over time (policy: %s) ==\n",
              cfg.policy.name().c_str());
  std::cout << analysis::speed_table(m, kHour).to_string();

  std::printf("\n== system reputation over time ==\n");
  std::cout << analysis::reputation_table(m, kHour).to_string();

  std::printf("\n== per-peer outcome ==\n");
  Table t({"peer", "class", "up", "down", "reputation", "completed"});
  for (const auto& o : m.outcomes) {
    t.add_row({std::to_string(o.peer),
               o.freerider ? "freerider" : "sharer",
               fmt_bytes(o.total_uploaded), fmt_bytes(o.total_downloaded),
               fmt(o.final_system_reputation, 3),
               std::to_string(o.files_completed) + "/" +
                   std::to_string(o.files_requested)});
  }
  std::cout << t.to_string();

  std::printf("\ncontribution/reputation correlation: pearson=%.3f\n",
              analysis::contribution_correlation(m));
  std::printf("messages: %llu sent, %llu received, %llu records applied\n",
              static_cast<unsigned long long>(m.messages.messages_sent),
              static_cast<unsigned long long>(m.messages.messages_received),
              static_cast<unsigned long long>(m.messages.records_applied));
  std::printf("records dropped: %llu total (%llu third-party, %llu own-edge, "
              "%llu self-report)\n",
              static_cast<unsigned long long>(m.messages.records_dropped()),
              static_cast<unsigned long long>(m.messages.dropped_third_party),
              static_cast<unsigned long long>(m.messages.dropped_own_edge),
              static_cast<unsigned long long>(m.messages.dropped_self_report));

  if (profile) {
    std::printf("\n== profile (wall time per site) ==\n%s",
                obs::profile_report(obs::Profiler::instance()).c_str());
  }
  if (!metrics_out.empty()) {
    const std::string json = obs::metrics_json(obs::Registry::instance(),
                                               obs::Profiler::instance());
    if (!obs::write_text_file(metrics_out, json)) {
      std::fprintf(stderr, "error: could not write %s\n", metrics_out.c_str());
      return 1;
    }
    std::printf("metrics JSON written to %s\n", metrics_out.c_str());
  }
  if (!metrics_csv.empty()) {
    if (!obs::write_text_file(metrics_csv,
                              obs::metrics_csv(obs::Registry::instance()))) {
      std::fprintf(stderr, "error: could not write %s\n", metrics_csv.c_str());
      return 1;
    }
    std::printf("metrics CSV written to %s\n", metrics_csv.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::Tracer::instance().write_file(trace_out)) {
      std::fprintf(stderr, "error: could not write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("chrome trace (%zu events", obs::Tracer::instance().size());
    if (obs::Tracer::instance().dropped_events() > 0) {
      std::printf(", %llu older events evicted by the ring",
                  static_cast<unsigned long long>(
                      obs::Tracer::instance().dropped_events()));
    }
    std::printf(") written to %s\n", trace_out.c_str());
  }
  if (!metrics_stream.empty()) {
    std::printf("metrics stream (NDJSON) written to %s\n",
                metrics_stream.c_str());
  }

  if (check::enabled()) {
    check::Report report;
    sim.audit(report);
    std::printf("invariant audit: %s (%llu audit hooks ran)\n",
                report.ok() ? "clean" : report.to_string().c_str(),
                static_cast<unsigned long long>(
                    check::ScopedAudit::audits_run()));
    if (!report.ok()) return 1;
  }
  return 0;
}
