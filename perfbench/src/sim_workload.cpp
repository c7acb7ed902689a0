// The two simulation workloads, fig1_paper and ban_n200.
//
// Each is a fixed scenario: its trace and scenario seeds are part of the
// workload definition (the figure's seed 33, run_scenario's default 1), so
// every run times the same simulation and is gated by the same pinned
// output digest. --seed drives only the inputs the benchmark generates
// itself: the order of the client replay below. README.md explains why.
//
// One repetition = set-up (trace generation + simulator construction, the
// median of several is setup_s), CommunitySimulator::run() (run +
// finalize, the timed wall_s) and the correctness gate (audit clean,
// output digest and registry counts identical in every repetition).
// Repetitions continue until --seconds have passed, at least three
// untraced ones. In a traced run every other repetition has the profiler
// on; its sites give the per-layer self times.
//
// Client replay, after each untraced repetition of a traced run: every
// peer is rebuilt as a bartercast::Service from its final private history
// and fed every other peer's end-of-run message as an encoded datagram,
// replies on, with one Service::reputation query about the sender after
// every fourth datagram. This gives the per-layer datagram and
// reputation-query latencies a client of this community sees.
#include <bit>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bartercast/codec.hpp"
#include "bartercast/service.hpp"
#include "check/invariants.hpp"
#include "community/scenario.hpp"
#include "community/simulator.hpp"
#include "graph/maxflow.hpp"
#include "harness.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace bcperf {

namespace {

namespace bcs = bc::bartercast;

struct SimSpec {
  std::uint64_t seed;  // trace and scenario seed
  std::size_t peers;
  std::size_t swarms;
  bc::Seconds trace_duration;  // generated trace
  bc::Seconds horizon;         // simulated prefix of it
  bcs::ReputationPolicy policy;
};

SimSpec spec_for(const Options& opt) {
  // fig1_paper: bench/fig1_reputation's scenario, first two of its seven
  // days. ban_n200: `run_scenario --peers 200 --days 1 --policy ban
  // --delta -0.5`, first six of its 24 hours.
  SimSpec s = opt.workload == "ban_n200"
                  ? SimSpec{1, 200, 10, bc::kDay, 6.0 * bc::kHour,
                            bcs::ReputationPolicy::ban(-0.5)}
                  : SimSpec{33, 100, 10, bc::kWeek, 2.0 * bc::kDay,
                            bcs::ReputationPolicy::none()};
  if (opt.tiny) {
    s.peers = 24;
    s.swarms = 4;
    s.trace_duration = bc::kDay;
    s.horizon = 6.0 * bc::kHour;
  }
  return s;
}

/// The trace restricted to [0, horizon): the same sessions, releases and
/// request times as the full trace, so the prefix keeps the full run's
/// load density.
bc::trace::Trace first_part(bc::trace::Trace trace, bc::Seconds horizon) {
  trace.duration = horizon;
  for (auto& p : trace.peers) {
    std::erase_if(p.sessions,
                  [&](const bc::trace::Session& s) { return s.start >= horizon; });
    for (auto& s : p.sessions) s.end = std::min(s.end, horizon);
  }
  std::erase_if(trace.requests, [&](const bc::trace::SwarmRequest& r) {
    return r.at >= horizon;
  });
  return trace;
}

/// Registry counters the gate compares across repetitions (C counts).
const char* const kCounts[] = {
    "sim.events_dispatched",       "gossip.exchanges",
    "barter.messages_sent",        "barter.messages_received",
    "barter.records_applied",      "barter.dropped_third_party",
    "barter.dropped_own_edge",     "barter.dropped_self_report",
    "maxflow.two_hop_queries",     "community.rounds",
    "community.bytes_transferred", "reputation.cache_hits",
    "reputation.cache_misses",
};

std::vector<std::uint64_t> read_counts(const bc::obs::Snapshot& snap) {
  std::vector<std::uint64_t> v;
  for (const char* name : kCounts) v.push_back(counter_value(snap, name));
  return v;
}

std::uint64_t count_of(const std::vector<std::uint64_t>& counts,
                       std::string_view name) {
  for (std::size_t i = 0; i < std::size(kCounts); ++i) {
    if (name == kCounts[i]) return counts[i];
  }
  return 0;
}

/// Per-peer bytes, final reputation bits and message counts.
std::string output_digest(const bc::community::CommunitySimulator& sim) {
  Digest d;
  d.add(sim.engine().events_processed());
  for (const auto& o : sim.metrics().outcomes) {
    d.add(static_cast<std::uint64_t>(o.total_uploaded));
    d.add(static_cast<std::uint64_t>(o.total_downloaded));
    d.add(std::bit_cast<std::uint64_t>(o.final_system_reputation));
    d.add(o.files_completed);
  }
  const auto& m = sim.metrics().messages;
  for (std::uint64_t v :
       {m.messages_sent, m.messages_received, m.records_applied,
        m.dropped_third_party, m.dropped_own_edge, m.dropped_self_report,
        m.gossip_exchanges}) {
    d.add(v);
  }
  return d.hex();
}

/// Replays a final private history into `node` (private history and the
/// owner-incident edges of its view).
void rebuild(bcs::Node& node, const bcs::PrivateHistory& history) {
  for (const bcs::HistoryEntry& e : history.entries()) {
    if (e.uploaded > 0) node.on_bytes_sent(e.peer, e.uploaded, e.last_seen);
    if (e.downloaded > 0) {
      node.on_bytes_received(e.peer, e.downloaded, e.last_seen);
    }
    node.on_peer_seen(e.peer, e.last_seen);
  }
}

/// Latency quantiles of each client-replay pass.
struct Replay {
  std::vector<double> datagram_p50, datagram_p99, query_p50, query_p99;
};

/// One client-replay pass (file comment) over every peer. Returns false
/// when a Service's Stats differ from what it was fed.
bool replay_pass(const bc::community::CommunitySimulator& sim,
                 const std::vector<std::vector<std::uint8_t>>& wire,
                 const std::vector<std::size_t>& records,
                 const std::vector<bc::PeerId>& order, Replay& out) {
  const bc::Seconds now = sim.trace().duration;
  bcs::ServiceConfig cfg;
  cfg.node = sim.config().node;
  bool exact = true;
  std::vector<double> datagram_us, query_us;
  for (bc::PeerId self = 0; self < wire.size(); ++self) {
    std::uint64_t replies = 0;
    bcs::Service svc(
        self, cfg, [&](bc::PeerId, std::vector<std::uint8_t>) { ++replies; },
        [] { return bc::kInvalidPeer; });
    rebuild(svc.node(), sim.node(self).history());
    std::uint64_t fed = 0, fed_records = 0;
    for (bc::PeerId from : order) {
      if (from == self) continue;
      const double t0 = now_s();
      svc.on_datagram(from, wire[from], now, true);
      const double t1 = now_s();
      datagram_us.push_back((t1 - t0) * 1e6);
      fed_records += records[from];
      if (++fed % 4 == 0) {
        const double r = svc.reputation(from);
        query_us.push_back((now_s() - t1) * 1e6);
        exact = exact && r > -1.0 && r < 1.0;
      }
    }
    const auto& st = svc.stats();
    exact = exact && st.messages_received == fed &&
            st.messages_rejected == 0 && st.messages_sent == fed &&
            replies == fed &&
            st.records_applied + st.records_dropped == fed_records;
  }
  out.datagram_p50.push_back(quantile(datagram_us, 0.5));
  out.datagram_p99.push_back(quantile(datagram_us, 0.99));
  out.query_p50.push_back(quantile(query_us, 0.5));
  out.query_p99.push_back(quantile(query_us, 0.99));
  return exact;
}

/// The client replay of the final state, in a seed-shuffled sender order.
/// Passes repeat until at least 40,000 datagrams were fed: one pass over
/// 100 peers lasts about 0.15 s, too short a window for a steady median.
bool client_replay(const bc::community::CommunitySimulator& sim,
                   std::uint64_t seed, Replay& out) {
  const bc::Seconds now = sim.trace().duration;
  const std::size_t n = sim.num_trace_peers();
  std::vector<std::vector<std::uint8_t>> wire(n);
  std::vector<std::size_t> records(n);
  for (bc::PeerId i = 0; i < n; ++i) {
    const auto msg = sim.node(i).make_message(now);
    records[i] = msg.records.size();
    wire[i] = bcs::encode(msg);
  }
  std::vector<bc::PeerId> order(n);
  for (bc::PeerId i = 0; i < n; ++i) order[i] = i;
  bc::Rng rng(seed);
  rng.shuffle(order);

  bool exact = true;
  for (std::size_t fed = 0; fed < 40000; fed += n * (n - 1)) {
    exact = replay_pass(sim, wire, records, order, out) && exact;
  }
  return exact;
}

/// Benchmark-side spans around public calls on the final state (the S
/// per-layer metrics), each a mean per call in microseconds.
void layer_spans(const bc::community::CommunitySimulator& sim, Result& out) {
  const bc::Seconds now = sim.trace().duration;
  const std::size_t n = sim.num_trace_peers();
  const auto per_call = [](double seconds, std::size_t calls) {
    return seconds * 1e6 / static_cast<double>(calls);
  };
  std::vector<bcs::BarterCastMessage> msgs(n);
  double t = now_s();
  for (bc::PeerId i = 0; i < n; ++i) msgs[i] = sim.node(i).make_message(now);
  out.add("bartercast.make_message_us", per_call(now_s() - t, n), "us");

  std::vector<std::vector<std::uint8_t>> wire(n);
  t = now_s();
  for (bc::PeerId i = 0; i < n; ++i) wire[i] = bcs::encode(msgs[i]);
  out.add("bartercast.codec_encode_us", per_call(now_s() - t, n), "us");
  std::size_t decoded = 0;
  t = now_s();
  for (const auto& w : wire) decoded += bcs::decode(w).has_value() ? 1 : 0;
  out.add("bartercast.codec_decode_us", per_call(now_s() - t, n), "us");
  if (decoded != n) out.fail("codec: an end-of-run message did not decode");

  double receive = 0.0, cold = 0.0, warm = 0.0, two_hop = 0.0, sum = 0.0;
  bc::Bytes flows = 0;
  for (bc::PeerId self = 0; self < n; ++self) {
    bcs::Node node(self, sim.config().node);
    rebuild(node, sim.node(self).history());
    t = now_s();
    for (bc::PeerId j = 0; j < n; ++j) {
      if (j != self) node.receive_message(msgs[j]);
    }
    receive += now_s() - t;
    t = now_s();
    for (bc::PeerId j = 0; j < n; ++j) sum += node.reputation(j);
    cold += now_s() - t;
    t = now_s();
    for (bc::PeerId j = 0; j < n; ++j) sum += node.reputation(j);
    warm += now_s() - t;
    const auto& g = sim.node(self).view().graph();
    t = now_s();
    for (bc::PeerId j = 0; j < n; ++j) {
      flows += bc::graph::max_flow_two_hop(g, j, self);
      flows += bc::graph::max_flow_two_hop(g, self, j);
    }
    two_hop += now_s() - t;
  }
  keep(sum + static_cast<double>(flows));
  out.add("bartercast.receive_message_us", per_call(receive, n * (n - 1)),
          "us");
  out.add("bartercast.reputation_cold_us", per_call(cold, n * n), "us");
  out.add("bartercast.reputation_warm_us", per_call(warm, n * n), "us");
  out.add("graph.two_hop_us", per_call(two_hop, 2 * n * n), "us");
}

}  // namespace

void run_sim_workload(const Options& opt, Result& out) {
  const SimSpec spec = spec_for(opt);
  bc::trace::GeneratorConfig tcfg;
  tcfg.seed = spec.seed;
  tcfg.num_peers = spec.peers;
  tcfg.num_swarms = spec.swarms;
  tcfg.duration = spec.trace_duration;
  bc::community::ScenarioConfig scfg;
  scfg.seed = spec.seed;
  scfg.policy = spec.policy;
  scfg.threads = 1;

  auto& registry = bc::obs::Registry::instance();
  auto& profiler = bc::obs::Profiler::instance();
  std::vector<double> setup_s, generate_s, wall_s, traced_wall_s;
  std::vector<std::uint64_t> counts;
  SiteTotals sites;
  Replay replay;
  std::unique_ptr<bc::community::CommunitySimulator> sim;

  const double start = now_s();
  for (std::size_t rep = 0;; ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    // Set-up is a few milliseconds; several per repetition steady its
    // median. The last simulator built is the one that runs.
    for (int k = 0; k < 5; ++k) {
      const double t0 = now_s();
      bc::trace::Trace trace =
          first_part(bc::trace::generate(tcfg), spec.horizon);
      const double t1 = now_s();
      sim = std::make_unique<bc::community::CommunitySimulator>(
          std::move(trace), scfg);
      generate_s.push_back(t1 - t0);
      setup_s.push_back(now_s() - t0);
    }

    registry.reset_values();
    profiler.reset_values();
    profiler.set_enabled(traced);
    const double t0 = now_s();
    sim->run();
    const double run_s = now_s() - t0;
    profiler.set_enabled(false);
    (traced ? traced_wall_s : wall_s).push_back(run_s);
    std::fprintf(stderr, "repetition %zu%s: %.4f s\n", rep,
                 traced ? " (traced)" : "", run_s);
    if (traced) sites.add(profiler.snapshot());
    const std::vector<std::uint64_t> rep_counts =
        read_counts(registry.snapshot());

    ++out.attempted;
    const std::string tag = "repetition " + std::to_string(rep) + ": ";
    bc::check::Report report;
    sim->audit(report);
    const std::string digest = output_digest(*sim);
    const bool replay_exact =
        !opt.trace || traced || client_replay(*sim, opt.seed, replay);
    if (!report.ok()) {
      out.fail(tag + "audit reported " + std::to_string(report.size()) +
               " violation(s)");
    } else if (!out.digest.empty() && digest != out.digest) {
      out.fail(tag + "output digest differs from the first repetition");
    } else if (!counts.empty() && rep_counts != counts) {
      out.fail(tag + "registry counts differ from the first repetition");
    } else if (count_of(rep_counts, "sim.events_dispatched") !=
               sim->engine().events_processed()) {
      out.fail(tag + "sim.events_dispatched disagrees with the engine");
    } else if (!replay_exact) {
      out.fail(tag + "client replay: Service stats differ from the feed");
    }
    if (out.digest.empty()) {
      out.digest = digest;
      counts = rep_counts;
    }

    if (run_done(opt, wall_s.size(), traced_wall_s.size(), now_s() - start)) {
      break;
    }
  }

  const double wall = median(wall_s);
  const double days = spec.horizon / bc::kDay;
  if (!opt.trace) {
    out.add("wall_s", wall, "s");
    out.add("sim_days_per_s", days / wall, "days/s");
    out.add("datagrams_per_s",
            static_cast<double>(count_of(counts, "barter.messages_received")) /
                wall,
            "1/s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Self times from the profiler's inclusive sites (README.md, "Self
  // times"). reputation.evaluate also runs under the probes and finalize,
  // so the choker's share is evaluate minus both whole sites: a lower
  // bound, short by the probes' cache lookups.
  const double run = sites.seconds("community.run");
  const double fin = sites.seconds("community.finalize");
  const double round = sites.seconds("community.round");
  const double choke = sites.seconds("community.choke_swarm");
  const double pick = sites.seconds("choker.pick_regular") +
                      sites.seconds("choker.optimistic_pick");
  const double tick = sites.seconds("community.gossip_tick");
  const double exchange = sites.seconds("gossip.exchange");
  const double on_msg = sites.seconds("community.on_barter_message");
  const double probe = sites.seconds("community.reputation_probe");
  const double choke_rep =
      spec.policy.kind() == bcs::PolicyKind::kNone
          ? 0.0
          : std::max(0.0, sites.seconds("reputation.evaluate") - probe - fin);
  const std::vector<std::pair<const char*, double>> self_times = {
      {"community.round_self_s", round - choke},
      {"community.choke_candidates_s", choke - pick - choke_rep},
      {"bittorrent.choke_pick_s", pick},
      {"community.choke_reputation_s", choke_rep},
      {"gossip.exchange_s", exchange},
      {"community.gossip_tick_self_s", tick - exchange},
      {"community.on_barter_message_s", on_msg},
      {"community.reputation_probe_s", probe},
      {"community.finalize_s", fin},
  };
  double attributed = 0.0;
  for (const auto& [name, seconds] : self_times) {
    out.add(name, seconds, "s");
    attributed += seconds;
  }
  out.add("community.unattributed_s", run - attributed, "s");
  out.add("community.run_s", run, "s");

  const std::uint64_t events = count_of(counts, "sim.events_dispatched");
  out.add("sim.events", static_cast<double>(events), "count");
  out.add("sim.dispatch_us",
          sites.seconds("sim.dispatch") * 1e6 /
              static_cast<double>(std::max<std::uint64_t>(1, events)),
          "us");
  const auto count = [&](const char* metric, std::uint64_t v) {
    out.add(metric, static_cast<double>(v), "count");
  };
  count("gossip.exchanges", count_of(counts, "gossip.exchanges"));
  count("bartercast.messages_built", count_of(counts, "barter.messages_sent"));
  count("bartercast.records_applied",
        count_of(counts, "barter.records_applied"));
  count("bartercast.records_dropped",
        count_of(counts, "barter.dropped_third_party") +
            count_of(counts, "barter.dropped_own_edge") +
            count_of(counts, "barter.dropped_self_report"));
  count("graph.two_hop_queries", count_of(counts, "maxflow.two_hop_queries"));
  count("community.rounds", count_of(counts, "community.rounds"));
  out.add("community.bytes_transferred",
          static_cast<double>(count_of(counts, "community.bytes_transferred")),
          "bytes");
  const std::uint64_t hits = count_of(counts, "reputation.cache_hits");
  const std::uint64_t misses = count_of(counts, "reputation.cache_misses");
  out.add("bartercast.reputation_cache_hit_ratio", ratio(hits, hits + misses),
          "ratio");
  std::uint64_t history = 0, nodes = 0, edges = 0;
  for (bc::PeerId i = 0; i < sim->num_trace_peers(); ++i) {
    history += sim->node(i).history().size();
    nodes += sim->node(i).view().graph().num_nodes();
    edges += sim->node(i).view().graph().num_edges();
  }
  count("bartercast.history_entries", history);
  count("graph.nodes", nodes);
  count("graph.edges", edges);
  count("service.datagrams_rejected", 0);
  out.add("service.on_datagram_s", 0.0, "s");
  out.add("service.datagram_p50_us", median(replay.datagram_p50), "us");
  out.add("service.datagram_p99_us", median(replay.datagram_p99), "us");
  out.add("service.rep_query_p50_us", median(replay.query_p50), "us");
  out.add("service.rep_query_p99_us", median(replay.query_p99), "us");
  layer_spans(*sim, out);
  out.add("trace.generate_s", median(generate_s), "s");
  out.add("obs.trace_overhead_frac", median(traced_wall_s) / wall - 1.0,
          "ratio");
}

}  // namespace bcperf
