// Graph-core microbench: the dense-index FlowGraph vs. the retained
// hash-map ReferenceFlowGraph oracle, plus the end-to-end payoff — a
// community-style full reputation sweep under per-subject incremental
// invalidation vs. the old whole-cache (global-version) invalidation.
//
// Two sections:
//  1. Per-operation costs (add_capacity / raise_capacity / capacity query /
//     two-hop maxflow) on identical random graphs, dense vs. reference.
//  2. A gossip-then-sweep loop: R rounds of a few edge mutations followed
//     by a full sweep over every known subject. The incremental cache
//     recomputes only the touched two-hop neighbourhood; the emulated
//     pre-fix behaviour (any version bump flushes everything) recomputes
//     every subject with the same closed-form engine, so the ratio
//     isolates the invalidation policy. The acceptance bar is >= 2x.
//
// Results go to BENCH_graph.json (override with BC_BENCH_OUT). The usual
// bench observability env vars (BC_PROFILE / BC_METRICS_OUT / BC_TRACE_OUT)
// are honoured via figure_common.hpp.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bartercast/reputation.hpp"
#include "bartercast/shared_history.hpp"
#include "figure_common.hpp"
#include "graph/flow_graph.hpp"
#include "graph/maxflow.hpp"
#include "graph/reference_graph.hpp"
#include "obs/export.hpp"
#include "stopwatch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace bc;

namespace {

constexpr PeerId kOpPeers = 400;
constexpr std::size_t kAdds = 60000;
constexpr std::size_t kRaises = 20000;
constexpr std::size_t kQueries = 200000;
constexpr std::size_t kScans = 200000;
constexpr std::size_t kTwoHops = 20000;

struct OpRow {
  const char* op;
  std::size_t count;
  double dense_ns;
  double ref_ns;
};

/// Runs the identical operation mix against one graph implementation.
/// `G` only needs the shared public PeerId API, so the same template body
/// drives FlowGraph and ReferenceFlowGraph; `flow` is the matching two-hop
/// entry point and `scan` sums one node's out-edge capacities (the dense
/// side iterates through graph::EdgeView, which reads each capacity from
/// the graph's table; under NDEBUG its generation guard compiles away).
template <typename G, typename TwoHopFn, typename ScanFn>
std::vector<double> run_ops(G& g, TwoHopFn flow, ScanFn scan) {
  std::vector<double> ns;
  Rng rng(2026);
  auto pick = [&rng] {
    return static_cast<PeerId>(rng.uniform_int(0, kOpPeers - 1));
  };
  Bytes sink = 0;

  bench::Stopwatch watch;
  for (std::size_t i = 0; i < kAdds; ++i) {
    const PeerId u = pick(), v = pick();
    if (u != v) g.add_capacity(u, v, rng.uniform_int(1, kMiB));
  }
  ns.push_back(watch.elapsed_ns() / static_cast<double>(kAdds));

  watch.restart();
  for (std::size_t i = 0; i < kRaises; ++i) {
    const PeerId u = pick(), v = pick();
    if (u != v) g.raise_capacity(u, v, rng.uniform_int(1, kMiB));
  }
  ns.push_back(watch.elapsed_ns() / static_cast<double>(kRaises));

  watch.restart();
  for (std::size_t i = 0; i < kQueries; ++i) {
    sink += g.capacity(pick(), pick());
  }
  ns.push_back(watch.elapsed_ns() / static_cast<double>(kQueries));

  watch.restart();
  for (std::size_t i = 0; i < kScans; ++i) {
    sink += scan(g, pick());
  }
  ns.push_back(watch.elapsed_ns() / static_cast<double>(kScans));

  watch.restart();
  for (std::size_t i = 0; i < kTwoHops; ++i) {
    const PeerId s = pick(), t = pick();
    if (s != t) sink += flow(g, s, t);
  }
  ns.push_back(watch.elapsed_ns() / static_cast<double>(kTwoHops));

  if (sink == Bytes{0} - 1) std::printf("impossible\n");  // keep sink alive
  return ns;
}

std::vector<OpRow> run_op_section(std::string& json) {
  graph::FlowGraph dense;
  graph::ReferenceFlowGraph ref;
  const std::vector<double> d = run_ops(
      dense,
      [](const graph::FlowGraph& g, PeerId s, PeerId t) {
        return graph::max_flow_two_hop(g, s, t);
      },
      [](const graph::FlowGraph& g, PeerId p) {
        Bytes acc = 0;
        for (const graph::Edge& e : g.out_edges(p)) acc += e.cap;
        return acc;
      });
  const std::vector<double> r = run_ops(
      ref,
      [](const graph::ReferenceFlowGraph& g, PeerId s, PeerId t) {
        return graph::ref_max_flow_two_hop(g, s, t);
      },
      [](const graph::ReferenceFlowGraph& g, PeerId p) {
        Bytes acc = 0;
        for (const auto& [_, cap] : g.out_edges(p)) acc += cap;
        return acc;
      });
  const std::vector<OpRow> rows = {
      {"add_capacity", kAdds, d[0], r[0]},
      {"raise_capacity", kRaises, d[1], r[1]},
      {"capacity_query", kQueries, d[2], r[2]},
      {"edge_scan", kScans, d[3], r[3]},
      {"two_hop_maxflow", kTwoHops, d[4], r[4]},
  };
  json += "  \"ops\": [";
  bool first = true;
  for (const OpRow& row : rows) {
    json += first ? "\n" : ",\n";
    first = false;
    const double speedup = row.dense_ns > 0.0 ? row.ref_ns / row.dense_ns : 0.0;
    json += "    {\"op\": \"" + std::string(row.op) +
            "\", \"count\": " + std::to_string(row.count) +
            ", \"dense_ns\": " + fmt(row.dense_ns, 1) +
            ", \"reference_ns\": " + fmt(row.ref_ns, 1) +
            ", \"dense_speedup\": " + fmt(speedup, 2) + "}";
  }
  json += "\n  ],\n";
  return rows;
}

// ---------------------------------------------------------------------------

constexpr std::size_t kSweepPeers = 300;
constexpr std::size_t kRounds = 40;
constexpr std::size_t kMutationsPerRound = 3;

/// Seeds `view` with a connected gossip web over kSweepPeers remote peers
/// plus some owner-incident history.
void seed_history(bartercast::SharedHistory& view, Rng& rng) {
  for (PeerId p = 1; p <= 40; ++p) {
    view.record_local_download(p, rng.uniform_int(kMiB, kGiB));
    view.record_local_upload(p, rng.uniform_int(kMiB, kGiB));
  }
  for (std::size_t i = 0; i < kSweepPeers * 4; ++i) {
    const auto u =
        static_cast<PeerId>(rng.uniform_int(1, kSweepPeers));
    auto v = static_cast<PeerId>(rng.uniform_int(1, kSweepPeers - 1));
    if (v >= u) ++v;
    bartercast::BarterCastMessage msg;
    msg.sender = u;
    msg.records = {{u, v, rng.uniform_int(kMiB, kGiB), 0}};
    view.apply_message(msg);
  }
}

struct SweepResult {
  double ms;
  double checksum;
  std::uint64_t misses;
};

/// R rounds of {apply a few gossip mutations, then sweep every subject}.
/// With `incremental` false the pre-fix policy is emulated: every version
/// bump invalidates the whole cache, i.e. each swept subject pays a full
/// recompute with the very same engine — the two runs differ only in
/// invalidation granularity.
SweepResult run_sweep(bool incremental) {
  Rng rng(99);
  bartercast::SharedHistory view(0);
  seed_history(view, rng);
  bartercast::CachedReputation cache(view, bartercast::ReputationEngine{});
  BC_ASSERT(cache.incremental());
  const bartercast::ReputationEngine cold;
  Bytes claim = 2 * kGiB;  // above the seeded range so merges always apply
  double checksum = 0.0;
  std::uint64_t cold_evals = 0;
  const bench::Stopwatch watch;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t m = 0; m < kMutationsPerRound; ++m) {
      const auto u =
          static_cast<PeerId>(rng.uniform_int(1, kSweepPeers));
      auto v = static_cast<PeerId>(rng.uniform_int(1, kSweepPeers - 1));
      if (v >= u) ++v;
      claim += rng.uniform_int(1, kMiB);
      bartercast::BarterCastMessage msg;
      msg.sender = u;
      msg.records = {{u, v, claim, 0}};
      view.apply_message(msg);
    }
    for (PeerId s = 1; s <= kSweepPeers; ++s) {
      if (incremental) {
        checksum += cache.reputation(s);
      } else {
        checksum += cold.reputation(view, s);
        ++cold_evals;
      }
    }
  }
  const double ms = watch.elapsed_ms();
  return {ms, checksum, incremental ? cache.misses() : cold_evals};
}

double run_sweep_section(std::string& json) {
  const SweepResult full = run_sweep(false);
  const SweepResult inc = run_sweep(true);
  const std::uint64_t inc_bits = std::bit_cast<std::uint64_t>(inc.checksum);
  const std::uint64_t full_bits = std::bit_cast<std::uint64_t>(full.checksum);
  BC_ASSERT_MSG(inc_bits == full_bits,
                "incremental sweep diverged from full recompute");
  const double speedup = inc.ms > 0.0 ? full.ms / inc.ms : 0.0;
  std::printf("\nIncremental vs full-invalidation reputation sweep\n");
  std::printf("(%zu subjects, %zu rounds, %zu mutations/round; identical "
              "checksums)\n\n",
              kSweepPeers, kRounds, kMutationsPerRound);
  Table t({"policy", "sweep_ms", "recomputes", "speedup"});
  t.add_row({"full_invalidation", fmt(full.ms, 1),
             std::to_string(full.misses), "1.00"});
  t.add_row({"incremental", fmt(inc.ms, 1), std::to_string(inc.misses),
             fmt(speedup, 2)});
  std::printf("%s", t.to_string().c_str());
  json += "  \"sweep\": {\"subjects\": " + std::to_string(kSweepPeers) +
          ", \"rounds\": " + std::to_string(kRounds) +
          ", \"mutations_per_round\": " +
          std::to_string(kMutationsPerRound) +
          ", \"full_ms\": " + fmt(full.ms, 3) +
          ", \"full_recomputes\": " + std::to_string(full.misses) +
          ", \"incremental_ms\": " + fmt(inc.ms, 3) +
          ", \"incremental_recomputes\": " + std::to_string(inc.misses) +
          ", \"speedup\": " + fmt(speedup, 2) + "}\n";
  return speedup;
}

}  // namespace

int main() {
  bench::init_observability();
  std::printf("Graph-core bench: dense-index FlowGraph vs hash-map "
              "reference\n\n");
  std::string json = "{\n  \"bench\": \"graph_core\",\n";
  const std::vector<OpRow> rows = run_op_section(json);
  Table t({"op", "count", "dense_ns", "reference_ns", "dense_speedup"});
  for (const OpRow& row : rows) {
    const double speedup = row.dense_ns > 0.0 ? row.ref_ns / row.dense_ns : 0.0;
    t.add_row({row.op, std::to_string(row.count), fmt(row.dense_ns, 1),
               fmt(row.ref_ns, 1), fmt(speedup, 2)});
  }
  std::printf("%s", t.to_string().c_str());

  const double speedup = run_sweep_section(json);
  json += "}\n";
  const char* out_path = std::getenv("BC_BENCH_OUT");
  const std::string path = out_path != nullptr ? out_path : "BENCH_graph.json";
  if (obs::write_text_file(path, json)) {
    std::printf("\ngraph bench JSON written to %s\n", path.c_str());
  }
  if (speedup < 2.0) {
    std::printf("WARNING: incremental sweep speedup %.2fx is below the "
                "2x acceptance bar\n", speedup);
    return 1;
  }
  return 0;
}
