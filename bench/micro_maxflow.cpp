// Microbenchmarks of the maxflow variants (google-benchmark).
//
// BarterCast computes a reputation on every choke decision, so the cost of
// one maxflow evaluation on a subjective graph is the mechanism's hot path.
// This bench quantifies why the paper's path-length-2 restriction matters:
// the closed-form two-hop flow is orders of magnitude cheaper than full
// Ford-Fulkerson and nearly free compared to Edmonds-Karp.
#include <benchmark/benchmark.h>

#include "graph/flow_graph.hpp"
#include "graph/maxflow.hpp"
#include "util/rng.hpp"

namespace {

using namespace bc;

/// Random bartering graph: n nodes, average out-degree d, capacities up to
/// 1 GiB. Node 0 is the evaluator, node 1 the subject.
graph::FlowGraph make_graph(std::size_t n, std::size_t degree,
                            std::uint64_t seed) {
  Rng rng(seed);
  graph::FlowGraph g;
  for (PeerId from = 0; from < n; ++from) {
    for (std::size_t e = 0; e < degree; ++e) {
      auto to = static_cast<PeerId>(rng.index(n));
      if (to == from) to = (to + 1) % static_cast<PeerId>(n);
      g.add_capacity(from, to, rng.uniform_int(kMiB, kGiB));
    }
  }
  return g;
}

void BM_TwoHopClosedForm(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)), 8, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow_two_hop(g, 1, 0));
  }
}
BENCHMARK(BM_TwoHopClosedForm)->Arg(100)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BoundedFordFulkerson2(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)), 8, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow_ford_fulkerson(g, 1, 0, 2));
  }
}
BENCHMARK(BM_BoundedFordFulkerson2)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FullFordFulkerson(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)), 8, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow_ford_fulkerson(g, 1, 0));
  }
}
BENCHMARK(BM_FullFordFulkerson)->Arg(50)->Arg(100);

void BM_EdmondsKarp(benchmark::State& state) {
  const auto g = make_graph(static_cast<std::size_t>(state.range(0)), 8, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow_edmonds_karp(g, 1, 0));
  }
}
BENCHMARK(BM_EdmondsKarp)->Arg(100)->Arg(300);

// Graph mutation throughput: the shared history applies gossip records
// continuously; edge upserts must stay cheap.
void BM_EdgeUpsert(benchmark::State& state) {
  Rng rng(7);
  graph::FlowGraph g;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto a = static_cast<PeerId>(rng.index(n));
    auto b = static_cast<PeerId>(rng.index(n));
    if (a == b) b = (b + 1) % static_cast<PeerId>(n);
    g.add_capacity(a, b, 1000);
  }
}
BENCHMARK(BM_EdgeUpsert)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
