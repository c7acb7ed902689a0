// Microbenchmarks of the BarterCast node operations (google-benchmark):
// message construction, message application, and reputation evaluation as a
// function of history/graph size. These are the operations a deployed
// client performs continuously (the paper stresses that BarterCast must be
// "lightweight" — this bench makes that claim measurable).
#include <benchmark/benchmark.h>

#include "bartercast/node.hpp"
#include "util/rng.hpp"

namespace {

using namespace bc;
using namespace bc::bartercast;

/// A node that has bartered with `history_size` peers.
Node make_busy_node(PeerId self, std::size_t history_size,
                    std::uint64_t seed) {
  Rng rng(seed);
  Node n(self);
  for (std::size_t i = 0; i < history_size; ++i) {
    const auto remote = static_cast<PeerId>(1000 + i);
    n.on_bytes_sent(remote, rng.uniform_int(kMiB, kGiB),
                    static_cast<Seconds>(i));
    n.on_bytes_received(remote, rng.uniform_int(kMiB, kGiB),
                        static_cast<Seconds>(i));
  }
  return n;
}

void BM_BuildMessage(benchmark::State& state) {
  const auto node =
      make_busy_node(0, static_cast<std::size_t>(state.range(0)), 1);
  Seconds t = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.make_message(t));
    t += 1.0;
  }
}
BENCHMARK(BM_BuildMessage)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SeenThenBuild(benchmark::State& state) {
  // A Service's per-datagram path: mark the sender seen, then build the
  // reply. Each update moves one peer to the front of the Nr order.
  const auto size = static_cast<std::size_t>(state.range(0));
  auto node = make_busy_node(0, size, 5);
  Rng rng(6);
  Seconds t = 1e6;
  for (auto _ : state) {
    node.on_peer_seen(static_cast<PeerId>(1000 + rng.index(size)), t);
    benchmark::DoNotOptimize(node.make_message(t));
    t += 1.0;
  }
}
BENCHMARK(BM_SeenThenBuild)->Arg(100)->Arg(2000)->Arg(20000);

void BM_ApplyMessage(benchmark::State& state) {
  // Fresh receiver applying the same 20-record message repeatedly measures
  // the max-merge upsert path.
  auto sender = make_busy_node(1, 100, 2);
  const auto msg = sender.make_message(1e6);
  Node receiver(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(receiver.receive_message(msg));
  }
}
BENCHMARK(BM_ApplyMessage);

void BM_ReputationColdCache(benchmark::State& state) {
  // Evaluator with a populated subjective graph; each iteration evaluates a
  // different subject so the version cache never hits.
  const auto population = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Node evaluator(0);
  // Direct edges to anchor two-hop paths.
  for (PeerId p = 1; p < 50; ++p) {
    evaluator.on_bytes_received(p, rng.uniform_int(kMiB, kGiB), 0.0);
    evaluator.on_bytes_sent(p, rng.uniform_int(kMiB, kGiB), 0.0);
  }
  // Gossip: every population peer reports barter with the anchors.
  for (std::size_t i = 0; i < population; ++i) {
    const auto subject = static_cast<PeerId>(100 + i);
    BarterCastMessage msg;
    msg.sender = subject;
    for (PeerId anchor = 1; anchor < 20; ++anchor) {
      BarterRecord r;
      r.subject = subject;
      r.other = anchor;
      r.subject_to_other = rng.uniform_int(kMiB, kGiB);
      r.other_to_subject = rng.uniform_int(kMiB, kGiB);
      msg.records.push_back(r);
    }
    evaluator.receive_message(msg);
  }
  // Evaluate through the engine directly: the Node's version-keyed cache
  // would otherwise absorb everything after one sweep (see
  // BM_ReputationWarmCache for the cached path).
  ReputationEngine engine;
  PeerId next = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.reputation(evaluator.view().graph(), evaluator.id(), next));
    next = 100 + (next - 100 + 1) % static_cast<PeerId>(population);
  }
}
BENCHMARK(BM_ReputationColdCache)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ReputationWarmCache(benchmark::State& state) {
  auto evaluator = make_busy_node(0, 100, 4);
  benchmark::DoNotOptimize(evaluator.reputation(1000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.reputation(1000));
  }
}
BENCHMARK(BM_ReputationWarmCache);

void BM_RecordTransfer(benchmark::State& state) {
  Node n(0);
  Seconds t = 0.0;
  PeerId remote = 1;
  for (auto _ : state) {
    n.on_bytes_sent(remote, 16384, t);
    t += 1.0;
    remote = 1 + (remote % 500);
  }
}
BENCHMARK(BM_RecordTransfer);

}  // namespace

BENCHMARK_MAIN();
