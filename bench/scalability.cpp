// Scalability study (paper §6 future work: "we plan to perform simulations
// with up to 100,000 peers and assess the scalability of our mechanism").
//
// The full piece-level community simulator is deliberately run at the
// paper's 100-peer scale; the scalability question for BarterCast itself is
// about the *reputation layer*: how do subjective-graph size, message
// application, and two-hop reputation evaluation behave as the population
// grows? This bench sweeps the graph layer to 50k peers and reports per-
// operation costs and memory-proxy statistics, printed as a table.
// A second sweep holds the population fixed and varies the worker-thread
// count of the batch evaluation (the workload CommunitySimulator's
// reputation probes run on bc::util::ThreadPool): it asserts the parallel
// result is bit-identical to serial and reports the speedup, writing the
// numbers to BENCH_parallel.json (override the path with BC_BENCH_OUT).
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bartercast/node.hpp"
#include "obs/export.hpp"
#include "stopwatch.hpp"
#include "util/assert.hpp"
#include "util/concurrency/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace bc;
using namespace bc::bartercast;

namespace {

struct Row {
  std::size_t peers;
  double ingest_ms;        // applying one message per peer
  double eval_us;          // one two-hop reputation evaluation (cold)
  std::size_t graph_nodes;
  std::size_t graph_edges;
};

Row run_scale(std::size_t population, std::uint64_t seed) {
  BC_ASSERT(population > 0);
  Rng rng(seed);
  Node evaluator(0);
  // The evaluator bartered with a bounded set of direct partners (its
  // working set does not grow with the population — that is the point of
  // the subjective design).
  const std::size_t direct = 200;
  for (PeerId p = 1; p <= direct; ++p) {
    evaluator.on_bytes_received(p, rng.uniform_int(kMiB, kGiB), 0.0);
    evaluator.on_bytes_sent(p, rng.uniform_int(kMiB, kGiB), 0.0);
  }

  // One BarterCast message from every peer in the population.
  const bench::Stopwatch ingest;
  for (std::size_t i = 0; i < population; ++i) {
    const auto sender = static_cast<PeerId>(1000 + i);
    BarterCastMessage msg;
    msg.sender = sender;
    for (int r = 0; r < 20; ++r) {
      BarterRecord rec;
      rec.subject = sender;
      // Partners are skewed toward the low ids (popular peers), so some
      // records connect to the evaluator's direct partners.
      rec.other = static_cast<PeerId>(1 + rng.zipf(direct * 5, 1.0));
      if (rec.other == sender) continue;
      rec.subject_to_other = rng.uniform_int(kMiB, kGiB);
      rec.other_to_subject = rng.uniform_int(kMiB, kGiB);
      msg.records.push_back(rec);
    }
    evaluator.receive_message(msg);
  }
  const double ingest_ms = ingest.elapsed_ms();

  // Cold reputation evaluations across distinct subjects.
  const bench::Stopwatch eval;
  const std::size_t evals = 2000;
  double sink = 0.0;
  ReputationEngine engine;
  for (std::size_t i = 0; i < evals; ++i) {
    const auto subject = static_cast<PeerId>(1000 + (i * 37) % population);
    sink += engine.reputation(evaluator.view().graph(), 0, subject);
  }
  const double eval_us =
      eval.elapsed_ms() * 1000.0 / static_cast<double>(evals);
  if (sink < -1e300) std::printf("impossible\n");  // keep `sink` alive

  return Row{population, ingest_ms, eval_us,
             evaluator.view().graph().num_nodes(),
             evaluator.view().graph().num_edges()};
}

/// Ingests the same synthetic message load as run_scale (without timing
/// it), leaving `evaluator` with a populated subjective graph.
void ingest_population(Node& evaluator, std::size_t population,
                       std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t direct = 200;
  for (PeerId p = 1; p <= direct; ++p) {
    evaluator.on_bytes_received(p, rng.uniform_int(kMiB, kGiB), 0.0);
    evaluator.on_bytes_sent(p, rng.uniform_int(kMiB, kGiB), 0.0);
  }
  for (std::size_t i = 0; i < population; ++i) {
    const auto sender = static_cast<PeerId>(1000 + i);
    BarterCastMessage msg;
    msg.sender = sender;
    for (int r = 0; r < 20; ++r) {
      BarterRecord rec;
      rec.subject = sender;
      rec.other = static_cast<PeerId>(1 + rng.zipf(direct * 5, 1.0));
      if (rec.other == sender) continue;
      rec.subject_to_other = rng.uniform_int(kMiB, kGiB);
      rec.other_to_subject = rng.uniform_int(kMiB, kGiB);
      msg.records.push_back(rec);
    }
    evaluator.receive_message(msg);
  }
}

/// Threads sweep over the batch two-hop evaluation: per-index writes on the
/// pool, serial index-order merge — the exact shape the community
/// simulator's reputation probes use — so the checksum must not move a bit
/// between thread counts.
void run_threads_sweep() {
  const std::size_t population = 10000;
  const std::size_t evals = 4000;
  Node evaluator(0);
  ingest_population(evaluator, population, 17);
  const ReputationEngine engine;
  const auto& graph = evaluator.view().graph();

  std::printf("\nBatch reputation evaluation vs worker threads\n");
  std::printf("(population %zu, %zu two-hop evaluations per run; the "
              "deterministic\nparallel_for contract makes every run "
              "bit-identical to serial)\n\n",
              population, evals);
  Table t({"threads", "batch_ms", "speedup", "sum_bits"});
  double base_ms = 0.0;
  std::uint64_t base_bits = 0;
  std::string json = "{\n  \"bench\": \"parallel_reputation_sweep\",\n";
  json += "  \"population\": " + std::to_string(population) + ",\n";
  json += "  \"evals\": " + std::to_string(evals) + ",\n  \"runs\": [";
  bool first = true;
  for (const std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    util::ThreadPool pool(threads);
    const bench::Stopwatch watch;
    std::vector<double> out(evals, 0.0);
    pool.parallel_for(evals, [&](std::size_t i) {
      const auto subject = static_cast<PeerId>(1000 + (i * 37) % population);
      out[i] = engine.reputation(graph, 0, subject);
    });
    double sum = 0.0;
    for (const double v : out) sum += v;  // serial merge, index order
    const double ms = watch.elapsed_ms();
    const auto bits = std::bit_cast<std::uint64_t>(sum);
    if (threads == 1) {
      base_ms = ms;
      base_bits = bits;
    }
    BC_ASSERT_MSG(bits == base_bits,
                  "parallel batch evaluation diverged from serial");
    const double speedup = ms > 0.0 ? base_ms / ms : 0.0;
    t.add_row({std::to_string(threads), fmt(ms, 1), fmt(speedup, 2),
               std::to_string(bits)});
    json += first ? "\n" : ",\n";
    first = false;
    json += "    {\"threads\": " + std::to_string(threads) +
            ", \"batch_ms\": " + fmt(ms, 3) +
            ", \"speedup\": " + fmt(speedup, 3) + "}";
  }
  json += "\n  ]\n}\n";
  std::printf("%s", t.to_string().c_str());
  const char* out_path = std::getenv("BC_BENCH_OUT");
  const std::string path = out_path != nullptr ? out_path : "BENCH_parallel.json";
  if (obs::write_text_file(path, json)) {
    std::printf("\nparallel bench JSON written to %s\n", path.c_str());
  }
}

}  // namespace

int main() {
  std::printf("BarterCast reputation-layer scalability sweep\n");
  std::printf("(one message per peer ingested; 2000 cold two-hop "
              "reputation evaluations)\n\n");
  Table t({"peers", "ingest_total_ms", "eval_us_per_rep", "graph_nodes",
           "graph_edges"});
  for (std::size_t n : {1000ul, 5000ul, 10000ul, 25000ul, 50000ul}) {
    const Row r = run_scale(n, 17);
    t.add_row({std::to_string(r.peers), fmt(r.ingest_ms, 1),
               fmt(r.eval_us, 2), std::to_string(r.graph_nodes),
               std::to_string(r.graph_edges)});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nExpected shape: ingest scales linearly with population; "
              "per-evaluation cost stays bounded by the evaluator's own "
              "degree (the subjective design's scalability argument).\n");
  run_threads_sweep();
  return 0;
}
