// Scalability study (paper §6 future work: "we plan to perform simulations
// with up to 100,000 peers and assess the scalability of our mechanism").
//
// The full piece-level community simulator is deliberately run at the
// paper's 100-peer scale; the scalability question for BarterCast itself is
// about the *reputation layer*: how do subjective-graph size, message
// application, and two-hop reputation evaluation behave as the population
// grows? This bench sweeps the graph layer to 50k peers and reports per-
// operation costs and memory-proxy statistics, printed as a table. The
// ingest column times receive_message only: each scale's messages are
// generated before its stopwatch starts.
#include <cstdio>
#include <string>
#include <vector>

#include "bartercast/node.hpp"
#include "stopwatch.hpp"
#include "util/assert.hpp"
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

  // One BarterCast message from every peer in the population, generated
  // up front: Rng::zipf is O(n) per draw and would dominate the timing.
  std::vector<BarterCastMessage> messages(population);
  for (std::size_t i = 0; i < population; ++i) {
    const auto sender = static_cast<PeerId>(1000 + i);
    BarterCastMessage& msg = messages[i];
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
  }
  const bench::Stopwatch ingest;
  for (const BarterCastMessage& msg : messages) evaluator.receive_message(msg);
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
  return 0;
}
