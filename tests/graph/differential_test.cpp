// Differential suite: the dense FlowGraph/maxflow stack vs. the retained
// hash-map ReferenceFlowGraph oracle (reference_graph.hpp). Both sides are
// driven through identical randomized sequences of the two mutations a
// grow-only graph has (add_capacity and the max-merge raise_capacity), and
// every query surface plus all three maxflow variants must agree at every
// checkpoint. Runs under the asan-ubsan preset in CI.
#include <gtest/gtest.h>

#include <vector>

#include "graph/flow_graph.hpp"
#include "graph/maxflow.hpp"
#include "graph/reference_graph.hpp"
#include "util/rng.hpp"

namespace bc::graph {
namespace {

constexpr PeerId kPeers = 12;  // small world: dense enough for 2-hop paths

class DifferentialRandom : public ::testing::TestWithParam<std::uint64_t> {};

void expect_same_state(const FlowGraph& dense, const ReferenceFlowGraph& ref) {
  ASSERT_TRUE(dense.check_invariants());
  ASSERT_TRUE(ref.check_invariants());
  EXPECT_EQ(dense.num_nodes(), ref.num_nodes());
  EXPECT_EQ(dense.num_edges(), ref.num_edges());
  EXPECT_EQ(dense.nodes(), ref.nodes());
  EXPECT_EQ(dense.total_capacity(), ref.total_capacity());
  for (PeerId u = 0; u < kPeers; ++u) {
    EXPECT_EQ(dense.has_node(u), ref.has_node(u));
    EXPECT_EQ(dense.out_capacity(u), ref.out_capacity(u));
    EXPECT_EQ(dense.in_capacity(u), ref.in_capacity(u));
    for (PeerId v = 0; v < kPeers; ++v) {
      EXPECT_EQ(dense.capacity(u, v), ref.capacity(u, v))
          << "edge (" << u << ", " << v << ")";
    }
  }
}

void expect_same_flows(const FlowGraph& dense, const ReferenceFlowGraph& ref,
                       PeerId s, PeerId t) {
  EXPECT_EQ(max_flow_two_hop(dense, s, t), ref_max_flow_two_hop(ref, s, t))
      << "two_hop(" << s << ", " << t << ")";
  EXPECT_EQ(max_flow_ford_fulkerson(dense, s, t, 2),
            ref_max_flow_ford_fulkerson(ref, s, t, 2))
      << "bounded_ff(" << s << ", " << t << ")";
  EXPECT_EQ(max_flow_ford_fulkerson(dense, s, t),
            ref_max_flow_ford_fulkerson(ref, s, t))
      << "full_ff(" << s << ", " << t << ")";
  EXPECT_EQ(max_flow_edmonds_karp(dense, s, t),
            ref_max_flow_edmonds_karp(ref, s, t))
      << "edmonds_karp(" << s << ", " << t << ")";
}

TEST_P(DifferentialRandom, RandomOpsAgreeEverywhere) {
  Rng rng(GetParam());
  FlowGraph dense;
  ReferenceFlowGraph ref;
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    const PeerId u = static_cast<PeerId>(rng.uniform_int(0, kPeers - 1));
    PeerId v = static_cast<PeerId>(rng.uniform_int(0, kPeers - 2));
    if (v >= u) ++v;  // uniform over v != u
    if (op < 6) {  // accumulating transfers, like an owner's own edges
      const Bytes amount = rng.uniform_int(0, 1000);
      dense.add_capacity(u, v, amount);
      ref.add_capacity(u, v, amount);
    } else {  // gossip merges: op 6 lands below c(u, v), 7 at it, 8-9 above
      const Bytes current = dense.capacity(u, v);
      Bytes amount = current;
      if (op == 6) amount -= rng.uniform_int(1, 500);
      if (op >= 8) amount += rng.uniform_int(1, 1000);
      const bool raised = dense.raise_capacity(u, v, amount);
      EXPECT_EQ(raised, ref.raise_capacity(u, v, amount));
      EXPECT_EQ(raised, amount > current);
    }
    if (step % 40 == 39) expect_same_state(dense, ref);
  }
  expect_same_state(dense, ref);
  for (PeerId s = 0; s < kPeers; ++s) {
    for (PeerId t = 0; t < kPeers; ++t) {
      if (s == t) continue;
      expect_same_flows(dense, ref, s, t);
    }
  }
}

TEST_P(DifferentialRandom, FlowsAgreeOnDenserGraphs) {
  Rng rng(GetParam() ^ 0xdecafbadULL);
  FlowGraph dense;
  ReferenceFlowGraph ref;
  // Adds only: build a denser web so augmenting paths get long enough to
  // exercise the reverse-residual bookkeeping in all variants.
  for (int i = 0; i < 80; ++i) {
    const PeerId u = static_cast<PeerId>(rng.uniform_int(0, kPeers - 1));
    PeerId v = static_cast<PeerId>(rng.uniform_int(0, kPeers - 2));
    if (v >= u) ++v;
    const Bytes amount = rng.uniform_int(1, 500);
    dense.add_capacity(u, v, amount);
    ref.add_capacity(u, v, amount);
  }
  expect_same_state(dense, ref);
  for (int probe = 0; probe < 60; ++probe) {
    const PeerId s = static_cast<PeerId>(rng.uniform_int(0, kPeers - 1));
    const PeerId t = static_cast<PeerId>(rng.uniform_int(0, kPeers - 1));
    if (s == t) continue;
    expect_same_flows(dense, ref, s, t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialRandom,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 17ULL, 42ULL,
                                           1234ULL, 99999ULL));

}  // namespace
}  // namespace bc::graph
