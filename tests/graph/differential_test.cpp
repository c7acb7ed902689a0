// Differential suite: the dense FlowGraph/maxflow stack vs. the retained
// hash-map ReferenceFlowGraph oracle (reference_graph.hpp). Both sides are
// driven through identical randomized sequences of the two mutations a
// grow-only graph has (add_capacity and the max-merge raise_capacity), and
// every query surface plus all three maxflow variants must agree at every
// checkpoint. A hub's long lists against short ones, and sums that
// saturate, check the two-hop walk whichever list it takes. Runs under the
// asan-ubsan preset in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
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

// Builds the same graph on both sides.
struct GraphPair {
  FlowGraph dense;
  ReferenceFlowGraph ref;

  void add(PeerId u, PeerId v, Bytes cap) {
    dense.add_capacity(u, v, cap);
    ref.add_capacity(u, v, cap);
  }
};

// two_hop(s, t) against the oracle's and bounded Ford-Fulkerson(2) on both
// graphs, from s to t and back.
void expect_two_hop_agrees(const GraphPair& g, PeerId s, PeerId t) {
  for (const auto& [from, to] : {std::pair{s, t}, std::pair{t, s}}) {
    const Bytes flow = max_flow_two_hop(g.dense, from, to);
    EXPECT_EQ(flow, ref_max_flow_two_hop(g.ref, from, to))
        << "two_hop(" << from << ", " << to << ")";
    EXPECT_EQ(flow, max_flow_ford_fulkerson(g.dense, from, to, 2))
        << "bounded_ff(" << from << ", " << to << ")";
    EXPECT_EQ(flow, ref_max_flow_ford_fulkerson(g.ref, from, to, 2))
        << "ref_bounded_ff(" << from << ", " << to << ")";
  }
}

constexpr PeerId kHub = 5000;
constexpr PeerId kFanout = 1200;  // the hub's neighbours are 1..kFanout

// The two-hop walk takes the shorter of out(s) and in(t) and binary-searches
// each of its ids forward in the longer one, so which list it walks depends
// on the query. two_hop(hub, t) walks in(t) against the hub's 1,200
// successors; two_hop(t, hub) walks out(t) against its 1,200 predecessors.
// The subjects' few neighbours include both ends of the hub's lists and ids
// outside them (0 below, kFanout + 1 above).
TEST(DifferentialTwoHop, HubAgainstShortListsBothWays) {
  Rng rng(2024);
  GraphPair g;
  for (PeerId v = 1; v <= kFanout; ++v) {
    g.add(kHub, v, rng.uniform_int(1, 1000));
    g.add(v, kHub, rng.uniform_int(1, 1000));
  }
  constexpr PeerId kFirstSubject = 6000;
  constexpr PeerId kSubjects = 20;
  for (PeerId t = kFirstSubject; t < kFirstSubject + kSubjects; ++t) {
    const std::int64_t handful = rng.uniform_int(1, 6);
    for (std::int64_t k = 0; k < handful; ++k) {
      g.add(static_cast<PeerId>(rng.uniform_int(0, kFanout + 1)), t,
            rng.uniform_int(1, 1000));
      g.add(t, static_cast<PeerId>(rng.uniform_int(0, kFanout + 1)),
            rng.uniform_int(1, 1000));
    }
  }
  g.add(1, kFirstSubject, 5);
  g.add(kFanout, kFirstSubject, 7);
  g.add(kFirstSubject + 1, 1, 3);
  g.add(kFirstSubject + 1, kFanout, 9);
  g.add(kHub, kFirstSubject + 2, 11);  // direct edges
  g.add(kFirstSubject + 3, kHub, 13);
  ASSERT_TRUE(g.dense.check_invariants());
  ASSERT_EQ(g.dense.out_edges(kHub).size(), kFanout + 1);
  for (PeerId t = kFirstSubject; t < kFirstSubject + kSubjects; ++t) {
    ASSERT_LE(g.dense.in_edges(t).size(), 8u);
    ASSERT_LE(g.dense.out_edges(t).size(), 8u);
    expect_two_hop_agrees(g, kHub, t);
  }
}

// Capacities near INT64_MAX: the sum over shared neighbours saturates, and
// it must saturate to the same value whichever list the walk takes.
TEST(DifferentialTwoHop, SaturatesNearInt64Max) {
  constexpr Bytes kMax = std::numeric_limits<Bytes>::max();
  GraphPair g;
  for (PeerId v = 1; v <= kFanout; ++v) {
    g.add(kHub, v, kMax - v);
    g.add(v, kHub, kMax - 2 * Bytes{v});
  }
  constexpr PeerId kSubject = 6000;
  for (PeerId v : {PeerId{1}, PeerId{2}, PeerId{600}, kFanout}) {
    g.add(v, kSubject, kMax - 7);
    g.add(kSubject, v, kMax - 3);
  }
  g.add(kHub, kSubject, kMax / 2);
  ASSERT_TRUE(g.dense.check_invariants());
  EXPECT_EQ(max_flow_two_hop(g.dense, kHub, kSubject), kMax);
  EXPECT_EQ(max_flow_two_hop(g.dense, kSubject, kHub), kMax);
  expect_two_hop_agrees(g, kHub, kSubject);
  // Longer paths only add flow, so the unbounded variants saturate too;
  // their residual scans add deltas near INT64_MAX to capacities near it.
  EXPECT_EQ(max_flow_ford_fulkerson(g.dense, kHub, kSubject), kMax);
  EXPECT_EQ(max_flow_ford_fulkerson(g.dense, kSubject, kHub), kMax);
  EXPECT_EQ(max_flow_edmonds_karp(g.dense, kHub, kSubject), kMax);
  EXPECT_EQ(max_flow_edmonds_karp(g.dense, kSubject, kHub), kMax);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialRandom,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 17ULL, 42ULL,
                                           1234ULL, 99999ULL));

}  // namespace
}  // namespace bc::graph
