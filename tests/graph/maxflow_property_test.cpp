// Additional algebraic properties of the maxflow implementations, checked
// on random graphs.
#include <gtest/gtest.h>

#include "graph/maxflow.hpp"
#include "util/rng.hpp"

namespace bc::graph {
namespace {

FlowGraph random_graph(Rng& rng, PeerId nodes, int edges, Bytes max_cap) {
  FlowGraph g;
  for (int e = 0; e < edges; ++e) {
    const auto a = static_cast<PeerId>(rng.index(nodes));
    auto b = static_cast<PeerId>(rng.index(nodes));
    if (a == b) b = (b + 1) % nodes;
    g.add_capacity(a, b, rng.uniform_int(1, max_cap));
  }
  g.add_capacity(0, 1, 0);
  g.add_capacity(nodes - 1, nodes - 2, 0);
  return g;
}

class MaxflowAlgebra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxflowAlgebra, ScalingCapacitiesScalesFlow) {
  Rng rng(GetParam());
  const FlowGraph g = random_graph(rng, 10, 30, 100);
  FlowGraph scaled;
  for (PeerId u : g.nodes()) {
    for (const auto& [v, c] : g.out_edges(u)) {
      scaled.add_capacity(u, v, c * 7);
    }
  }
  scaled.add_capacity(0, 1, 0);
  scaled.add_capacity(9, 8, 0);
  EXPECT_EQ(max_flow_edmonds_karp(scaled, 0, 9),
            7 * max_flow_edmonds_karp(g, 0, 9));
  EXPECT_EQ(max_flow_two_hop(scaled, 0, 9), 7 * max_flow_two_hop(g, 0, 9));
}

TEST_P(MaxflowAlgebra, AddingAnEdgeNeverDecreasesFlow) {
  Rng rng(GetParam() ^ 0x55ULL);
  FlowGraph g = random_graph(rng, 8, 20, 50);
  const Bytes before = max_flow_edmonds_karp(g, 0, 7);
  const Bytes before2h = max_flow_two_hop(g, 0, 7);
  for (int round = 0; round < 10; ++round) {
    const auto a = static_cast<PeerId>(rng.index(8));
    auto b = static_cast<PeerId>(rng.index(8));
    if (a == b) b = (b + 1) % 8;
    g.add_capacity(a, b, rng.uniform_int(1, 30));
    EXPECT_GE(max_flow_edmonds_karp(g, 0, 7), before);
    EXPECT_GE(max_flow_two_hop(g, 0, 7), before2h);
  }
}

TEST_P(MaxflowAlgebra, GrowingAnEdgeGrowsTwoHopMonotonically) {
  // BarterCast applies gossip with max-merge, so edges only grow; the
  // reputation flows must be monotone under that operation.
  Rng rng(GetParam() ^ 0x99ULL);
  FlowGraph g = random_graph(rng, 8, 16, 40);
  Bytes prev = max_flow_two_hop(g, 2, 5);
  for (int round = 0; round < 20; ++round) {
    const auto a = static_cast<PeerId>(rng.index(8));
    auto b = static_cast<PeerId>(rng.index(8));
    if (a == b) b = (b + 1) % 8;
    const Bytes current = g.capacity(a, b);
    g.raise_capacity(a, b, current + rng.uniform_int(1, 20));
    const Bytes now = max_flow_two_hop(g, 2, 5);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST_P(MaxflowAlgebra, TwoHopDecomposition) {
  // two_hop(s,t) == direct + sum over intermediates of min(in, out).
  Rng rng(GetParam() ^ 0x31ULL);
  const FlowGraph g = random_graph(rng, 9, 27, 60);
  for (PeerId t = 1; t < 9; ++t) {
    Bytes expected = g.capacity(0, t);
    for (PeerId v = 0; v < 9; ++v) {
      if (v == 0 || v == t) continue;
      expected += std::min(g.capacity(0, v), g.capacity(v, t));
    }
    EXPECT_EQ(max_flow_two_hop(g, 0, t), expected) << "t=" << t;
  }
}

TEST_P(MaxflowAlgebra, FlowIsZeroIffNoPath) {
  // Build two disjoint clusters; flow across must be zero, within positive.
  Rng rng(GetParam() ^ 0x17ULL);
  FlowGraph g;
  for (int e = 0; e < 12; ++e) {
    const auto a = static_cast<PeerId>(rng.index(4));
    auto b = static_cast<PeerId>(rng.index(4));
    if (a == b) b = (b + 1) % 4;
    g.add_capacity(a, b, rng.uniform_int(1, 9));
    g.add_capacity(a + 10, b + 10, rng.uniform_int(1, 9));
  }
  for (PeerId s = 0; s < 4; ++s) {
    for (PeerId t = 10; t < 14; ++t) {
      EXPECT_EQ(max_flow_ford_fulkerson(g, s, t), 0);
      EXPECT_EQ(max_flow_two_hop(g, s, t), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxflowAlgebra,
                         ::testing::Values(3ULL, 5ULL, 8ULL, 13ULL));

}  // namespace
}  // namespace bc::graph
