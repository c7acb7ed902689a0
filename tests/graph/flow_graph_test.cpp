#include "graph/flow_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace bc::graph {
namespace {

TEST(FlowGraph, StartsEmpty) {
  FlowGraph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.capacity(1, 2), 0);
  EXPECT_FALSE(g.has_node(1));
}

TEST(FlowGraph, AddCapacityAccumulates) {
  FlowGraph g;
  g.add_capacity(1, 2, 100);
  g.add_capacity(1, 2, 50);
  EXPECT_EQ(g.capacity(1, 2), 150);
  EXPECT_EQ(g.capacity(2, 1), 0);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, ZeroAddCreatesNodesNotEdges) {
  FlowGraph g;
  g.add_capacity(1, 2, 0);
  EXPECT_TRUE(g.has_node(1));
  EXPECT_TRUE(g.has_node(2));
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, SetCapacityReplaces) {
  // raise_capacity is a max-merge: a lower or equal amount changes
  // nothing, a higher one replaces the capacity, which both views read.
  FlowGraph g;
  g.add_capacity(1, 2, 100);
  const std::uint64_t gen = g.generation();
  EXPECT_FALSE(g.raise_capacity(1, 2, 30));
  EXPECT_FALSE(g.raise_capacity(1, 2, 100));
  EXPECT_EQ(g.capacity(1, 2), 100);
  EXPECT_EQ(g.generation(), gen);

  EXPECT_TRUE(g.raise_capacity(1, 2, 250));
  EXPECT_EQ(g.capacity(1, 2), 250);  // the table
  EXPECT_EQ(g.out_edges(1)[0], (Edge{2, 250}));
  EXPECT_EQ(g.in_edges(2)[0], (Edge{1, 250}));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.generation(), gen);  // in place: no edge inserted
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, SetCapacityCreatesEdge) {
  FlowGraph g;
  // Nothing rises to zero: no node, no edge.
  EXPECT_FALSE(g.raise_capacity(3, 4, 0));
  EXPECT_FALSE(g.has_node(3));
  EXPECT_FALSE(g.has_node(4));

  EXPECT_TRUE(g.raise_capacity(3, 4, 77));
  EXPECT_EQ(g.capacity(3, 4), 77);
  EXPECT_EQ(g.capacity(4, 3), 0);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.in_edges(4)[0], (Edge{3, 77}));
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, RaisingAnExistingEdgeWritesInPlace) {
  // The capacity table is the only store of a capacity: raising an edge
  // that exists writes its cell, inserts nothing, and both views of the
  // edge read the new value.
  FlowGraph g;
  g.add_capacity(5, 2, 1);
  g.add_capacity(5, 7, 3);
  g.add_capacity(5, 9, 4);
  g.add_capacity(4, 7, 6);
  g.add_capacity(8, 7, 8);
  const std::uint64_t gen = g.generation();
  const std::size_t edges = g.num_edges();
  const std::size_t nodes = g.num_nodes();

  EXPECT_TRUE(g.raise_capacity(5, 7, 300));
  g.add_capacity(4, 7, 10);  // the accumulating update is in place too
  EXPECT_EQ(g.generation(), gen);
  EXPECT_EQ(g.num_edges(), edges);
  EXPECT_EQ(g.num_nodes(), nodes);

  const EdgeView out = g.out_edges(5);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Edge{2, 1}));
  EXPECT_EQ(out[1], (Edge{7, 300}));
  EXPECT_EQ(out[2], (Edge{9, 4}));
  const EdgeView in = g.in_edges(7);
  ASSERT_EQ(in.size(), 3u);
  EXPECT_EQ(in[0], (Edge{4, 16}));
  EXPECT_EQ(in[1], (Edge{5, 300}));
  EXPECT_EQ(in[2], (Edge{8, 8}));
  const std::span<const PeerId> preds = in.peers();
  EXPECT_EQ(std::vector<PeerId>(preds.begin(), preds.end()),
            (std::vector<PeerId>{4, 5, 8}));
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, OutAndInEdgesMirror) {
  FlowGraph g;
  g.add_capacity(1, 2, 10);
  g.add_capacity(3, 2, 20);
  g.add_capacity(1, 4, 30);
  EXPECT_EQ(g.out_edges(1).size(), 2u);
  ASSERT_EQ(g.in_edges(2).size(), 2u);
  // In-edge spans are ascending by tail peer and carry the edge capacity.
  EXPECT_EQ(g.in_edges(2)[0], (Edge{1, 10}));
  EXPECT_EQ(g.in_edges(2)[1], (Edge{3, 20}));
  EXPECT_TRUE(g.check_invariants());
}

TEST(FlowGraph, UnknownNodeAccessorsAreEmpty) {
  FlowGraph g;
  EXPECT_TRUE(g.out_edges(9).empty());
  EXPECT_TRUE(g.in_edges(9).empty());
}

TEST(FlowGraph, NodesListsAll) {
  FlowGraph g;
  g.add_capacity(5, 7, 1);
  g.add_capacity(7, 9, 1);
  auto nodes = g.nodes();
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(nodes, (std::vector<PeerId>{5, 7, 9}));
}

TEST(FlowGraph, TotalCapacity) {
  FlowGraph g;
  g.add_capacity(1, 2, 10);
  g.add_capacity(2, 3, 20);
  EXPECT_EQ(g.total_capacity(), 30);
}

TEST(FlowGraph, NodesAreSortedRegardlessOfInsertionOrder) {
  // Regression: nodes() used to surface unordered_map iteration order,
  // which leaks implementation-defined ordering into gossip selection and
  // exports. It must be ascending whatever the insertion order.
  FlowGraph a;
  a.add_capacity(9, 2, 1);
  a.add_capacity(5, 7, 1);
  a.add_capacity(1, 9, 1);
  FlowGraph b;
  b.add_capacity(1, 9, 1);
  b.add_capacity(5, 7, 1);
  b.add_capacity(9, 2, 1);
  const std::vector<PeerId> expected{1, 2, 5, 7, 9};
  EXPECT_EQ(a.nodes(), expected);
  EXPECT_EQ(b.nodes(), expected);
}

TEST(FlowGraph, EdgeSpansSortedAscending) {
  FlowGraph g;
  g.add_capacity(5, 9, 1);
  g.add_capacity(5, 2, 2);
  g.add_capacity(5, 7, 3);
  g.add_capacity(4, 7, 4);
  g.add_capacity(8, 7, 5);
  const auto out = g.out_edges(5);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Edge{2, 2}));
  EXPECT_EQ(out[1], (Edge{7, 3}));
  EXPECT_EQ(out[2], (Edge{9, 1}));
  const auto in = g.in_edges(7);
  ASSERT_EQ(in.size(), 3u);
  EXPECT_EQ(in[0], (Edge{4, 4}));
  EXPECT_EQ(in[1], (Edge{5, 3}));
  EXPECT_EQ(in[2], (Edge{8, 5}));
}

TEST(FlowGraphDeathTest, SelfEdgeRejected) {
  FlowGraph g;
  EXPECT_DEATH(g.add_capacity(1, 1, 10), "self-edges");
  EXPECT_DEATH(g.raise_capacity(1, 1, 10), "self-edges");
}

TEST(FlowGraphDeathTest, NegativeCapacityRejected) {
  FlowGraph g;
  EXPECT_DEATH(g.add_capacity(1, 2, -5), "amount");
}

}  // namespace
}  // namespace bc::graph
