// Tests for the FlowGraph structural-generation counter and the EdgeView
// invalidation guard, the gate for stale views next to ASan. An edge insert
// may move a node's id list, so debug builds must fail stop on a view taken
// before one; an in-place raise only writes the capacity table, which views
// read at access time, so it must leave views valid. Release builds compile
// the guard out.
#include <cstdint>
#include <span>

#include "graph/flow_graph.hpp"
#include "gtest/gtest.h"

namespace bc::graph {
namespace {

TEST(GenerationTest, BumpsOnEveryStructuralMutation) {
  // The graph only grows, so an edge insert is the one structural
  // mutation, through either add_capacity or raise_capacity.
  FlowGraph g;
  const std::uint64_t start = g.generation();
  g.add_capacity(1, 2, 10);  // add_capacity insert path
  EXPECT_GT(g.generation(), start);

  const std::uint64_t after_add = g.generation();
  g.raise_capacity(2, 1, 3);  // raise_capacity insert path
  EXPECT_GT(g.generation(), after_add);

  const std::uint64_t after_raise = g.generation();
  g.raise_capacity(5, 6, 1);  // insert with two new nodes
  EXPECT_GT(g.generation(), after_raise);
}

TEST(GenerationTest, ContentUpdatesDoNotBump) {
  // In-place capacity updates and node interning leave every outstanding
  // view's storage where it was: the counter must not move, or the debug
  // guard would reject views that are in fact still valid.
  FlowGraph g;
  g.add_capacity(1, 2, 10);
  const std::uint64_t gen = g.generation();
  g.add_capacity(1, 2, 5);  // saturating in-place update
  EXPECT_EQ(g.generation(), gen);
  g.raise_capacity(1, 2, 70);  // in-place raise
  EXPECT_EQ(g.generation(), gen);
  g.raise_capacity(1, 2, 7);  // no raise
  EXPECT_EQ(g.generation(), gen);
  g.add_capacity(3, 4, 0);  // node creation without an edge
  EXPECT_EQ(g.generation(), gen);
}

TEST(GenerationTest, ViewsStayValidAcrossContentUpdates) {
  FlowGraph g;
  g.add_capacity(1, 2, 10);
  const EdgeView out = g.out_edges(1);
  g.add_capacity(1, 2, 5);  // in-place: no structural mutation
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].cap, 15);
}

#ifndef NDEBUG
TEST(GenerationDeathTest, StaleViewAbortsInDebugBuilds) {
  // The injected dangling-span bug: hold out_edges() across a structural
  // mutation, then touch the view. The generation snapshot no longer
  // matches, so the next access must abort.
  FlowGraph g;
  g.add_capacity(1, 2, 10);
  EXPECT_DEATH(
      {
        const EdgeView out = g.out_edges(1);
        g.add_capacity(3, 1, 4);  // insert: invalidates `out`
        (void)out.size();
      },
      "BC_ASSERT failed");
}
#else
TEST(GenerationDeathTest, StaleViewAbortsInDebugBuilds) {
  GTEST_SKIP() << "generation checks compile out in NDEBUG builds";
}
#endif

TEST(GenerationTest, EmptyViewForUnknownNodeNeverTrips) {
  FlowGraph g;
  const EdgeView none = g.out_edges(99);
  g.add_capacity(1, 2, 10);
  // A default-constructed view has no owner to go stale against.
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace bc::graph
