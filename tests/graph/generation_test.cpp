// Tests for the FlowGraph structural-generation counter and the EdgeView
// invalidation guard, the gate for stale views next to ASan. Debug builds must
// fail stop on a stale view; release builds must pay nothing for the guard
// (EdgeView is layout-identical to std::span<const Edge>, checked at compile
// time).
#include <cstdint>
#include <span>

#include "graph/flow_graph.hpp"
#include "gtest/gtest.h"

namespace bc::graph {
namespace {

TEST(GenerationTest, BumpsOnEveryStructuralMutation) {
  FlowGraph g;
  const std::uint64_t start = g.generation();
  g.add_capacity(1, 2, 10);  // edge insert
  EXPECT_GT(g.generation(), start);

  const std::uint64_t after_insert = g.generation();
  g.set_capacity(1, 2, 0);  // edge erase
  EXPECT_GT(g.generation(), after_insert);

  const std::uint64_t after_erase = g.generation();
  g.set_capacity(1, 2, 3);  // set_capacity insert path
  EXPECT_GT(g.generation(), after_erase);

  const std::uint64_t after_set = g.generation();
  g.add_capacity(5, 6, 1);
  g.remove_node(5);
  EXPECT_GT(g.generation(), after_set);

  const std::uint64_t before_clear = g.generation();
  g.clear();
  EXPECT_GT(g.generation(), before_clear);
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
  g.set_capacity(1, 2, 7);  // in-place replace
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
