#include "graph/peer_index.hpp"

#include <gtest/gtest.h>

namespace bc::graph {
namespace {

TEST(PeerIndex, InternAssignsDenseSlots) {
  PeerIndex idx;
  EXPECT_EQ(idx.intern(100), 0u);
  EXPECT_EQ(idx.intern(50), 1u);
  EXPECT_EQ(idx.intern(200), 2u);
  // Re-interning is idempotent.
  EXPECT_EQ(idx.intern(50), 1u);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_TRUE(idx.check_invariants());
}

TEST(PeerIndex, FindAndPeerRoundTrip) {
  PeerIndex idx;
  idx.intern(7);
  idx.intern(3);
  EXPECT_EQ(idx.find(7), 0u);
  EXPECT_EQ(idx.find(3), 1u);
  EXPECT_EQ(idx.find(99), kNoNode);
  EXPECT_EQ(idx.peer(0), 7u);
  EXPECT_EQ(idx.peer(1), 3u);
  EXPECT_EQ(idx.peer(5), kInvalidPeer);
  EXPECT_TRUE(idx.contains(7));
  EXPECT_FALSE(idx.contains(99));
}

TEST(PeerIndex, IdsSortedAscending) {
  PeerIndex idx;
  idx.intern(9);
  idx.intern(2);
  idx.intern(5);
  EXPECT_EQ(idx.ids_sorted(), (std::vector<PeerId>{2, 5, 9}));
}

}  // namespace
}  // namespace bc::graph
