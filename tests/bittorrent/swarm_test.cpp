#include "bittorrent/swarm.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bc::bt {
namespace {

Torrent small_torrent(Bytes size = 1000, Bytes piece = 100) {
  Torrent t;
  t.id = 0;
  t.size = size;
  t.piece_size = piece;
  t.num_pieces = static_cast<int>((size + piece - 1) / piece);
  return t;
}

struct SwarmFixture : ::testing::Test {
  SwarmFixture() : swarm(small_torrent(), Rng(1)) {}

  /// Swarm::transfer, noting the downloader when this transfer completed
  /// it, as the community simulator does: a complete peer takes nothing,
  /// so the transfer that moves bytes and leaves it complete is the one.
  Bytes transfer(PeerId uploader, PeerId downloader, Bytes budget) {
    const Bytes moved = swarm.transfer(uploader, downloader, budget);
    if (moved > 0 && swarm.is_complete(downloader)) {
      completed.push_back(downloader);
    }
    return moved;
  }

  Swarm swarm;
  std::vector<PeerId> completed;
};

TEST_F(SwarmFixture, SeederJoinsComplete) {
  swarm.add_seeder(1);
  EXPECT_TRUE(swarm.has_peer(1));
  EXPECT_TRUE(swarm.is_complete(1));
  EXPECT_DOUBLE_EQ(swarm.progress(1), 1.0);
  EXPECT_EQ(swarm.availability().count(0), 1);
  EXPECT_TRUE(swarm.check_invariants());
}

TEST_F(SwarmFixture, LeecherJoinsEmpty) {
  swarm.add_leecher(2);
  EXPECT_FALSE(swarm.is_complete(2));
  EXPECT_DOUBLE_EQ(swarm.progress(2), 0.0);
  EXPECT_EQ(swarm.availability().count(0), 0);
}

TEST_F(SwarmFixture, InterestSemantics) {
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  EXPECT_TRUE(swarm.interested(2, 1));
  EXPECT_FALSE(swarm.interested(1, 2));
}

TEST_F(SwarmFixture, TransferMovesWholeFile) {
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  const Bytes moved = transfer(1, 2, 1000);
  EXPECT_EQ(moved, 1000);
  EXPECT_TRUE(swarm.is_complete(2));
  EXPECT_EQ(completed, (std::vector<PeerId>{2}));
  EXPECT_TRUE(swarm.check_invariants());
}

TEST_F(SwarmFixture, TransferInChunksCompletesOnce) {
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  Bytes total = 0;
  for (int i = 0; i < 25; ++i) {
    total += transfer(1, 2, 47);
  }
  EXPECT_EQ(total, 1000);
  EXPECT_TRUE(swarm.is_complete(2));
  EXPECT_EQ(completed.size(), 1u);  // completed by exactly one transfer
}

TEST_F(SwarmFixture, TransferBudgetNotExceeded) {
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  const Bytes moved = swarm.transfer(1, 2, 250);
  EXPECT_EQ(moved, 250);
  EXPECT_FALSE(swarm.is_complete(2));
  EXPECT_EQ(swarm.pieces(2).count(), 2);  // 250 bytes -> 2 complete pieces
}

TEST_F(SwarmFixture, TransferToCompletePeerIsZero) {
  swarm.add_seeder(1);
  swarm.add_seeder(2);
  EXPECT_EQ(swarm.transfer(1, 2, 500), 0);
}

TEST_F(SwarmFixture, TransferFromUselessUploaderIsZero) {
  swarm.add_leecher(1);  // has nothing
  swarm.add_leecher(2);
  EXPECT_EQ(swarm.transfer(1, 2, 500), 0);
}

TEST_F(SwarmFixture, TwoUploadersNeverFetchSamePiece) {
  swarm.add_seeder(1);
  swarm.add_seeder(2);
  swarm.add_leecher(3);
  // Partial transfers on both links leave two distinct in-flight pieces.
  swarm.transfer(1, 3, 50);
  swarm.transfer(2, 3, 50);
  EXPECT_EQ(swarm.pieces(3).count(), 0);
  // Finishing both links yields two distinct pieces.
  swarm.transfer(1, 3, 50);
  swarm.transfer(2, 3, 50);
  EXPECT_EQ(swarm.pieces(3).count(), 2);
  EXPECT_TRUE(swarm.check_invariants());
}

TEST_F(SwarmFixture, ReleaseLinkReturnsPieceToPool) {
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  swarm.transfer(1, 2, 50);  // half a piece in flight
  swarm.release_link(1, 2);
  EXPECT_TRUE(swarm.check_invariants());
  // Progress was discarded; completing the file still takes 1000 bytes.
  EXPECT_EQ(swarm.transfer(1, 2, 2000), 1000);
}

TEST_F(SwarmFixture, ReleaseUnknownLinkIsNoop) {
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  swarm.release_link(1, 2);
  swarm.release_link(2, 1);
}

TEST_F(SwarmFixture, RoundByteAccounting) {
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  swarm.transfer(1, 2, 120);
  EXPECT_EQ(swarm.last_round_bytes(1, 2), 0);  // current round not closed
  swarm.end_round();
  EXPECT_EQ(swarm.last_round_bytes(1, 2), 120);
  swarm.end_round();
  EXPECT_EQ(swarm.last_round_bytes(1, 2), 0);
}

TEST_F(SwarmFixture, RemovePeerReleasesEverything) {
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  swarm.transfer(1, 2, 150);  // piece 2 in flight at 50 bytes
  swarm.remove_peer(1);
  EXPECT_FALSE(swarm.has_peer(1));
  EXPECT_TRUE(swarm.check_invariants());
  // Availability dropped back to only what 2 holds.
  int total = 0;
  for (int p = 0; p < swarm.torrent().num_pieces; ++p) {
    total += swarm.availability().count(p);
  }
  EXPECT_EQ(total, swarm.pieces(2).count());
}

TEST_F(SwarmFixture, RemoveDownloaderMidTransfer) {
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  swarm.transfer(1, 2, 150);
  swarm.remove_peer(2);
  EXPECT_FALSE(swarm.has_peer(2));
  EXPECT_TRUE(swarm.check_invariants());
}

TEST_F(SwarmFixture, MembersSorted) {
  swarm.add_seeder(5);
  swarm.add_leecher(1);
  swarm.add_leecher(3);
  EXPECT_EQ(swarm.members(), (std::vector<PeerId>{1, 3, 5}));
}

TEST(SwarmLastPiece, ShortTailPiece) {
  // 950 bytes with 100-byte pieces: last piece is 50 bytes.
  Torrent t;
  t.id = 0;
  t.size = 950;
  t.piece_size = 100;
  t.num_pieces = 10;
  EXPECT_EQ(t.piece_bytes(9), 50);
  EXPECT_EQ(t.piece_bytes(0), 100);

  Swarm swarm(t, Rng(2));
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  EXPECT_EQ(swarm.transfer(1, 2, 10'000), 950);
  EXPECT_TRUE(swarm.is_complete(2));
}

TEST(SwarmPropagation, LeecherToLeecherRelay) {
  // 2 downloads from the seed, then serves 3 from its partial pieces.
  Swarm swarm(small_torrent(), Rng(3));
  swarm.add_seeder(1);
  swarm.add_leecher(2);
  swarm.add_leecher(3);
  swarm.transfer(1, 2, 300);
  EXPECT_EQ(swarm.pieces(2).count(), 3);
  EXPECT_TRUE(swarm.interested(3, 2));
  const Bytes moved = swarm.transfer(2, 3, 10'000);
  EXPECT_EQ(moved, 300);  // everything 2 owns
  EXPECT_EQ(swarm.pieces(3).count(), 3);
}

TEST(SwarmDeathTest, DuplicateJoinRejected) {
  Swarm swarm(small_torrent(), Rng(4));
  swarm.add_leecher(1);
  EXPECT_DEATH(swarm.add_leecher(1), "already");
}

TEST(SwarmDeathTest, TransferForeignPeerRejected) {
  Swarm swarm(small_torrent(), Rng(5));
  swarm.add_seeder(1);
  EXPECT_DEATH(swarm.transfer(1, 9, 100), "not in swarm");
}

}  // namespace
}  // namespace bc::bt
