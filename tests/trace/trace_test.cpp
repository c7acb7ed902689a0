#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace bc::trace {
namespace {

PeerProfile profile_with_sessions() {
  PeerProfile p;
  p.id = 0;
  p.sessions = {{10.0, 20.0}, {30.0, 40.0}};
  return p;
}

TEST(PeerProfile, OnlineAt) {
  const auto p = profile_with_sessions();
  EXPECT_FALSE(p.online_at(5.0));
  EXPECT_TRUE(p.online_at(10.0));
  EXPECT_TRUE(p.online_at(15.0));
  EXPECT_FALSE(p.online_at(20.0));  // [start, end)
  EXPECT_FALSE(p.online_at(25.0));
  EXPECT_TRUE(p.online_at(35.0));
  EXPECT_FALSE(p.online_at(40.0));
}

TEST(PeerProfile, NextOnline) {
  const auto p = profile_with_sessions();
  EXPECT_DOUBLE_EQ(p.next_online(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.next_online(15.0), 15.0);  // already online
  EXPECT_DOUBLE_EQ(p.next_online(25.0), 30.0);
  EXPECT_LT(p.next_online(45.0), 0.0);  // never again
}

TEST(PeerProfile, TotalUptime) {
  const auto p = profile_with_sessions();
  EXPECT_DOUBLE_EQ(p.total_uptime(), 20.0);
}

TEST(PeerProfile, NoSessions) {
  PeerProfile p;
  EXPECT_FALSE(p.online_at(0.0));
  EXPECT_LT(p.next_online(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.total_uptime(), 0.0);
}

Trace minimal_valid() {
  Trace t;
  t.duration = 100.0;
  t.files.push_back({0, 1000, 100});
  PeerProfile p;
  p.id = 0;
  p.sessions = {{0.0, 50.0}};
  t.peers.push_back(p);
  t.requests.push_back({0, 0, 5.0});
  return t;
}

TEST(TraceValidate, AcceptsMinimal) {
  EXPECT_EQ(minimal_valid().validate(), "");
}

TEST(TraceValidate, RejectsZeroDuration) {
  Trace t = minimal_valid();
  t.duration = 0.0;
  EXPECT_NE(t.validate(), "");
}

TEST(TraceValidate, RejectsNonDenseFileIds) {
  Trace t = minimal_valid();
  t.files[0].id = 5;
  EXPECT_NE(t.validate(), "");
}

TEST(TraceValidate, RejectsBadPieceSize) {
  Trace t = minimal_valid();
  t.files[0].piece_size = 0;
  EXPECT_NE(t.validate(), "");
  t.files[0].piece_size = 5000;  // > file size
  EXPECT_NE(t.validate(), "");
}

TEST(TraceValidate, RejectsInvertedSession) {
  Trace t = minimal_valid();
  t.peers[0].sessions = {{30.0, 20.0}};
  EXPECT_NE(t.validate(), "");
}

TEST(TraceValidate, RejectsOverlappingSessions) {
  Trace t = minimal_valid();
  t.peers[0].sessions = {{0.0, 30.0}, {20.0, 50.0}};
  EXPECT_NE(t.validate(), "");
}

TEST(TraceValidate, RejectsSessionBeyondDuration) {
  Trace t = minimal_valid();
  t.peers[0].sessions = {{0.0, 200.0}};
  EXPECT_NE(t.validate(), "");
}

TEST(TraceValidate, RejectsUnknownRequestTargets) {
  Trace t = minimal_valid();
  t.requests[0].swarm = 9;
  EXPECT_NE(t.validate(), "");
  t = minimal_valid();
  t.requests[0].peer = 9;
  EXPECT_NE(t.validate(), "");
}

TEST(TraceValidate, RejectsUnsortedRequests) {
  Trace t = minimal_valid();
  t.files.push_back({1, 1000, 100});
  t.requests.push_back({0, 1, 1.0});  // earlier than the existing 5.0
  EXPECT_NE(t.validate(), "");
}

TEST(TraceValidate, RejectsDuplicateRequests) {
  Trace t = minimal_valid();
  t.requests.push_back({0, 0, 6.0});
  EXPECT_NE(t.validate(), "");
}

TEST(TraceValidate, RejectsDurationOverOneYear) {
  Trace t = minimal_valid();
  t.duration = kMaxDuration;
  EXPECT_EQ(t.validate(), "");
  // Each of these used to pass and make the simulator size its time
  // series past what fits memory, or past what fits a size_t.
  for (const Seconds d : {kMaxDuration + 1.0, 1e12, 1e300}) {
    t.duration = d;
    EXPECT_EQ(t.validate(), "duration longer than one year") << d;
  }
}

TEST(TraceValidate, RejectsMoreThanMaxPieces) {
  Trace t = minimal_valid();
  t.files[0] = {0, kMaxPieces * 100, 100};
  EXPECT_EQ(t.validate(), "");
  t.files[0].size += 1;  // one more, short piece
  EXPECT_NE(t.validate().find("pieces"), std::string::npos);
  t.files[0] = {0, 1'000'000'000'000'000'000, 1};
  EXPECT_NE(t.validate().find("pieces"), std::string::npos);
}

TEST(FileMeta, NumPiecesRoundsUp) {
  FileMeta f{0, 1001, 100};
  EXPECT_EQ(f.num_pieces(), 11);
  FileMeta g{0, 1000, 100};
  EXPECT_EQ(g.num_pieces(), 10);
}

TEST(FileMeta, NumPiecesDoesNotOverflow) {
  // size + piece_size - 1 overflows int64 for these; the count does not.
  constexpr Bytes kMax = std::numeric_limits<Bytes>::max();
  EXPECT_EQ((FileMeta{0, kMax, Bytes{1} << 62}).num_pieces(), 2);
  EXPECT_EQ((FileMeta{0, kMax, kMax}).num_pieces(), 1);
  EXPECT_EQ((FileMeta{0, kMax, 1}).num_pieces(), kMax);
  EXPECT_EQ((FileMeta{0, 1'000'000'000'000'000'000, 1}).num_pieces(),
            1'000'000'000'000'000'000);
}

}  // namespace
}  // namespace bc::trace
