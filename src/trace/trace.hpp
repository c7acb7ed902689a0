// Community trace schema.
//
// The paper's evaluation replays traces scraped from the filelist.org
// private tracker: per-peer uptimes/downtimes, connectability, and
// file-requests, plus per-file metadata. We reproduce exactly that schema;
// `generator.hpp` synthesizes statistically plausible instances (the
// substitution documented in DESIGN.md §2) and `csv.hpp` can round-trip
// traces so a real scrape could be dropped in unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::trace {

/// Bounds Trace::validate() puts on what a trace makes the simulator
/// allocate: its time series grow with the duration, a swarm's piece tables
/// with the piece count. Both are generous: every shipped workload runs at
/// most a week, and the generator's largest file has 1,536 pieces.
inline constexpr Seconds kMaxDuration = 365.0 * kDay;
inline constexpr std::int64_t kMaxPieces = std::int64_t{1} << 20;

/// One shared file (one swarm).
struct FileMeta {
  SwarmId id = kInvalidSwarm;
  Bytes size = 0;
  Bytes piece_size = 0;

  /// Number of pieces, the last one possibly short: size / piece_size
  /// rounded up, without overflowing size + piece_size - 1.
  std::int64_t num_pieces() const {
    BC_ASSERT(piece_size > 0);
    return size / piece_size + (size % piece_size == 0 ? 0 : 1);
  }
  friend bool operator==(const FileMeta&, const FileMeta&) = default;
};

/// A continuous online interval [start, end).
struct Session {
  Seconds start = 0.0;
  Seconds end = 0.0;
  friend bool operator==(const Session&, const Session&) = default;
};

/// Static per-peer data plus the peer's uptime schedule.
struct PeerProfile {
  PeerId id = kInvalidPeer;
  bool connectable = true;
  std::vector<Session> sessions;  // sorted, non-overlapping

  bool online_at(Seconds t) const;
  /// Earliest online time >= t, or a negative value if the peer never comes
  /// online again.
  Seconds next_online(Seconds t) const;
  Seconds total_uptime() const;

  friend bool operator==(const PeerProfile&, const PeerProfile&) = default;
};

/// Peer `peer` asks for file `swarm` at time `at` (i.e. starts the
/// download as soon as it is online from `at` onward).
struct SwarmRequest {
  PeerId peer = kInvalidPeer;
  SwarmId swarm = kInvalidSwarm;
  Seconds at = 0.0;
  friend bool operator==(const SwarmRequest&, const SwarmRequest&) = default;
};

struct Trace {
  Seconds duration = 0.0;
  std::vector<FileMeta> files;        // indexed by SwarmId
  std::vector<PeerProfile> peers;     // indexed by PeerId
  std::vector<SwarmRequest> requests; // sorted by time

  /// Structural validation (dense ids, finite times, sorted sessions and
  /// requests inside the duration, the kMaxDuration and kMaxPieces bounds);
  /// returns an empty string when valid, otherwise a human-readable
  /// description of the first problem found.
  std::string validate() const;
};

}  // namespace bc::trace
