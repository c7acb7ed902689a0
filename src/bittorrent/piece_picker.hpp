// Rarest-first piece selection (paper §5.1: "including ... rarest-first
// piece picking").
//
// The picker chooses, for a downloader, the next piece to fetch from a given
// uploader: among the pieces the uploader has, the downloader lacks, and
// that are not already being fetched from someone else, pick the one with
// the lowest swarm-wide availability. Ties break uniformly at random (the
// standard BitTorrent behaviour that spreads replicas). A short random-first
// phase bootstraps brand-new downloaders, as real clients do.
#pragma once

#include <optional>

#include "bittorrent/bitfield.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bc::bt {

/// Swarm-wide per-piece availability counter.
class Availability {
 public:
  explicit Availability(int num_pieces) : counts_(static_cast<std::size_t>(num_pieces), 0) {
    BC_ASSERT(num_pieces > 0);
  }

  void add_bitfield(const Bitfield& have);
  void remove_bitfield(const Bitfield& have);
  void add_piece(int piece);

  int count(int piece) const {
    BC_ASSERT(piece >= 0 && static_cast<std::size_t>(piece) < counts_.size());
    return counts_[static_cast<std::size_t>(piece)];
  }
  int num_pieces() const { return static_cast<int>(counts_.size()); }

 private:
  std::vector<int> counts_;
};

struct PickRequest {
  const Bitfield* mine = nullptr;    // downloader's pieces
  const Bitfield* theirs = nullptr;  // uploader's pieces
  const Availability* availability = nullptr;
  /// Pieces the downloader is already fetching on other connections.
  const Bitfield* in_flight = nullptr;
  /// Below this piece count the downloader picks uniformly at random
  /// (random-first bootstrap). 4 is the conventional value.
  int random_first_threshold = 4;
};

/// Returns the chosen piece index, or nullopt when the uploader has nothing
/// useful (downloader not interested modulo in-flight pieces). Candidates
/// are visited in ascending piece order, one 64-bit word of
/// theirs & ~mine & ~in_flight at a time.
std::optional<int> pick_piece(const PickRequest& request, Rng& rng);

}  // namespace bc::bt
