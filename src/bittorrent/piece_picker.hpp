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
#include <span>
#include <vector>

#include "bittorrent/bitfield.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bc::bt {

/// Swarm-wide piece availability: each piece's copy count, and for each
/// count c the pieces held by exactly c members (level c), as 64-bit words
/// laid out like Bitfield::words(). pick_piece finds the rarest candidates
/// by intersecting the levels from lowest() up.
class Availability {
 public:
  explicit Availability(int num_pieces);

  /// A complete bitfield moves the whole level table one level, an empty
  /// one changes nothing; otherwise each held piece moves one level, found
  /// a word at a time.
  void add_bitfield(const Bitfield& have);
  void remove_bitfield(const Bitfield& have);
  void add_piece(int piece);

  int count(int piece) const {
    BC_ASSERT(piece >= 0 && piece < num_pieces_);
    return counts_[static_cast<std::size_t>(piece)] + shift_;
  }
  int num_pieces() const { return num_pieces_; }

  /// The lowest copy count of any piece: the lowest nonempty level.
  int lowest() const { return lowest_; }
  /// Levels 0 .. num_levels() - 1 exist and every count is below
  /// num_levels(); the top ones may be empty.
  int num_levels() const {
    return static_cast<int>(levels_.size() / words_);
  }
  /// The pieces held by exactly `copies` members. Bits past num_pieces()
  /// in the last word are always clear.
  std::span<const std::uint64_t> level(int copies) const {
    const std::size_t at = static_cast<std::size_t>(copies) * words_;
    BC_ASSERT(copies >= 0 && at < levels_.size());
    return {levels_.data() + at, words_};
  }

 private:
  /// Moves the piece's bit from level `from` to level `to` (one apart).
  void move(int piece, int from, int to);
  bool level_empty(int copies) const;

  int num_pieces_;
  std::size_t words_;
  /// count(p) - shift_: a complete bitfield changes only shift_.
  std::vector<int> counts_;
  int shift_ = 0;
  /// Level c is words [c * words_, (c + 1) * words_).
  std::vector<std::uint64_t> levels_;
  int lowest_ = 0;
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
/// useful (downloader not interested modulo in-flight pieces). The pick and
/// the Rng draws are those of a scan over the candidates
/// (theirs & ~mine & ~in_flight) in ascending piece order: the k-th equally
/// rare candidate replaces the choice when rng.one_in(k). Its cost is the
/// words scanned, the levels tested, the candidates before the first
/// rarest one and the rarest ties.
std::optional<int> pick_piece(const PickRequest& request, Rng& rng);

}  // namespace bc::bt
