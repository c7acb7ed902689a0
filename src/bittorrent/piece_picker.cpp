#include "bittorrent/piece_picker.hpp"

#include <bit>
#include <limits>

#include "util/assert.hpp"

namespace bc::bt {

void Availability::add_bitfield(const Bitfield& have) {
  BC_ASSERT(have.size() == num_pieces());
  for (int p = 0; p < have.size(); ++p) {
    if (have.get(p)) ++counts_[static_cast<std::size_t>(p)];
  }
}

void Availability::remove_bitfield(const Bitfield& have) {
  BC_ASSERT(have.size() == num_pieces());
  for (int p = 0; p < have.size(); ++p) {
    if (have.get(p)) {
      auto& c = counts_[static_cast<std::size_t>(p)];
      BC_ASSERT(c > 0);
      --c;
    }
  }
}

void Availability::add_piece(int piece) {
  BC_ASSERT(piece >= 0 && static_cast<std::size_t>(piece) < counts_.size());
  ++counts_[static_cast<std::size_t>(piece)];
}

std::optional<int> pick_piece(const PickRequest& req, Rng& rng) {
  BC_ASSERT(req.mine != nullptr && req.theirs != nullptr &&
            req.availability != nullptr && req.in_flight != nullptr);
  BC_ASSERT(req.mine->size() == req.theirs->size() &&
            req.in_flight->size() == req.mine->size());

  const bool random_first = req.mine->count() < req.random_first_threshold;
  int best_rarity = std::numeric_limits<int>::max();
  int chosen = -1;
  // Reservoir-style tie-breaking: each equally rare candidate replaces the
  // current choice with probability 1/k, giving a uniform pick in one pass.
  // The candidates arrive in ascending piece order (lowest set bit of each
  // word first), so the draws are those of a per-piece scan.
  int ties = 0;
  const auto mine = req.mine->words();
  const auto theirs = req.theirs->words();
  const auto in_flight = req.in_flight->words();
  for (std::size_t w = 0; w < mine.size(); ++w) {
    for (std::uint64_t candidates = theirs[w] & ~mine[w] & ~in_flight[w];
         candidates != 0; candidates &= candidates - 1) {
      const int p = static_cast<int>(w * 64) + std::countr_zero(candidates);
      const int rarity = random_first ? 0 : req.availability->count(p);
      if (rarity < best_rarity) {
        best_rarity = rarity;
        chosen = p;
        ties = 1;
      } else if (rarity == best_rarity) {
        ++ties;
        if (rng.index(static_cast<std::size_t>(ties)) == 0) chosen = p;
      }
    }
  }
  if (chosen < 0) return std::nullopt;
  return chosen;
}

}  // namespace bc::bt
