#include "bittorrent/piece_picker.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/assert.hpp"

namespace bc::bt {

namespace {

int piece_at(std::size_t word, std::uint64_t bits) {
  return static_cast<int>(word * 64) + std::countr_zero(bits);
}

/// Calls f(p) for each set piece of `have`, in ascending order.
template <typename F>
void for_each_piece(const Bitfield& have, F f) {
  const auto words = have.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(piece_at(w, bits));
    }
  }
}

/// Reservoir over the set bits of words(w) .. words(end - 1), in ascending
/// order; words(w) must be nonzero. The first is chosen and the k-th
/// replaces the choice when rng.one_in(k).
template <typename Words>
int reservoir(std::size_t w, std::size_t end, Words words, Rng& rng) {
  std::uint64_t bits = words(w);
  int chosen = piece_at(w, bits);
  bits &= bits - 1;
  std::size_t ties = 1;
  for (;;) {
    for (; bits != 0; bits &= bits - 1) {
      if (rng.one_in(++ties)) chosen = piece_at(w, bits);
    }
    if (++w == end) return chosen;
    bits = words(w);
  }
}

/// pick_piece without the copy of the generator.
std::optional<int> pick(const PickRequest& req, Rng& rng) {
  const auto mine = req.mine->words();
  const auto theirs = req.theirs->words();
  const auto in_flight = req.in_flight->words();
  const auto wanted = [&](std::size_t w) {
    return theirs[w] & ~mine[w] & ~in_flight[w];
  };
  // The candidates lie in words [begin, end).
  std::size_t begin = 0;
  std::size_t end = mine.size();
  while (begin < end && wanted(begin) == 0) ++begin;
  if (begin == end) return std::nullopt;
  while (wanted(end - 1) == 0) --end;

  // Random-first: every candidate is equally rare.
  if (req.mine->count() < req.random_first_threshold) {
    return reservoir(begin, end, wanted, rng);
  }

  // The rarest candidates: the first level, from the lowest up, that holds
  // any. Each piece sits on some level, so the walk ends.
  const Availability& availability = *req.availability;
  std::span<const std::uint64_t> level;
  for (int copies = availability.lowest();; ++copies) {
    level = availability.level(copies);
    std::uint64_t any = 0;
    for (std::size_t w = begin; w < end; ++w) any |= level[w] & wanted(w);
    if (any != 0) break;
  }
  const auto rarest = [&](std::size_t w) { return level[w] & wanted(w); };
  std::size_t first = begin;
  while (rarest(first) == 0) ++first;

  // A per-piece scan also draws before the first rarest candidate, each
  // time one ties the lowest count seen so far. Every count there is above
  // the rarest, so the scan's choice resets at the first rarest candidate,
  // and after it only the rarest ones draw; only those earlier draws are
  // replayed.
  const std::uint64_t head = rarest(first);
  int lowest_seen = std::numeric_limits<int>::max();
  std::size_t ties = 0;
  for (std::size_t w = begin; w <= first; ++w) {
    std::uint64_t bits = wanted(w);
    if (w == first) bits &= (head - 1) & ~head;  // below the first rarest
    for (; bits != 0; bits &= bits - 1) {
      const int copies = availability.count(piece_at(w, bits));
      if (copies < lowest_seen) {
        lowest_seen = copies;
        ties = 1;
      } else if (copies == lowest_seen) {
        static_cast<void>(rng.one_in(++ties));
      }
    }
  }
  return reservoir(first, end, rarest, rng);
}

}  // namespace

Availability::Availability(int num_pieces)
    : num_pieces_(num_pieces),
      words_(static_cast<std::size_t>((num_pieces + 63) / 64)),
      counts_(static_cast<std::size_t>(num_pieces), 0) {
  BC_ASSERT(num_pieces > 0);
  // Every piece starts on level 0.
  const Bitfield all(num_pieces, true);
  levels_.assign(all.words().begin(), all.words().end());
}

void Availability::move(int piece, int from, int to) {
  const std::size_t word = static_cast<std::size_t>(piece) / 64;
  const std::size_t to_word = static_cast<std::size_t>(to) * words_ + word;
  if (to_word >= levels_.size()) levels_.resize(levels_.size() + words_, 0);
  const std::uint64_t mask = std::uint64_t{1}
                             << (static_cast<std::size_t>(piece) % 64);
  levels_[static_cast<std::size_t>(from) * words_ + word] &= ~mask;
  levels_[to_word] |= mask;
}

bool Availability::level_empty(int copies) const {
  const auto words = level(copies);
  return std::all_of(words.begin(), words.end(),
                     [](std::uint64_t w) { return w == 0; });
}

void Availability::add_bitfield(const Bitfield& have) {
  BC_ASSERT(have.size() == num_pieces());
  if (have.empty()) return;
  if (have.complete()) {
    levels_.insert(levels_.begin(), words_, 0);
    ++shift_;
    ++lowest_;
    return;
  }
  for_each_piece(have, [&](int p) {
    const int from = count(p);
    ++counts_[static_cast<std::size_t>(p)];
    move(p, from, from + 1);
  });
  // Pieces moved up one level at most, so the lowest rose by one at most.
  if (level_empty(lowest_)) ++lowest_;
}

void Availability::remove_bitfield(const Bitfield& have) {
  BC_ASSERT(have.size() == num_pieces());
  if (have.empty()) return;
  if (have.complete()) {
    BC_ASSERT(lowest_ > 0);  // level 0, the one dropped, is empty
    levels_.erase(levels_.begin(),
                  levels_.begin() + static_cast<std::ptrdiff_t>(words_));
    --shift_;
    --lowest_;
    return;
  }
  for_each_piece(have, [&](int p) {
    const int from = count(p);
    BC_ASSERT(from > 0);
    --counts_[static_cast<std::size_t>(p)];
    move(p, from, from - 1);
    lowest_ = std::min(lowest_, from - 1);
  });
}

void Availability::add_piece(int piece) {
  const int from = count(piece);
  ++counts_[static_cast<std::size_t>(piece)];
  move(piece, from, from + 1);
  if (from == lowest_ && level_empty(from)) ++lowest_;
}

std::optional<int> pick_piece(const PickRequest& req, Rng& caller_rng) {
  BC_ASSERT(req.mine != nullptr && req.theirs != nullptr &&
            req.availability != nullptr && req.in_flight != nullptr);
  BC_ASSERT(req.mine->size() == req.theirs->size() &&
            req.in_flight->size() == req.mine->size());
  // Draw from a local copy, handed back on return: the compiler keeps its
  // state in registers, while the caller's might alias the bitfield words.
  Rng rng = caller_rng;
  const std::optional<int> piece = pick(req, rng);
  caller_rng = rng;
  return piece;
}

}  // namespace bc::bt
