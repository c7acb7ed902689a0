// Piece possession bitfield.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace bc::bt {

class Bitfield {
 public:
  explicit Bitfield(int num_pieces, bool filled = false)
      : size_(num_pieces),
        count_(filled ? num_pieces : 0),
        words_(static_cast<std::size_t>((num_pieces + 63) / 64),
               filled ? ~std::uint64_t{0} : 0) {
    BC_ASSERT(num_pieces > 0);
    if (filled) trim();
  }

  int size() const { return size_; }
  int count() const { return count_; }
  bool complete() const { return count_ == size_; }
  bool empty() const { return count_ == 0; }

  bool get(int piece) const {
    BC_ASSERT(piece >= 0 && piece < size_);
    return (words_[static_cast<std::size_t>(piece) / 64] >>
            (static_cast<std::size_t>(piece) % 64)) &
           1;
  }

  /// Sets the piece; returns true if it was newly set.
  bool set(int piece) {
    BC_ASSERT(piece >= 0 && piece < size_);
    auto& word = words_[static_cast<std::size_t>(piece) / 64];
    const std::uint64_t mask = std::uint64_t{1}
                               << (static_cast<std::size_t>(piece) % 64);
    if (word & mask) return false;
    word |= mask;
    ++count_;
    return true;
  }

  /// Clears the piece; returns true if it was set.
  bool reset(int piece) {
    BC_ASSERT(piece >= 0 && piece < size_);
    auto& word = words_[static_cast<std::size_t>(piece) / 64];
    const std::uint64_t mask = std::uint64_t{1}
                               << (static_cast<std::size_t>(piece) % 64);
    if (!(word & mask)) return false;
    word &= ~mask;
    --count_;
    return true;
  }

  /// The pieces as 64-bit words: piece p is bit p % 64 of word p / 64. Bits
  /// past size() in the last word are always clear.
  std::span<const std::uint64_t> words() const { return words_; }

  /// True when the other peer has at least one piece this field lacks.
  bool is_interesting(const Bitfield& other) const {
    BC_ASSERT(other.size_ == size_);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (other.words_[w] & ~words_[w]) return true;
    }
    return false;
  }

 private:
  void trim() {
    // Clear bits beyond size_ in the last word so complete()/count stay sane.
    const int tail = size_ % 64;
    if (tail != 0) {
      words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
  }

  int size_;
  int count_;
  std::vector<std::uint64_t> words_;
};

}  // namespace bc::bt
