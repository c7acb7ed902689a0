// Flat open-addressing hash map for unsigned integer keys.
//
// One contiguous power-of-two cell array probed linearly, kept at most 3/4
// full. Every user only grows (the subjective graph never loses a node, an
// edge or a change mark), so there is no erase and probing needs no
// tombstones. The all-ones key marks a free cell and may never be stored:
// as a PeerId it is kInvalidPeer, which is never a graph node, and as a
// packed (from, to) pair it is the self-edge (kInvalidPeer, kInvalidPeer).
//
// There is deliberately no iteration: cell order depends on the hash, so
// every user keeps its own ordered list beside the map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/checked.hpp"  // BC_NO_SANITIZE_INTEGER

namespace bc::util {

template <typename Key, typename Value>
class FlatMap {
  static_assert(std::is_unsigned_v<Key> && sizeof(Key) <= 8);

 public:
  static constexpr Key kEmptyKey = static_cast<Key>(~Key{0});

  /// The value of `key`, or nullptr if absent. A pointer stays valid until
  /// the next insert.
  const Value* find(Key key) const {
    if (cells_.empty()) return nullptr;
    // Free cells are tested first, so looking up kEmptyKey finds nothing.
    for (std::size_t i = home(key); cells_[i].key != kEmptyKey;
         i = (i + 1) & mask_) {
      if (cells_[i].key == key) return &cells_[i].value;
    }
    return nullptr;
  }
  Value* find(Key key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// The value of `key`, which must be present.
  const Value& at(Key key) const {
    const Value* value = find(key);
    BC_DASSERT(value != nullptr);
    return *value;
  }

  /// The value of `key`, inserting `value` first if `key` is absent, and
  /// whether it was inserted. The pointer stays valid until the next insert.
  std::pair<Value*, bool> try_emplace(Key key, Value value) {
    BC_ASSERT_MSG(key != kEmptyKey, "the all-ones key marks a free cell");
    if (Value* found = find(key)) return {found, false};
    if ((size_ + 1) * 4 > cells_.size() * 3) grow();
    std::size_t i = home(key);
    while (cells_[i].key != kEmptyKey) i = (i + 1) & mask_;
    cells_[i] = Cell{key, value};
    ++size_;
    return {&cells_[i].value, true};
  }

  std::size_t size() const { return size_; }

 private:
  struct Cell {
    Key key;
    Value value;
  };

  // splitmix64's finalizer: consecutive ids and packed pairs spread over
  // the whole table.
  BC_NO_SANITIZE_INTEGER static std::size_t hash_of(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  std::size_t home(Key key) const { return hash_of(key) & mask_; }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    const std::size_t n = old.empty() ? 16 : old.size() * 2;
    cells_.assign(n, Cell{kEmptyKey, Value{}});
    mask_ = n - 1;
    for (const Cell& c : old) {
      if (c.key == kEmptyKey) continue;
      std::size_t i = home(c.key);
      while (cells_[i].key != kEmptyKey) i = (i + 1) & mask_;
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;  // power-of-two sized; key == kEmptyKey is free
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace bc::util
