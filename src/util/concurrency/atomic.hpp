// Sanctioned relaxed atomics for monotone instrumentation counters.
//
// check_conventions.py rule C1 keeps raw std::atomic inside
// src/util/concurrency/; these wrappers expose the two shapes the codebase
// actually needs — a saturating-free add-only counter and a set-before-threads
// flag — with memory_order_relaxed baked in. Relaxed is correct here because
// the values never order other memory: counters are summed/reported after the
// pool has been joined (a join is a full synchronization point), and flags are
// written during single-threaded setup.
//
// Determinism note: integer addition is commutative and associative, so a
// RelaxedCounter total is bit-identical at any thread count or interleaving.
#pragma once

#include <atomic>
#include <cstdint>

namespace bc::util {

/// Add-only uint64 counter, safe to increment from pool workers.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter&) = delete;
  RelaxedCounter& operator=(const RelaxedCounter&) = delete;

  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// add() that also returns the pre-add value (a unique-id allocator).
  std::uint64_t fetch_add(std::uint64_t n) {
    return v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Boolean flag toggled while single-threaded, read from anywhere.
class RelaxedBool {
 public:
  RelaxedBool() = default;
  explicit RelaxedBool(bool v) : v_(v) {}
  RelaxedBool(const RelaxedBool&) = delete;
  RelaxedBool& operator=(const RelaxedBool&) = delete;

  void store(bool v) { v_.store(v, std::memory_order_relaxed); }
  bool load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> v_{false};
};

}  // namespace bc::util
