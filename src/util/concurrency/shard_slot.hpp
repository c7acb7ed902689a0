// Deterministic shard-slot identity for per-thread instrument shards.
//
// Sharded observability instruments (obs::Counter / obs::LogHistogram) keep
// one cache-line-padded slot per parallel_for *chunk* and route every
// recording to the calling thread's current slot. The slot is the chunk
// index of the enclosing ThreadPool::parallel_for — NOT a thread id: chunk
// boundaries depend only on (n, num_threads), never on which worker happened
// to pop which task, so the per-slot partials (and therefore any merge that
// walks slots in ascending order) are reproducible run-to-run at a fixed
// thread count, and integer-state instruments stay bit-identical across
// thread counts because their merges are commutative sums.
//
// Outside a pool chunk the slot is 0, which aliases the caller-executed
// chunk 0 of a running parallel_for. That alias is safe by construction:
// serial-phase code and chunk 0 are the same thread.
//
// Only ThreadPool::parallel_for (and tests) may install a slot; everything
// else just reads current_shard_slot(). Like the rest of this directory the
// thread-local lives behind the raw-primitive (C1) fence of
// scripts/check_conventions.py.
#pragma once

#include <cstddef>

namespace bc::util {

/// Shard slot of the calling thread: the parallel_for chunk index while
/// inside a ThreadPool chunk body, 0 in any serial phase. One thread-local
/// load — cheap enough for always-on counters.
std::size_t current_shard_slot();

/// RAII installer for a chunk body's slot. Restores the previous slot on
/// destruction so nested serial helpers called after the chunk see 0 again.
class ShardSlotScope {
 public:
  explicit ShardSlotScope(std::size_t slot);
  ~ShardSlotScope();

  ShardSlotScope(const ShardSlotScope&) = delete;
  ShardSlotScope& operator=(const ShardSlotScope&) = delete;

 private:
  std::size_t prev_;
};

/// Stable opaque identity of the calling thread, for the owning-thread
/// debug checks on serial-phase instruments (obs::Gauge / obs::Histogram).
/// Distinct threads return distinct pointers for the lifetime of both
/// threads; the value orders nothing and is never used as a key, so it
/// cannot introduce pointer-order nondeterminism (bc-analyze D4).
const void* current_thread_tag();

}  // namespace bc::util
