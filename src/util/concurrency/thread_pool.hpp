// Fixed-size thread pool with a deterministic parallel_for.
//
// Determinism contract (the whole point of this pool): parallel_for(n, body)
// invokes body(i) exactly once for every i in [0, n), where body writes only
// to state owned by index i (typically out[i]). Work is split into
// *statically chunked* contiguous index ranges, one per participating
// thread, and callers merge any cross-index reduction themselves, serially,
// in ascending index order. Because no result ever depends on which thread
// ran which chunk or in what order chunks finished, the output is
// bit-identical to a serial run at any thread count — the parallel
// determinism suite (ctest -L parallel) and the TSan preset both enforce
// this.
//
// ThreadPool(1) spawns no threads at all and runs parallel_for inline in
// ascending index order, so `--threads 1` is literally the serial program.
// ThreadPool(t >= 2) spawns t-1 workers; the calling thread executes chunk 0
// itself while workers take the rest, so t is the total concurrency.
//
// This is the only file in the tree allowed to touch std::thread
// (check_conventions.py rule C1, raw-primitive); the queue is guarded by an
// annotated Mutex so Clang's -Werror=thread-safety proves the locking
// discipline at compile time.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/concurrency/annotations.hpp"
#include "util/concurrency/mutex.hpp"

namespace bc::util {

class ThreadPool {
 public:
  /// `threads` is the total concurrency (calling thread included); must be
  /// >= 1. ThreadPool(1) is the no-op serial pool.
  explicit ThreadPool(std::size_t threads);

  /// Joins all workers. No parallel_for may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency this pool was built with (workers + caller).
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Runs body(i) once for each i in [0, n), statically chunked across the
  /// pool, and returns when every call has completed. body must only write
  /// state owned by its index (see the header comment); it must not throw
  /// and must not call parallel_for on the same pool (no nesting).
  /// Serial pools (num_threads() == 1) run inline in ascending index order.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  Mutex mu_;
  CondVar work_ready_;
  std::deque<std::function<void()>> queue_ BC_GUARDED_BY(mu_);
  bool stop_ BC_GUARDED_BY(mu_) = false;
  // bc-analyze: allow(C2) -- written once in the constructor and joined in the destructor, both provably single-threaded; never touched by workers
  std::vector<std::thread> workers_;
};

}  // namespace bc::util
