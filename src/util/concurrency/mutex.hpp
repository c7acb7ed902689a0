// Annotated mutual-exclusion primitives: the only sanctioned way to lock.
//
// check_conventions.py rule C1 bans raw std::mutex / std::condition_variable /
// std::thread / std::atomic outside this directory, so every lock in the tree
// is a bc::util::Mutex and therefore visible to Clang's thread-safety analysis
// (see annotations.hpp). The wrappers add nothing at runtime: all methods are
// single inline forwards to the std primitives.
//
// Lock discipline in this codebase is deliberately boring: leaf mutexes
// only, no nested acquisition, RAII (LockGuard) everywhere, waits through
// CondVar::wait with the guarded predicate re-checked in a loop.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/concurrency/annotations.hpp"

namespace bc::util {

/// A std::mutex carrying the `capability` attribute so Clang can check
/// acquire/release pairing and BC_GUARDED_BY access at compile time.
class BC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BC_ACQUIRE() { m_.lock(); }
  void unlock() BC_RELEASE() { m_.unlock(); }
  bool try_lock() BC_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped std::mutex, for CondVar's adopt/release dance only.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// RAII lock for a Mutex; the analysis knows the capability is held for
/// exactly the guard's scope.
class BC_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) BC_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() BC_RELEASE() { m_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// Condition variable usable with an annotated Mutex. wait() requires the
/// mutex held (checked by the analysis) and returns with it held again;
/// callers re-test their predicate in a while loop, as always.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `m`, blocks, and re-acquires `m` before returning.
  /// Implemented by adopting the already-held native mutex into a
  /// unique_lock and releasing it again afterwards, so the capability state
  /// seen by the analysis (held on entry, held on exit) matches reality.
  void wait(Mutex& m) BC_REQUIRES(m) {
    std::unique_lock<std::mutex> native(m.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();  // still locked; Mutex ownership stays with the caller
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace bc::util
