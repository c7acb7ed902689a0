// Scoped wall-time profiling: per-site call counts and inclusive time.
//
// Usage — one macro at the top of a hot function or block:
//
//   void Engine::step() {
//     BC_OBS_SCOPE("sim.dispatch");
//     ...
//   }
//
// The macro resolves the site once (function-local static reference) and
// constructs a ScopedTimer. While the profiler is disabled — the default —
// the timer constructor is a single branch and no clock is read, keeping
// instrumented hot paths within noise of uninstrumented ones. Enabled, the
// cost is two steady_clock reads per scope.
//
// Sites aggregate *inclusive* wall time: a scope nested inside another
// contributes to both. Recursive re-entry of the same site counts every
// call but accumulates time only at the outermost level, so recursion does
// not multiply elapsed time. The simulator runs on one thread (DESIGN.md
// §10), so each site tracks its own open-frame depth.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bc::obs {

struct ProfileSite {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;  // inclusive wall time, outermost frames only
  /// Frames of this site currently open (the recursion guard); not a
  /// tally, so reset_values() leaves it alone.
  std::uint32_t depth = 0;
};

class Profiler {
 public:
  Profiler() = default;

  /// The process-wide profiler that BC_OBS_SCOPE sites register with.
  static Profiler& instance();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Finds or creates the named site; the reference stays valid for the
  /// profiler's lifetime (node-based storage).
  ProfileSite& site(std::string_view name);

  /// Value-copies of all sites, sorted by name (deterministic export).
  std::vector<ProfileSite> snapshot() const;

  std::size_t num_sites() const;

  /// Zeroes calls/time but keeps site registrations and references valid.
  void reset_values();

 private:
  bool enabled_ = false;
  std::map<std::string, ProfileSite, std::less<>> sites_;
};

/// RAII accumulator for one site. Reads the profiler's enabled flag once,
/// at construction; a scope that straddles an enable/disable toggle is
/// attributed per the state at entry.
class ScopedTimer {
 public:
  ScopedTimer(ProfileSite& site, Profiler& profiler);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfileSite* site_ = nullptr;  // null when the profiler was disabled
  std::uint64_t start_ = 0;
};

}  // namespace bc::obs

#define BC_OBS_CONCAT_INNER(a, b) a##b
#define BC_OBS_CONCAT(a, b) BC_OBS_CONCAT_INNER(a, b)

/// Profiles the enclosing scope under `site_name` (a string literal).
#define BC_OBS_SCOPE(site_name)                                          \
  static ::bc::obs::ProfileSite& BC_OBS_CONCAT(bc_obs_site_, __LINE__) = \
      ::bc::obs::Profiler::instance().site(site_name);                   \
  const ::bc::obs::ScopedTimer BC_OBS_CONCAT(bc_obs_timer_, __LINE__)(   \
      BC_OBS_CONCAT(bc_obs_site_, __LINE__),                             \
      ::bc::obs::Profiler::instance())
