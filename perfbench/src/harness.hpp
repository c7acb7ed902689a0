// Shared pieces of the bcperf program: options, wall clock, sample
// statistics, the result record every workload fills in, and the helpers
// both workload kinds use to read the observability registry and profiler.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace bcperf {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: profiler on in alternate repetitions, per-layer metrics.
  bool trace = false;
  /// Toy sizes for the benchmark's own test; no pinned digest applies.
  bool tiny = false;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// `part / whole`, 0 when `whole` is 0.
inline double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// The repetition loop's stop rule: stop once the run has its minimum
/// repetitions (three untraced; one of each kind when traced) and one more
/// repetition of average length would overrun --seconds.
inline bool run_done(const Options& opt, std::size_t untraced,
                     std::size_t traced, double elapsed) {
  const std::size_t reps = untraced + traced;
  const bool enough =
      opt.trace ? untraced >= 1 && traced >= 1 : untraced >= 3;
  return enough && elapsed + elapsed / static_cast<double>(reps) > opt.seconds;
}

inline volatile double g_sink = 0.0;

/// Keeps a result of timed calls observable, so they are not optimized out.
inline void keep(double v) { g_sink = v; }

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed operation, for the log.
  std::vector<std::string> failures;
  /// Hex digest of the deterministic outputs (identical in every
  /// repetition of a run, or the repetition counts as failed).
  std::string digest;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

/// FNV-1a over 64-bit words: the output digest of a run.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Value of a registry counter, 0 when no site registered it yet.
std::uint64_t counter_value(const bc::obs::Snapshot& snap, std::string_view name);

/// Profiler sites summed over the traced repetitions of a run.
class SiteTotals {
 public:
  void add(const std::vector<bc::obs::ProfileSite>& sites);
  /// Inclusive seconds of `name` per traced repetition.
  double seconds(std::string_view name) const;

 private:
  std::vector<bc::obs::ProfileSite> sum_;
  std::size_t runs_ = 0;
};

/// Workload entry points; each fills `out` and returns normally.
void run_sim_workload(const Options& opt, Result& out);
void run_hub_workload(const Options& opt, Result& out);

}  // namespace bcperf
