// Metrics registry: named counters, gauges, fixed-bucket histograms, and
// log-bucket (HDR-style) histograms.
//
// Call sites cache the instrument reference once (typically in a
// function-local static) and touch only the instrument afterwards:
//
//   static obs::Counter& exchanges =
//       obs::Registry::instance().counter("gossip.exchanges");
//   exchanges.inc();
//
// Registry storage is node-based (std::map), so references returned by
// counter()/gauge()/histogram()/log_histogram() stay valid for the
// registry's lifetime, including across reset_values(). Snapshots iterate
// the maps in key order, which makes exported output deterministic
// run-to-run.
//
// The simulator runs on one thread (DESIGN.md §10), so instruments are
// plain state. Counter and LogHistogram keep integer state only (counts
// and fixed-point sums), which lets the windowed stream encode exact
// deltas (obs/stream.hpp).
//
// The registry does not know about simulation time; periodic snapshots are
// driven externally (see obs/stream.hpp, obs/export.hpp and
// community::CommunitySimulator).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/checked.hpp"

namespace bc::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

  /// Overwrites the total (used to republish externally-tracked totals,
  /// e.g. the reputation-cache tallies, through the windowed stream).
  void store_total(std::uint64_t v) { value_ = v; }

  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time measurement (last writer wins).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with explicit ascending upper edges. A value v
/// lands in the first bucket whose upper edge satisfies v <= edge; values
/// above the last edge land in an implicit overflow bucket, so total()
/// always equals the number of add() calls.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> upper_edges);

  /// Uniform edges covering [lo, hi] with `num_buckets` finite buckets
  /// (the overflow bucket comes on top).
  static std::vector<double> uniform_edges(double lo, double hi,
                                           std::size_t num_buckets);

  void add(double value);

  /// Finite buckets plus the overflow bucket.
  std::size_t num_buckets() const { return counts_.size(); }
  /// Upper edge of bucket `i`; the overflow bucket reports +infinity.
  double upper_edge(std::size_t i) const;
  std::uint64_t count(std::size_t i) const;
  std::uint64_t total() const { return total_; }
  double sum() const { return sum_; }
  const std::vector<double>& edges() const { return edges_; }

  void reset();

 private:
  std::vector<double> edges_;           // ascending finite upper bounds
  std::vector<std::uint64_t> counts_;   // edges_.size() + 1 (overflow last)
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Geometry of a LogHistogram: sign-symmetric logarithmic buckets —
/// power-of-two octaves split into 2^sub_bits linear sub-buckets (the
/// HDR-histogram shape). Memory is O(octaves * sub-buckets), fixed at
/// construction and independent of how many values are recorded.
struct LogSpec {
  /// |v| below 2^min_exp2 (including 0) lands in the dedicated zero
  /// bucket; |v| at or above 2^max_exp2 clamps into the top sub-bucket.
  int min_exp2 = -20;
  int max_exp2 = 40;
  /// Sub-buckets per octave = 2^sub_bits: relative bucket width
  /// ~2^-sub_bits (3 -> ~12% worst-case quantile error).
  unsigned sub_bits = 3;
  /// Mirror the positive layout for negative values.
  bool with_negative = false;
  /// sum() is accumulated in fixed point with quantum 2^-sum_frac_bits,
  /// so window deltas of it subtract exactly.
  int sum_frac_bits = 20;

  /// Seconds-scale durations: ~1 us resolution up to ~2^20 s.
  static LogSpec latency_seconds() { return {-20, 20, 3, false, 20}; }
  /// Byte counts / cardinalities: 1 .. 2^40.
  static LogSpec magnitude() { return {0, 40, 3, false, 0}; }
  /// Signed scores in [-1, 1] (BarterCast reputations): resolution
  /// 2^-12 ~ 2.4e-4 near zero.
  static LogSpec signed_unit() { return {-12, 1, 3, true, 20}; }
};

/// Logarithmic-bucket histogram with quantile summaries. All state is
/// integer (bucket counts plus a fixed-point sum), and bucket indexing is
/// exact integer math on the mantissa/exponent (std::frexp — no
/// transcendental rounding), so snapshots are bit-identical run to run.
/// Buckets are stored in ascending *value* order (negative octaves
/// high-to-low magnitude, zero, positive octaves low-to-high), so
/// quantile() is one forward scan.
class LogHistogram {
 public:
  explicit LogHistogram(const LogSpec& spec);

  /// Records one value (NaN is a caller bug).
  void observe(double v) {
    ++counts_[index_of(v)];
    ++total_;
    // Fixed-point sums saturate: a histogram must degrade, not abort or
    // wrap, when fed month-scale totals.
    sum_units_ = util::saturating_add(sum_units_, to_units(v));
  }

  const LogSpec& spec() const { return spec_; }
  std::size_t num_buckets() const { return counts_.size(); }

  /// Bucket index a value lands in (exposed for tests/export tooling).
  std::size_t index_of(double v) const;
  /// Upper value bound of bucket `i` (buckets ascend in value).
  double upper_edge(std::size_t i) const;

  std::uint64_t count(std::size_t i) const;
  std::uint64_t total() const { return total_; }
  std::int64_t sum_units() const { return sum_units_; }
  double sum() const;
  /// Upper edge of the bucket holding the q-quantile (q in [0, 1]) of
  /// everything recorded; 0 when empty.
  double quantile(double q) const;
  /// Upper edge of the highest non-empty bucket; 0 when empty.
  double max_value() const;

  void reset();

 private:
  std::int64_t to_units(double v) const;

  LogSpec spec_;
  std::size_t per_sign_ = 0;  // buckets per sign = octaves * 2^sub_bits
  std::size_t zero_index_ = 0;
  double min_mag_ = 0.0;  // 2^min_exp2
  std::vector<std::uint64_t> counts_;  // ascending value order
  std::uint64_t total_ = 0;
  std::int64_t sum_units_ = 0;
};

/// Value-copies of every instrument, sorted by name.
struct HistogramSnapshot {
  std::string name;
  std::vector<double> upper_edges;
  std::vector<std::uint64_t> counts;  // incl. trailing overflow bucket
  std::uint64_t total = 0;
  double sum = 0.0;
};

struct LogHistogramSnapshot {
  std::string name;
  /// Non-empty buckets only, ascending index (= ascending value).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
  /// Upper value edge of each entry in `buckets` (parallel vector) — lets
  /// consumers (the windowed stream) compute quantiles over bucket deltas
  /// without the histogram's geometry at hand.
  std::vector<double> bucket_edges;
  std::uint64_t total = 0;
  double sum = 0.0;
  /// Exact fixed-point sum (quantum 2^-sum_frac_bits): integer, so window
  /// deltas between snapshots subtract exactly.
  std::int64_t sum_units = 0;
  int sum_frac_bits = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<LogHistogramSnapshot> log_histograms;
};

class Registry {
 public:
  Registry() = default;

  /// The process-wide registry used by the BC instrumentation sites.
  static Registry& instance();

  /// Finds or creates the named instrument. References stay valid for the
  /// registry's lifetime. For histogram()/log_histogram(), the geometry
  /// argument is consumed only on first creation; later lookups ignore it.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> upper_edges);
  LogHistogram& log_histogram(std::string_view name, const LogSpec& spec);

  Snapshot snapshot() const;

  std::size_t num_instruments() const;

  /// Zeroes every instrument but keeps registrations (and therefore all
  /// outstanding references) intact.
  void reset_values();

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, LogHistogram, std::less<>> log_histograms_;
};

}  // namespace bc::obs
