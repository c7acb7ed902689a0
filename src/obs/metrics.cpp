#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace bc::obs {

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)), counts_(edges_.size() + 1, 0) {
  BC_ASSERT_MSG(!edges_.empty(), "histogram needs at least one bucket edge");
  BC_ASSERT_MSG(std::is_sorted(edges_.begin(), edges_.end()),
                "histogram edges must be ascending");
}

std::vector<double> Histogram::uniform_edges(double lo, double hi,
                                             std::size_t num_buckets) {
  BC_ASSERT(hi > lo && num_buckets > 0);
  std::vector<double> edges(num_buckets);
  const double width = (hi - lo) / static_cast<double>(num_buckets);
  for (std::size_t i = 0; i + 1 < num_buckets; ++i) {
    edges[i] = lo + width * static_cast<double>(i + 1);
  }
  // Exact top edge: accumulating widths would land slightly below hi and
  // push values equal to hi into the overflow bucket.
  edges[num_buckets - 1] = hi;
  return edges;
}

void Histogram::add(double value) {
  BC_ASSERT_MSG(!counts_.empty(), "histogram used before construction");
  const auto it = std::lower_bound(edges_.begin(), edges_.end(), value);
  counts_[static_cast<std::size_t>(it - edges_.begin())] += 1;
  ++total_;
  sum_ += value;
}

double Histogram::upper_edge(std::size_t i) const {
  BC_ASSERT(i < counts_.size());
  if (i == edges_.size()) return std::numeric_limits<double>::infinity();
  return edges_[i];
}

std::uint64_t Histogram::count(std::size_t i) const {
  BC_ASSERT(i < counts_.size());
  return counts_[i];
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
}

LogHistogram::LogHistogram(const LogSpec& spec) : spec_(spec) {
  BC_ASSERT_MSG(spec.max_exp2 > spec.min_exp2,
                "log histogram needs at least one octave");
  BC_ASSERT_MSG(spec.sub_bits <= 8, "sub-bucket resolution capped at 2^8");
  BC_ASSERT_MSG(spec.sum_frac_bits >= 0 && spec.sum_frac_bits <= 40,
                "sum fixed-point quantum out of range");
  const auto octaves =
      static_cast<std::size_t>(spec.max_exp2 - spec.min_exp2);
  per_sign_ = octaves << spec.sub_bits;
  zero_index_ = spec.with_negative ? per_sign_ : 0;
  min_mag_ = std::ldexp(1.0, spec.min_exp2);
  counts_.assign(per_sign_ * (spec.with_negative ? 2 : 1) + 1, 0);
}

std::size_t LogHistogram::index_of(double v) const {
  BC_DASSERT(!std::isnan(v));
  const bool neg = v < 0.0;
  // A negative value on an unsigned-spec histogram is a caller bug; in
  // release it degrades to the zero bucket rather than indexing out.
  BC_DASSERT(spec_.with_negative || !neg);
  const double a = neg ? -v : v;
  if (a < min_mag_ || (neg && !spec_.with_negative)) return zero_index_;
  int e = 0;
  const double m = std::frexp(a, &e);  // a = m * 2^e, m in [0.5, 1)
  const auto octaves = static_cast<long>(per_sign_ >> spec_.sub_bits);
  long oct = static_cast<long>(e) - 1 - spec_.min_exp2;
  std::size_t sub;
  const auto sub_count = static_cast<std::size_t>(1) << spec_.sub_bits;
  if (oct >= octaves) {
    oct = octaves - 1;
    sub = sub_count - 1;  // clamp into the top sub-bucket
  } else {
    // m - 0.5 and both scalings are exact binary-FP operations (sub_count
    // is a power of two), so the truncation is bit-deterministic.
    sub = static_cast<std::size_t>((m - 0.5) * 2.0 *
                                   static_cast<double>(sub_count));
  }
  const std::size_t k =
      (static_cast<std::size_t>(oct) << spec_.sub_bits) | sub;
  return neg ? zero_index_ - 1 - k : zero_index_ + 1 + k;
}

double LogHistogram::upper_edge(std::size_t i) const {
  BC_ASSERT(i < counts_.size());
  const auto sub_count = static_cast<std::size_t>(1) << spec_.sub_bits;
  if (i == zero_index_) return min_mag_;
  if (i > zero_index_) {
    const std::size_t k = i - zero_index_ - 1;
    const std::size_t oct = k >> spec_.sub_bits;
    const std::size_t sub = k & (sub_count - 1);
    return std::ldexp(1.0 + static_cast<double>(sub + 1) /
                                static_cast<double>(sub_count),
                      spec_.min_exp2 + static_cast<int>(oct));
  }
  const std::size_t k = zero_index_ - 1 - i;
  const std::size_t oct = k >> spec_.sub_bits;
  const std::size_t sub = k & (sub_count - 1);
  // Negative bucket k covers (-(lower + width), -lower]; its upper edge is
  // the magnitude *lower* bound, negated.
  return -std::ldexp(1.0 + static_cast<double>(sub) /
                               static_cast<double>(sub_count),
                     spec_.min_exp2 + static_cast<int>(oct));
}

std::int64_t LogHistogram::to_units(double v) const {
  return std::llround(std::ldexp(v, spec_.sum_frac_bits));
}

std::uint64_t LogHistogram::count(std::size_t i) const {
  BC_ASSERT(i < counts_.size());
  return counts_[i];
}

double LogHistogram::sum() const {
  return std::ldexp(static_cast<double>(sum_units()), -spec_.sum_frac_bits);
}

double LogHistogram::quantile(double q) const {
  BC_ASSERT(q >= 0.0 && q <= 1.0);
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  // 1-based rank of the target observation; ceil keeps q=1 at rank n and
  // the computation is one deterministic FP multiply.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank) return upper_edge(i);
  }
  return upper_edge(counts_.size() - 1);
}

double LogHistogram::max_value() const {
  for (std::size_t i = counts_.size(); i > 0; --i) {
    if (counts_[i - 1] > 0) return upper_edge(i - 1);
  }
  return 0.0;
}

void LogHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_units_ = 0;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  if (auto it = counters_.find(name); it != counters_.end()) {
    return it->second;
  }
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  if (auto it = gauges_.find(name); it != gauges_.end()) {
    return it->second;
  }
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> upper_edges) {
  if (auto it = histograms_.find(name); it != histograms_.end()) {
    return it->second;
  }
  return histograms_
      .emplace(std::string(name), Histogram(std::move(upper_edges)))
      .first->second;
}

LogHistogram& Registry::log_histogram(std::string_view name,
                                      const LogSpec& spec) {
  if (auto it = log_histograms_.find(name); it != log_histograms_.end()) {
    return it->second;
  }
  return log_histograms_.try_emplace(std::string(name), spec).first->second;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c.value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g.value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.upper_edges = h.edges();
    hs.counts.reserve(h.num_buckets());
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      hs.counts.push_back(h.count(i));
    }
    hs.total = h.total();
    hs.sum = h.sum();
    snap.histograms.push_back(std::move(hs));
  }
  snap.log_histograms.reserve(log_histograms_.size());
  for (const auto& [name, h] : log_histograms_) {
    LogHistogramSnapshot ls;
    ls.name = name;
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      const std::uint64_t c = h.count(i);
      if (c > 0) {
        ls.buckets.emplace_back(static_cast<std::uint32_t>(i), c);
        ls.bucket_edges.push_back(h.upper_edge(i));
      }
    }
    ls.total = h.total();
    ls.sum = h.sum();
    ls.sum_units = h.sum_units();
    ls.sum_frac_bits = h.spec().sum_frac_bits;
    ls.p50 = h.quantile(0.5);
    ls.p90 = h.quantile(0.9);
    ls.p99 = h.quantile(0.99);
    ls.max = h.max_value();
    snap.log_histograms.push_back(std::move(ls));
  }
  return snap;
}

std::size_t Registry::num_instruments() const {
  return counters_.size() + gauges_.size() + histograms_.size() +
         log_histograms_.size();
}

void Registry::reset_values() {
  for (auto& [_, c] : counters_) c.reset();
  for (auto& [_, g] : gauges_) g.reset();
  for (auto& [_, h] : histograms_) h.reset();
  for (auto& [_, h] : log_histograms_) h.reset();
}

}  // namespace bc::obs
