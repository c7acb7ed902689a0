#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace bc::obs {

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
  return counters_.size() + log_histograms_.size();
}

void Registry::reset_values() {
  for (auto& [_, c] : counters_) c.reset();
  for (auto& [_, h] : log_histograms_) h.reset();
}

}  // namespace bc::obs
