#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace bc {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  BC_ASSERT(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::span<const double> values) {
  return percentile(values, 0.5);
}

double pearson(std::span<const double> x, std::span<const double> y) {
  BC_ASSERT(x.size() == y.size());
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  // Sums of squares: `<= 0` is exactly the zero (constant input) test.
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> ranks(std::span<const double> values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> out(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    // `order` is ascending, so "not above" means "tied with".
    while (j + 1 < n && !(values[order[i]] < values[order[j + 1]])) ++j;
    // Average 1-based rank over the tie group [i, j].
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) out[order[k]] = avg;
    i = j + 1;
  }
  return out;
}

double spearman(std::span<const double> x, std::span<const double> y) {
  BC_ASSERT(x.size() == y.size());
  const auto rx = ranks(x);
  const auto ry = ranks(y);
  return pearson(rx, ry);
}

}  // namespace bc
