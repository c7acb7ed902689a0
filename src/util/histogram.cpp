#include "util/histogram.hpp"

#include <algorithm>

namespace bc {

std::vector<CdfPoint> empirical_cdf(std::span<const double> values) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CdfPoint> out;
  const std::size_t n = sorted.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Collapse runs of equal values into a single point carrying the
    // cumulative fraction up to and including the run. The input is
    // sorted, so "not below the previous point" means "equal to it".
    if (!out.empty() && !(out.back().value < sorted[i])) {
      out.back().fraction =
          static_cast<double>(i + 1) / static_cast<double>(n);
    } else {
      out.push_back({sorted[i],
                     static_cast<double>(i + 1) / static_cast<double>(n)});
    }
  }
  return out;
}

double cdf_at(std::span<const CdfPoint> cdf, double x) {
  double result = 0.0;
  for (const auto& p : cdf) {
    if (p.value <= x) {
      result = p.fraction;
    } else {
      break;
    }
  }
  return result;
}

}  // namespace bc
