// Streaming and batch statistics used by the analysis layer and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bc {

/// Welford online mean/variance accumulator. O(1) per observation.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a sample by linear interpolation between order statistics.
/// `q` in [0, 1]. Returns 0 for an empty sample. Copies and sorts; intended
/// for post-processing, not hot paths.
double percentile(std::span<const double> values, double q);

double mean(std::span<const double> values);
double median(std::span<const double> values);

/// Pearson correlation coefficient of two equally sized samples.
/// Returns 0 when either sample has zero variance or fewer than 2 points.
double pearson(std::span<const double> x, std::span<const double> y);

/// Spearman rank correlation (ties resolved by average rank).
double spearman(std::span<const double> x, std::span<const double> y);

/// Assigns fractional ranks (1-based, ties averaged) to the sample.
std::vector<double> ranks(std::span<const double> values);

}  // namespace bc
