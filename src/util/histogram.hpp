// Empirical CDFs, used for Figure 4(b)-style outputs.
#pragma once

#include <span>
#include <vector>

namespace bc {

/// One point of an empirical CDF: P(X <= value) = fraction.
struct CdfPoint {
  double value = 0.0;
  double fraction = 0.0;
};

/// Empirical CDF of a sample: one point per distinct value, fractions
/// non-decreasing and ending at 1. Empty input yields an empty curve.
std::vector<CdfPoint> empirical_cdf(std::span<const double> values);

/// Evaluates an empirical CDF at `x` (right-continuous step function).
double cdf_at(std::span<const CdfPoint> cdf, double x);

}  // namespace bc
