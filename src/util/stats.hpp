// Small statistics helpers shared by benchmarks and analyzers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace structnet {

/// Online accumulator for mean / variance / min / max (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Returns the q-quantile (0 <= q <= 1) of the values, linear interpolation.
/// Returns 0 for an empty span.
double quantile(std::span<const double> values, double q);

/// Mean of a span (0 for empty).
double mean_of(std::span<const double> values);

/// Pearson correlation of two equally sized spans (0 if degenerate).
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Least-squares slope/intercept of y over x. Returns {slope, intercept}.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};
LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys);

}  // namespace structnet
