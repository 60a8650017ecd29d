// Streaming summary statistics and related helpers.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace manet::util {

/// Welford streaming accumulator for mean / variance / extrema.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

  /// Half-width of the normal-approximation 95% confidence interval of the
  /// mean. Zero for fewer than two samples.
  double ci95_halfwidth() const;

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Estimator for a Bernoulli proportion with its Wilson 95% interval —
/// used for detection / false-alarm probabilities in the benches.
class ProportionEstimator {
 public:
  void add(bool success) {
    ++trials_;
    if (success) ++successes_;
  }

  std::size_t trials() const { return trials_; }
  std::size_t successes() const { return successes_; }
  double proportion() const {
    return trials_ ? static_cast<double>(successes_) / static_cast<double>(trials_) : 0.0;
  }

  /// Wilson score interval bounds at 95% confidence.
  double wilson_lower() const;
  double wilson_upper() const;

 private:
  double wilson_center() const;
  double wilson_halfwidth() const;

  std::size_t trials_ = 0;
  std::size_t successes_ = 0;
};

/// Sample mean of a span (0 for empty).
double mean_of(std::span<const double> xs);

/// Unbiased sample variance of a span (0 for size < 2).
double variance_of(std::span<const double> xs);

/// Pearson correlation of two equally sized spans (0 if degenerate).
double correlation(std::span<const double> xs, std::span<const double> ys);

/// Midranks of a sample: ties receive the average of the ranks they span.
/// Ranks are 1-based, matching statistical convention.
std::vector<double> midranks(std::span<const double> values);

/// Standard normal CDF.
double normal_cdf(double z);

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |error| < 1.2e-8 over (0,1)).
double normal_quantile(double p);

}  // namespace manet::util
