// Streaming statistics and error metrics.
//
// RunningStats implements Welford's online algorithm; ErrorMetrics computes
// the four regression metrics the paper reports in Table II (MSE, RMSE, MAE,
// MAPE) between a prediction series and a ground-truth series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace rlplan {

/// Numerically stable streaming mean / variance / extrema (Welford).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Regression error metrics between prediction and reference series.
/// Matches the metric set of Table II of the RLPlanner paper.
struct ErrorMetrics {
  double mse = 0.0;   ///< mean squared error
  double rmse = 0.0;  ///< root mean squared error
  double mae = 0.0;   ///< mean absolute error
  double mape = 0.0;  ///< mean absolute percentage error, in percent
  std::size_t n = 0;

  /// Computes all four metrics. Reference entries with |ref| < eps are
  /// skipped for MAPE only (to avoid division blow-up), mirroring common
  /// practice. Requires pred.size() == ref.size().
  static ErrorMetrics compute(std::span<const double> pred,
                              std::span<const double> ref,
                              double mape_eps = 1e-9);
};

/// Exact sample quantile with linear interpolation (type R-7, the numpy /
/// Excel default): h = (n-1)q, result = v[floor(h)] + frac(h) *
/// (v[ceil(h)] - v[floor(h)]) over the sorted samples. Exact for small N;
/// a single element is every quantile of itself. Throws std::invalid_argument
/// on an empty input, q outside [0, 1], or any NaN sample (NaN has no order,
/// so a quantile over it is meaningless).
double quantile(std::span<const double> values, double q);

/// Quantile estimate from fixed-bucket histogram counts (the obs metrics
/// export). `counts` has upper_bounds.size() + 1 entries, the last being the
/// +inf overflow bucket. Interpolates linearly inside the selected bucket
/// (lower edge of the first bucket is min(0, upper_bounds[0])); ranks landing
/// in the overflow bucket return upper_bounds.back(), the largest finite
/// statement the histogram can make. Returns 0 when all counts are zero;
/// throws std::invalid_argument on q outside [0, 1] or a size mismatch.
double histogram_quantile(std::span<const double> upper_bounds,
                          std::span<const std::uint64_t> counts, double q);

}  // namespace rlplan
