#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace rlplan {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
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

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ = (na * mean_ + nb * other.mean_) / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

ErrorMetrics ErrorMetrics::compute(std::span<const double> pred,
                                   std::span<const double> ref,
                                   double mape_eps) {
  assert(pred.size() == ref.size());
  ErrorMetrics m;
  m.n = pred.size();
  if (m.n == 0) return m;

  double se = 0.0;
  double ae = 0.0;
  double ape = 0.0;
  std::size_t ape_n = 0;
  for (std::size_t i = 0; i < m.n; ++i) {
    const double e = pred[i] - ref[i];
    se += e * e;
    ae += std::abs(e);
    if (std::abs(ref[i]) > mape_eps) {
      ape += std::abs(e / ref[i]);
      ++ape_n;
    }
  }
  const auto n = static_cast<double>(m.n);
  m.mse = se / n;
  m.rmse = std::sqrt(m.mse);
  m.mae = ae / n;
  m.mape = ape_n > 0 ? 100.0 * ape / static_cast<double>(ape_n) : 0.0;
  return m;
}

double quantile(std::span<const double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("quantile: empty sample");
  }
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q must be in [0, 1]");
  }
  std::vector<double> sorted(values.begin(), values.end());
  for (double v : sorted) {
    if (std::isnan(v)) {
      throw std::invalid_argument("quantile: NaN sample");
    }
  }
  std::sort(sorted.begin(), sorted.end());
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double histogram_quantile(std::span<const double> upper_bounds,
                          std::span<const std::uint64_t> counts, double q) {
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("histogram_quantile: q must be in [0, 1]");
  }
  if (upper_bounds.empty() || counts.size() != upper_bounds.size() + 1) {
    throw std::invalid_argument(
        "histogram_quantile: counts must have upper_bounds.size() + 1 "
        "entries");
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const auto in_bucket = static_cast<double>(counts[b]);
    if (cum + in_bucket < rank && b + 1 < counts.size()) {
      cum += in_bucket;
      continue;
    }
    if (b == upper_bounds.size()) return upper_bounds.back();  // overflow
    const double lo = b == 0 ? std::min(0.0, upper_bounds[0]) :
                               upper_bounds[b - 1];
    const double hi = upper_bounds[b];
    if (in_bucket == 0.0) return lo;
    return lo + (hi - lo) * std::clamp((rank - cum) / in_bucket, 0.0, 1.0);
  }
  return upper_bounds.back();
}

}  // namespace rlplan
