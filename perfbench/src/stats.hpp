// Host-time arithmetic of the benchmark: normalisation by the reference
// kernel, quantiles, and the tail-percentile rule.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "refkernel.hpp"

namespace perfbench {

/// Mean of the reference-kernel runs observed for one op: the run before
/// it, the run after it, and the `inside_runs` samples taken while it ran
/// (their sum is `inside_sum_us`).
inline double kernel_mean(double before_us, double after_us,
                          double inside_sum_us, std::size_t inside_runs) {
  return (before_us + after_us + inside_sum_us) /
         static_cast<double>(2 + inside_runs);
}

/// An op's host time expressed on the nominal machine: divide by the mean
/// kernel time observed for it, multiply by the nominal kernel time.  The
/// result keeps the unit of `raw`.
inline double normalise(double raw, double kernel_mean_us) {
  if (!(kernel_mean_us > 0.0)) {
    throw std::invalid_argument("normalise: kernel time must be positive");
  }
  return raw * kNominalKernelUs / kernel_mean_us;
}

/// Linear-interpolated quantile, q in [0, 1] (numpy's default method).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("quantile of an empty sample");
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The highest percentile of the ladder p50, p90, p99, p99.9, p99.99 that
/// leaves at least `min_beyond` of `n` samples above it, in percent; 0 when
/// even the median does not.  Exact integer arithmetic: pXX has
/// n * (100 - XX) / 100 samples beyond it.
inline double tail_percentile(std::size_t n, std::size_t min_beyond = 10) {
  // Percentiles in hundredths of a percent.
  constexpr std::uint64_t kLadder[] = {5000, 9000, 9900, 9990, 9999};
  double best = 0.0;
  for (const std::uint64_t p : kLadder) {
    if (static_cast<std::uint64_t>(n) * (10000 - p) >=
        static_cast<std::uint64_t>(min_beyond) * 10000) {
      best = static_cast<double>(p) / 100.0;
    }
  }
  return best;
}

/// Mean of the per-kind medians: each distinct operation counts once, so a
/// run's figure does not depend on how many times the seed drew each kind.
inline double mean_of_kind_medians(
    const std::vector<std::vector<double>>& by_kind) {
  double sum = 0.0;
  std::size_t kinds = 0;
  for (const auto& samples : by_kind) {
    if (!samples.empty()) {
      sum += median(samples);
      ++kinds;
    }
  }
  return kinds == 0 ? 0.0 : sum / static_cast<double>(kinds);
}

}  // namespace perfbench
