// Aggregation helpers of the SDM serving benchmark: medians, exact
// quantiles, per-query ratios and tail-sample rules. Header-only and free
// of simulator types so agg_test.cpp can pin them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace sdmbench {

/// Exact quantile of `values` (linear interpolation between closest ranks,
/// the "inclusive" method). 0 for an empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// Samples strictly beyond quantile `q` out of `n` (floor of n * (1 - q)).
inline uint64_t SamplesBeyond(uint64_t n, double q) {
  return static_cast<uint64_t>(std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it; with fewer it describes a handful of queries, not a tail.
inline bool TailSupported(uint64_t n, double q) { return SamplesBeyond(n, q) >= 10; }

/// Per-query ratio: always divides by COMPLETED queries (a failed query did
/// not buy its reads), and is 0 when nothing completed.
inline double PerQuery(double amount, uint64_t completed) {
  return completed == 0 ? 0 : amount / static_cast<double>(completed);
}

/// One segment's percentile and the samples behind it.
struct Segment {
  double value = 0;
  uint64_t samples = 0;
};

/// Sample-weighted mean of per-segment percentiles — how the benchmark
/// combines percentiles of several histograms it cannot merge (one per
/// host of a cluster, one per serving phase of a host).
inline double WeightedMean(std::span<const Segment> segments) {
  double num = 0;
  double den = 0;
  for (const Segment& s : segments) {
    num += s.value * static_cast<double>(s.samples);
    den += static_cast<double>(s.samples);
  }
  return den == 0 ? 0 : num / den;
}

/// Relative change of `b` against `a` in percent (0 when `a` is 0).
inline double PercentChange(double a, double b) { return a == 0 ? 0 : 100.0 * (b - a) / a; }

}  // namespace sdmbench
