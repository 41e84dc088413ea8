// Order statistics for the benchmark's per-run summaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// First quartile, median and third quartile of a sample, interpolated the
/// way Python's statistics.quantiles(data, n=4) does by default (the
/// "exclusive" method), so within-run quartiles read on the same scale as
/// the across-run spread computed from the final JSON lines.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

/// The n-1 cut points dividing sorted `v` (at least two values) into n
/// groups: statistics.quantiles(v, n) with its default method.
inline std::vector<double> cuts(const std::vector<double>& v, long n) {
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < n; ++i) {
    long j = std::clamp(i * m / n, 1L, ld - 1);
    long delta = i * m - j * n;
    out.push_back((v[j - 1] * (n - delta) + v[j] * delta) /
                  static_cast<double>(n));
  }
  return out;
}

inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  std::vector<double> c = cuts(v, 4);
  q.q1 = c[0];
  q.q3 = c[2];
  // statistics.median: the middle value, or the mean of the middle two.
  const std::size_t mid = v.size() / 2;
  q.median = v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
  return q;
}

/// First decile (statistics.quantiles(v, n=10)[0]); the value itself for
/// a single sample.
inline double lowDecile(std::vector<double> v) {
  if (v.size() < 2) return v.empty() ? 0.0 : v[0];
  std::sort(v.begin(), v.end());
  return cuts(v, 10)[0];
}

inline double median(const std::vector<double>& v) {
  return quartiles(v).median;
}

/// Geometric mean of positive values (0 for an empty sample).
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logSum = 0.0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

}  // namespace perfbench
