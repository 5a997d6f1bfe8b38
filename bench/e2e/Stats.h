//===- bench/e2e/Stats.h - Benchmark-owned sample statistics ----*- C++ -*-===//
//
// Part of primsel. See bench/e2e/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every statistic the end-to-end benchmark reports is computed here, not
/// by the program's own helpers (support/Stats.h), so a change to the code
/// under test cannot redefine a reported number. `primsel-e2e --self-test`
/// pins these definitions against hand-computed fixtures.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_BENCH_E2E_STATS_H
#define PRIMSEL_BENCH_E2E_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace e2e {

/// A percentile is reported only when at least this many samples lie
/// beyond it.
constexpr size_t MinSamplesBeyond = 10;

/// The open-loop generator may run this late at its 99th percentile before
/// a run is declared invalid: beyond it the offered load is no longer the
/// fixed schedule the workload promises.
constexpr double LagGateMs = 50.0;

/// 1-based nearest rank of percentile \p P (in [0, 1]) over \p N samples:
/// the smallest rank R with R >= P * N, clamped to [1, N].
inline size_t nearestRank(size_t N, double P) {
  double R = std::ceil(P * static_cast<double>(N) - 1e-9);
  if (R < 1.0)
    return 1;
  return std::min(N, static_cast<size_t>(R));
}

/// Samples strictly beyond the nearest-rank percentile \p P of \p N.
inline size_t samplesBeyond(size_t N, double P) {
  return N == 0 ? 0 : N - nearestRank(N, P);
}

/// True when \p N samples support percentile \p P.
inline bool percentileSupported(size_t N, double P) {
  return N != 0 && samplesBeyond(N, P) >= MinSamplesBeyond;
}

/// Nearest-rank percentile; NaN for an empty sample.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(V.begin(), V.end());
  return V[nearestRank(V.size(), P) - 1];
}

/// Median (mean of the middle two for an even count); NaN when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Geometric mean of positive samples; NaN when empty.
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// The validity rules of one run. A run that breaks any of them measured
/// something other than the workload it names, so it prints no result.
class Validity {
public:
  /// Percentile \p P of \p N samples is reported as \p What.
  void requireSupported(const std::string &What, size_t N, double P) {
    if (!percentileSupported(N, P))
      Problems.push_back(What + ": " + std::to_string(samplesBeyond(N, P)) +
                         " samples beyond the percentile of " +
                         std::to_string(N) + ", need " +
                         std::to_string(MinSamplesBeyond));
  }
  /// The generator's 99th-percentile lateness was \p LagP99Ms.
  void requireLagWithinGate(double LagP99Ms) {
    if (!(LagP99Ms <= LagGateMs))
      Problems.push_back("loadgen.lag_p99_ms " + std::to_string(LagP99Ms) +
                         " exceeds the gate of " + std::to_string(LagGateMs) +
                         " ms");
  }
  bool ok() const { return Problems.empty(); }
  const std::vector<std::string> &problems() const { return Problems; }

private:
  std::vector<std::string> Problems;
};

} // namespace e2e

#endif // PRIMSEL_BENCH_E2E_STATS_H
