//===- bench/BenchCommon.h - Shared benchmark harness -----------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the figure/table benchmarks: environment knobs,
/// cost-database file caching (so the profiling pass is paid once across
/// bench binaries), whole-network timing, and speedup-table printing in the
/// paper's format.
///
/// Environment knobs:
///   PRIMSEL_SCALE       spatial input scale (default 0.25; 1.0 = paper size)
///   PRIMSEL_ITERS       timed forward passes per bar (default 3; paper uses 5)
///   PRIMSEL_REPEATS     profiler repeats per (layer, primitive) (default 1)
///   PRIMSEL_CACHE       cost-cache directory (default ".")
///   PRIMSEL_BENCH_JSON  path of a self-verifying bench's JSON record
///                       (default: the bench's BENCH_*.json in cwd)
///
/// A malformed or non-positive PRIMSEL_SCALE, PRIMSEL_ITERS or
/// PRIMSEL_REPEATS exits 2 naming the variable.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_BENCH_BENCHCOMMON_H
#define PRIMSEL_BENCH_BENCHCOMMON_H

#include "core/Selector.h"
#include "core/Strategies.h"
#include "cost/AnalyticModel.h"
#include "cost/Profiler.h"
#include "nn/Models.h"
#include "runtime/Executor.h"

#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace primsel {
namespace bench {

/// Parsed environment configuration. fromEnvironment() exits 2 on a
/// malformed knob rather than running on a misread value.
struct BenchConfig {
  double Scale = 0.25;
  unsigned Iters = 3;
  unsigned Repeats = 1;
  std::string CacheDir = ".";

  static BenchConfig fromEnvironment();
};

/// A measured (or modelled) bar of a figure: one strategy on one network.
struct BarResult {
  Strategy S;
  double MeanMillis = 0.0;
  double SpeedupVsSum2D = 0.0;
};

/// One network's column in a figure.
struct NetworkResult {
  std::string Network;
  double Sum2DMillis = 0.0;
  std::vector<BarResult> Bars;
};

/// Build a measured cost provider whose database is cached on disk under
/// \p Tag, so repeated bench binaries skip re-profiling.
class CachedMeasuredProvider {
public:
  CachedMeasuredProvider(const PrimitiveLibrary &Lib,
                         const BenchConfig &Config, unsigned Threads,
                         const std::string &Tag);
  ~CachedMeasuredProvider();

  MeasuredCostProvider &provider() { return Prov; }

private:
  std::string Path;
  MeasuredCostProvider Prov;
};

/// Execute \p Plan on \p Net for Config.Iters forward passes and return the
/// mean wall-clock per pass (the paper's methodology, §5.2).
double timeNetworkPlan(const NetworkGraph &Net, const NetworkPlan &Plan,
                       const PrimitiveLibrary &Lib, unsigned Threads,
                       const BenchConfig &Config);

/// Run the whole-network comparison for one network: every strategy in
/// \p Strategies (plus the sum2d baseline), timed by real execution when
/// \p Measured, or modelled via \p Costs otherwise.
///
/// The paper normalizes every figure to the *single-threaded* sum2d
/// baseline (§5.2), so multithreaded comparisons pass \p BaselineThreads=1
/// (and, for modelled runs, a 1-thread \p BaselineCosts provider); when
/// left at the defaults the baseline uses the same configuration as the
/// bars.
NetworkResult runNetworkComparison(const std::string &ModelName,
                                   const PrimitiveLibrary &Lib,
                                   CostProvider &Costs, unsigned Threads,
                                   const BenchConfig &Config, bool Measured,
                                   const std::vector<Strategy> &Strategies,
                                   CostProvider *BaselineCosts = nullptr,
                                   unsigned BaselineThreads = 0);

/// Print a figure as a gnuplot-compatible table: one row per network, one
/// column per strategy, values are speedups vs sum2d.
void printSpeedupTable(const std::string &Title,
                       const std::vector<NetworkResult> &Results);

/// Print absolute times in the Table 2/3 format.
void printAbsoluteTable(const std::string &Title,
                        const std::vector<NetworkResult> &Results,
                        const std::vector<Strategy> &Columns);

/// One JSON object under construction: fields render in insertion order,
/// nested values render when set. The only JSON emitter of the bench
/// harness, so every BENCH_*.json shares one escaping and number format.
class JsonObject {
public:
  JsonObject &set(const std::string &Key, const std::string &Value);
  JsonObject &set(const std::string &Key, const char *Value) {
    return set(Key, std::string(Value));
  }
  JsonObject &set(const std::string &Key, bool Value) {
    return raw(Key, Value ? "true" : "false");
  }
  /// Non-finite values render as null, which JSON can represent.
  JsonObject &set(const std::string &Key, double Value);
  template <typename Int, std::enable_if_t<std::is_integral_v<Int> &&
                                               !std::is_same_v<Int, bool>,
                                           int> = 0>
  JsonObject &set(const std::string &Key, Int Value) {
    return raw(Key, std::to_string(Value));
  }
  JsonObject &set(const std::string &Key, const JsonObject &Value) {
    return raw(Key, Value.render());
  }
  JsonObject &set(const std::string &Key,
                  const std::vector<JsonObject> &Values);

  /// Compact one-line rendering (nested objects and arrays included).
  std::string render() const;
  /// Document rendering: one field per line, and the elements of
  /// array-valued fields one per line beneath it.
  std::string renderDocument() const;

private:
  struct Field {
    std::string Key;
    std::string Value;                 ///< compact rendering
    std::vector<std::string> Elements; ///< array fields: each element
  };
  JsonObject &raw(const std::string &Key, std::string Rendered);
  std::vector<Field> Fields;
};

/// Write \p Root's document rendering to PRIMSEL_BENCH_JSON, or else to
/// \p DefaultPath, with a top-level "host" object appended: cpu_model,
/// simd_tier (the active GEMM tier) and hardware_threads. Warn on stderr
/// when the file cannot be written.
void writeBenchJson(const JsonObject &Root, const char *DefaultPath);

} // namespace bench
} // namespace primsel

#endif // PRIMSEL_BENCH_BENCHCOMMON_H
