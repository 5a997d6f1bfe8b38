//===- cost/CostDatabase.h - Cost tables with disk cache --------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage for profiled costs. The paper observes that "the resulting cost
/// tables are tiny compared to the weight data ... making it feasible to
/// produce these cost tables before deployment, and ship them with the
/// trained model" (§4); this class is that artifact -- an in-memory table
/// with a simple line-oriented text serialization keyed by primitive name
/// and scenario, so it survives library reorderings.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_COST_COSTDATABASE_H
#define PRIMSEL_COST_COSTDATABASE_H

#include "cost/CostProvider.h"

#include <string>
#include <unordered_map>

namespace primsel {

/// Conv and transform cost tables, serializable to a text file.
class CostDatabase {
public:
  /// Run cost of (S, primitive name). \p Threads == 0 is the un-suffixed
  /// record, which holds the profiler's configured thread count. Any
  /// other count, 1 included, is a thread-keyed record for the solver's
  /// thread-count dimension, with a "|tN" key suffix -- so an explicit
  /// 1-thread time never overwrites or answers for a multi-threaded
  /// profiler's configured-count record. (load() merges by opaque key, so
  /// older readers carry the suffixed records along harmlessly.)
  bool hasConvCost(const ConvScenario &S, const std::string &PrimName,
                   unsigned Threads = 0) const;
  double convCost(const ConvScenario &S, const std::string &PrimName,
                  unsigned Threads = 0) const;
  void setConvCost(const ConvScenario &S, const std::string &PrimName,
                   double Millis, unsigned Threads = 0);

  bool hasTransformCost(Layout From, Layout To,
                        const TensorShape &Shape) const;
  double transformCost(Layout From, Layout To, const TensorShape &Shape) const;
  void setTransformCost(Layout From, Layout To, const TensorShape &Shape,
                        double Millis);

  /// Amortizable weight-side (prepare) cost of (S, primitive name): the
  /// time ConvPrimitive::prepare takes. Stored separately from the run
  /// cost so serving-mode selection can drop it from the per-inference
  /// tables ("prep" records on disk).
  bool hasPrepareCost(const ConvScenario &S,
                      const std::string &PrimName) const;
  double prepareCost(const ConvScenario &S,
                     const std::string &PrimName) const;
  void setPrepareCost(const ConvScenario &S, const std::string &PrimName,
                      double Millis);

  size_t numConvEntries() const { return ConvCosts.size(); }
  size_t numTransformEntries() const { return TransformCosts.size(); }
  size_t numPrepareEntries() const { return PrepareCosts.size(); }

  /// Write every entry to \p Path; returns false on I/O failure.
  bool save(const std::string &Path) const;
  /// Merge entries from \p Path; returns false if unreadable.
  bool load(const std::string &Path);

private:
  static std::string convKey(const ConvScenario &S,
                             const std::string &PrimName,
                             unsigned Threads = 0);
  static std::string transformKey(Layout From, Layout To,
                                  const TensorShape &Shape);

  std::unordered_map<std::string, double> ConvCosts;
  std::unordered_map<std::string, double> TransformCosts;
  std::unordered_map<std::string, double> PrepareCosts;
};

} // namespace primsel

#endif // PRIMSEL_COST_COSTDATABASE_H
