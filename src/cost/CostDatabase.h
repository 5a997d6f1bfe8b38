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
  /// Run cost of (S, primitive name) measured with \p Threads workers
  /// (>= 1; asserted). Every run record carries its count as a "|tN" key
  /// suffix, so a time measured at one count never answers a query at
  /// another -- whatever count the profiler that saved the table was
  /// configured with.
  bool hasConvCost(const ConvScenario &S, const std::string &PrimName,
                   unsigned Threads) const;
  double convCost(const ConvScenario &S, const std::string &PrimName,
                  unsigned Threads) const;
  void setConvCost(const ConvScenario &S, const std::string &PrimName,
                   double Millis, unsigned Threads);

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
  /// Merge entries from \p Path; returns false if unreadable. Conv run
  /// records without a "|tN" suffix (written by older versions, which
  /// stored the profiler's configured count there without recording it)
  /// are skipped: their count is unknown, so they are measured again.
  bool load(const std::string &Path);

private:
  /// (S, primitive name): the prepare record's key, and the run record's
  /// before its "|tN" suffix.
  static std::string convKey(const ConvScenario &S,
                             const std::string &PrimName);
  static std::string runKey(const ConvScenario &S,
                            const std::string &PrimName, unsigned Threads);
  static std::string transformKey(Layout From, Layout To,
                                  const TensorShape &Shape);

  std::unordered_map<std::string, double> ConvCosts;
  std::unordered_map<std::string, double> TransformCosts;
  std::unordered_map<std::string, double> PrepareCosts;
};

} // namespace primsel

#endif // PRIMSEL_COST_COSTDATABASE_H
