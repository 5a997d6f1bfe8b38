//===- cost/AnalyticModel.h - Analytic cost model ---------------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A closed-form cost model over MachineProfile. It is the substitute for
/// targets we cannot measure (the ARM Cortex-A57 figures, and 4-core
/// multithreaded runs on a single-core host): per-primitive operation
/// counts and working sets are derived from the real algorithms, scaled by
/// family/vector-width efficiency factors, with a cache-pressure penalty
/// for working sets exceeding the last-level cache. The paper itself notes
/// that "simple heuristics might be almost as effective" as measurement for
/// the DT costs (§3.1); we extend the same spirit to a full machine model
/// and validate its ranking behaviour in tests.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_COST_ANALYTICMODEL_H
#define PRIMSEL_COST_ANALYTICMODEL_H

#include "cost/CostProvider.h"
#include "cost/MachineProfile.h"

namespace primsel {

/// CostProvider backed by the analytic model.
class AnalyticCostProvider : public CostProvider {
public:
  /// \param Threads how many threads the modelled run uses (clamped to the
  /// profile's core count).
  AnalyticCostProvider(const PrimitiveLibrary &Lib,
                       const MachineProfile &Profile, unsigned Threads = 1);

  /// The exact two-phase split: PerRunMs is the run-phase model
  /// (analyticConvCost, the steady-state cost a CompiledNet context pays)
  /// at Q.Threads, or at the configured count when Q.Threads is 0;
  /// AmortizedMs is the prepare-phase model (analyticConvPrepareCost).
  /// totalMs() is the one-shot cost a per-request-instantiating executor
  /// pays, pack/transform then run, and nothing is double-credited in
  /// either mode. The explicit thread count is what lets the solver weigh
  /// (primitive, threads) pairs: a bandwidth-bound primitive gains little
  /// from more workers while a compute-bound GEMM scales, and the Amdahl
  /// terms in analyticConvCost encode exactly that.
  CostBreakdown cost(const CostQuery &Q) override;
  double transformCost(Layout From, Layout To,
                       const TensorShape &Shape) override;
  /// "analytic:<profile>:t<threads>" -- costs are a pure function of the
  /// machine profile and the modelled thread count.
  std::string identity() const override;

private:
  const PrimitiveLibrary &Lib;
  MachineProfile Profile;
  unsigned Threads;
};

/// Modelled milliseconds of the *run phase* for one primitive on one
/// scenario (weight-side prepare work excluded -- see
/// analyticConvPrepareCost; AnalyticCostProvider::cost reports both).
/// Exposed for tests and the Table 1 bench.
double analyticConvCost(const ConvPrimitive &P, const ConvScenario &S,
                        const MachineProfile &Profile, unsigned Threads);

/// Modelled milliseconds for one direct layout-transform routine.
double analyticTransformCost(Layout From, Layout To, const TensorShape &Shape,
                             const MachineProfile &Profile, unsigned Threads);

/// Modelled milliseconds of the weight-side prepare() work for one
/// primitive on one scenario: kernel-matrix flattening (im2/kn2), the
/// Winograd U = G g G^T transform, FFT tap spectra, CSR compression and
/// quantization tables. Zero for the direct-loop families, which consume
/// weights in (close to) their storage order. Single-threaded: prepare is
/// compile-time work, not part of the serving hot path.
double analyticConvPrepareCost(const ConvPrimitive &P, const ConvScenario &S,
                               const MachineProfile &Profile);

} // namespace primsel

#endif // PRIMSEL_COST_ANALYTICMODEL_H
