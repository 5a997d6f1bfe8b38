//===- core/Strategies.h - Baseline selection strategies --------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline strategies the paper benchmarks PBQP against (§5.5):
///   - sum2d: the common baseline, every conv is the textbook loop;
///   - per-family bars (direct/im2/kn2/winograd/fft): "picking the fastest
///     variant of that family ... if the replacement is, in fact, faster
///     than sum-of-single-channels for that convolutional scenario";
///   - local optimal (CHW): "eliminates all data layout transformations by
///     choosing a canonical layout ... the default Caffe layout, CHW";
///   - greedy: the fastest primitive per layer ignoring edge costs (the
///     cuDNN-style heuristic discussed in §7);
///   - caffe-like / mkldnn-like / armcl-like: simulated analogues of the
///     framework comparators (see the substitution table in DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_CORE_STRATEGIES_H
#define PRIMSEL_CORE_STRATEGIES_H

#include "core/Legalizer.h"
#include "core/Plan.h"

#include <optional>
#include <string>
#include <vector>

namespace primsel {

/// The selection strategies available to the benchmark harness.
enum class Strategy : uint8_t {
  Sum2D,
  FamilyDirect,
  FamilyIm2,
  FamilyKn2,
  FamilyWinograd,
  FamilyFFT,
  LocalOptimalCHW,
  Greedy,
  PBQP,
  CaffeLike,
  MkldnnLike,
  ArmclLike,
};

const char *strategyName(Strategy S);
std::optional<Strategy> parseStrategy(const std::string &Name);

/// The strategies plotted in Figures 5-7, in the paper's bar order
/// (PBQP is produced by the engine; it is included here so harnesses can
/// iterate one list through Engine::planFor).
std::vector<Strategy> figureStrategies(bool IncludeArmcl);

/// Produce a legalized plan for baseline strategy \p S: pick per-layer
/// assignments according to its policy, then run the shared legalizer.
/// Asserts on Strategy::PBQP, which Engine::planFor (engine/Engine.h)
/// solves through the engine's own solver backend.
NetworkPlan planForStrategy(Strategy S, const NetworkGraph &Net,
                            const PrimitiveLibrary &Lib, CostProvider &Costs);

} // namespace primsel

#endif // PRIMSEL_CORE_STRATEGIES_H
