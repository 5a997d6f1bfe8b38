//===- batch/Minibatch.h - §8 minibatch parallelism extension ---*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §8 minibatch extension: "Our formulation ... does not
/// currently consider minibatch parallelism, but this can be encoded with
/// another integer parameter to the model (the minibatch size). This would
/// enable our optimization approach to select either parallel GEMM or
/// minibatch parallelism on a per-layer basis."
///
/// ConvScenario carries that integer parameter (Batch). This module supplies
/// the two batch schedules as ordinary primitives, so the unchanged PBQP
/// formulation makes the per-layer choice:
///
///  - layer-parallel ("@bser"): images run serially; each image uses the
///    run context's thread pool inside the primitive (the paper's "parallel
///    GEMM" alternative);
///  - image-parallel ("@bpar"): images are distributed across the pool,
///    over at most RunContext::MaxThreads lanes; each image runs a
///    single-threaded primitive ("minibatch parallelism").
///
/// Which schedule wins depends on the layer: big layers saturate the cores
/// from inside one image, while small layers amortize parallelization
/// overhead better across images -- exactly the kind of unpredictable
/// trade-off the paper resolves by profiling + PBQP instead of heuristics.
///
/// The cost side needs no adapter: conv queries carry the batch in their
/// scenario, and the formulation weights each per-image layout transform
/// by the graph's batch (core/DTGraph.h, core/Legalizer.h), because a
/// legalizing transform converts every image flowing along the edge.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_BATCH_MINIBATCH_H
#define PRIMSEL_BATCH_MINIBATCH_H

#include "primitives/Registry.h"

namespace primsel {

/// The two batch schedules of the §8 extension.
enum class BatchPolicy : uint8_t {
  LayerParallel, ///< serial over images, thread pool inside the primitive
  ImageParallel, ///< images across the pool, single-threaded primitives
};

const char *batchPolicyName(BatchPolicy P);

/// A batch-capable primitive wrapping a per-image routine with a schedule.
///
/// The wrapper is transparent for every descriptor property (family,
/// layouts, library tag); its name is the base name plus "@bser" /
/// "@bpar". It supports any minibatch size whose per-image subproblem the
/// base routine supports.
class MinibatchPrimitive : public ConvPrimitive {
public:
  /// \p Base must outlive the wrapper (both normally live in the same
  /// PrimitiveLibrary, whose storage is stable).
  MinibatchPrimitive(const ConvPrimitive &Base, BatchPolicy Policy)
      : Base(Base), Policy(Policy) {}

  std::string name() const override;
  ConvFamily family() const override { return Base.family(); }
  Layout inputLayout() const override { return Base.inputLayout(); }
  Layout outputLayout() const override { return Base.outputLayout(); }
  const char *libraryTag() const override { return Base.libraryTag(); }
  bool isDepthwise() const override { return Base.isDepthwise(); }

  bool supports(const ConvScenario &S) const override {
    return S.Batch >= 2 && Base.supports(S.singleImage());
  }
  /// Wrappers serve only true minibatches; batch-1 scenarios go to the
  /// base routines directly, keeping the selection space free of
  /// duplicated alternatives.
  bool supportsBatch(int64_t Batch) const override { return Batch >= 2; }

  size_t workspaceBytes(const ConvScenario &S) const override;

  /// The wrapper's weight-side artifact is the base routine's, prepared on
  /// the per-image subproblem -- image-parallel schedules used to duplicate
  /// the weight packing per image slot; with the prepare/bind split every
  /// slot binds the one shared PreparedKernel.
  std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const override;

  std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const override;

  const ConvPrimitive &base() const { return Base; }
  BatchPolicy policy() const { return Policy; }

private:
  const ConvPrimitive &Base;
  BatchPolicy Policy;
};

/// Wrap every per-image primitive already in \p Lib with both batch
/// schedules, in place. Returns the number of wrappers added. Call after
/// all base registrations; wrappers are not themselves wrapped.
unsigned addMinibatchVariants(PrimitiveLibrary &Lib);

/// Build the full library plus both batch schedules for every routine --
/// the §8 selection space for batched inference.
PrimitiveLibrary buildBatchedLibrary();

} // namespace primsel

#endif // PRIMSEL_BATCH_MINIBATCH_H
