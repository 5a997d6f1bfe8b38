//===- engine/CompiledNet.h - Compile-once, serve-many artifact -*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile/run split of the serving stack. The paper observes (§4) that
/// profiled cost tables -- and, for Winograd/FFT/packed-GEMM primitives,
/// the kernel transforms themselves -- can be produced once before
/// deployment and shipped with the trained model. CompiledNet is that
/// shipped artifact: everything about one network instantiation that does
/// not depend on the request --
///
///  - the execution graph (an owned copy, so the artifact is
///    self-contained) and the legalized selection plan;
///  - the linearized ExecutionPlan and the MemoryPlan arena template;
///  - one PreparedKernel per conv node (weights generated, packed and
///    transformed once -- the amortized work);
///  - the fully-connected weight matrices and standalone bias vectors.
///
/// A ladder bucket (engine/Ladder.h) is the one exception to the last two
/// points: it holds its anchor and binds the anchor's kernels and buffers,
/// so it prepares nothing and costs only its plan and arena template.
///
/// It is immutable after build() and safe to share across threads. The
/// per-request state lives in ExecutionContext, the one interpreter of the
/// compiled plan: its own arena slabs, value table, thread pool and
/// cheaply-bound ConvInstances (instances carry per-run scratch, so each
/// context binds its own from the shared PreparedKernels). A context runs
/// 1 <= K <= capacity() images per pass, where capacity() is the batch the
/// artifact was compiled at -- a batch-1 artifact is served one image at a
/// time, a ladder bucket (engine/Ladder.h) K at a time through the §8
/// minibatch schedules its plan picked. Any number of contexts serve one
/// CompiledNet concurrently, and each computes bit-identically to the
/// sequential Executor -- which is itself one CompiledNet plus one
/// ExecutionContext, so there is exactly one execution path to trust.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_ENGINE_COMPILEDNET_H
#define PRIMSEL_ENGINE_COMPILEDNET_H

#include "core/Plan.h"
#include "runtime/ExecutionPlan.h"
#include "runtime/MemoryPlanner.h"
#include "support/AlignedBuffer.h"
#include "tensor/Tensor.h"

#include <memory>
#include <vector>

namespace primsel {

class ThreadPool;
class ExecutionContext;

/// Per-run timing breakdown.
struct RunResult {
  double TotalMillis = 0.0;
  double ConvMillis = 0.0;
  double TransformMillis = 0.0;
  double OtherMillis = 0.0; ///< dummy layers
};

/// Compile-time knobs of a CompiledNet.
struct CompileOptions {
  /// Seed for the deterministic per-layer weights (same meaning as
  /// ExecutorOptions::WeightSeed; equal seeds make a CompiledNet and a
  /// plain Executor compute the same function).
  uint64_t WeightSeed = 7;
};

/// Per-context (per-request/per-thread) execution knobs.
struct ExecutionContextOptions {
  /// Pool width for this context. 1 reproduces the paper's
  /// single-threaded rows. With ParallelBranches off the pool parallelizes
  /// within each primitive (or, for @bpar layers, across the batch's
  /// images); with it on, independent steps of a level run concurrently
  /// and primitives execute single-threaded.
  unsigned Threads = 1;
  /// Back intermediates with this context's own slabs of the compile-time
  /// arena layout (one per image of capacity()) instead of per-value
  /// allocations. Network outputs stay individually allocated (they must
  /// survive the run), so outputOf() on other nodes is unavailable.
  bool UseArena = false;
  /// Run independent steps of each dependence level concurrently
  /// (effective when Threads > 1).
  bool ParallelBranches = false;
};

/// The immutable compile-once artifact. Build it directly or through
/// Engine::compile; create one ExecutionContext per serving thread.
class CompiledNet : public std::enable_shared_from_this<CompiledNet> {
public:
  /// Compile \p Plan over \p Net: copy the graph, linearize, memory-plan,
  /// generate the deterministic weights and run every conv node's
  /// prepare(). \p Plan must be legalized (asserted). \p Lib must outlive
  /// the artifact.
  static std::shared_ptr<const CompiledNet>
  build(const NetworkGraph &Net, const NetworkPlan &Plan,
        const PrimitiveLibrary &Lib, const CompileOptions &Options = {});

  /// The owned copy of the execution graph (node ids match the plan's).
  const NetworkGraph &graph() const { return Net; }
  const NetworkPlan &plan() const { return SelPlan; }
  const ExecutionPlan &program() const { return Program; }
  const MemoryPlan &memoryPlan() const { return MPlan; }
  const PrimitiveLibrary &library() const { return Lib; }
  const CompileOptions &options() const { return Opts; }

  /// A batch bucket of \p Anchor (Engine::compileBucket): \p Plan over
  /// \p Net, the anchor's graph at Scenario.Batch = B, whose conv nodes run
  /// §8 minibatch wrappers of the anchor's routines. The bucket prepares
  /// nothing: it holds \p Anchor and binds the anchor's PreparedKernels and
  /// FC/bias buffers (a wrapper's kernel is its base routine's on the
  /// per-image scenario), so it keeps them alive after every other
  /// reference to the anchor is gone. Takes the anchor's library and
  /// options.
  static std::shared_ptr<const CompiledNet>
  buildBucket(std::shared_ptr<const CompiledNet> Anchor,
              const NetworkGraph &Net, const NetworkPlan &Plan);

  /// Bytes held by this artifact's own prepared kernels plus FC/bias
  /// weight buffers -- its weight-side footprint. 0 for a bucket, so a sum
  /// over a ladder's rungs counts the anchor's kernels once.
  size_t preparedBytes() const;
  /// Conv nodes whose kernels this artifact prepared (0 for a bucket).
  unsigned numPreparedKernels() const;
  /// Wall-clock milliseconds build() spent in weight generation and
  /// prepare() -- the one-time cost requests no longer pay (0 for a
  /// bucket).
  double prepareMillis() const { return PrepareMs; }

  /// A fresh, independent per-request context. Thread-safe: any number of
  /// threads may create and run contexts concurrently.
  std::unique_ptr<ExecutionContext>
  newContext(const ExecutionContextOptions &Options = {}) const;

private:
  friend class ExecutionContext;

  /// With a null \p AnchorIn, prepares every kernel; otherwise a bucket of
  /// \p AnchorIn that prepares nothing.
  CompiledNet(const NetworkGraph &NetIn, const NetworkPlan &PlanIn,
              const PrimitiveLibrary &LibIn, const CompileOptions &Options,
              std::shared_ptr<const CompiledNet> AnchorIn);

  /// The artifact whose kernels and buffers this one runs: the anchor for
  /// a bucket, itself otherwise.
  const CompiledNet &weights() const { return Anchor ? *Anchor : *this; }

  NetworkGraph Net; ///< owned copy; the artifact is self-contained
  NetworkPlan SelPlan;
  const PrimitiveLibrary &Lib;
  CompileOptions Opts;
  ExecutionPlan Program;
  MemoryPlan MPlan;
  double PrepareMs = 0.0;
  /// A bucket's anchor (null otherwise); node ids match across the two.
  std::shared_ptr<const CompiledNet> Anchor;

  /// Per conv node: the shared weight-side artifact (null elsewhere; empty
  /// for a bucket).
  std::vector<std::shared_ptr<const PreparedKernel>> Prepared;
  /// Per node: FC weight matrices and standalone bias vectors, read-only
  /// at run time and therefore shared by every context (empty for a
  /// bucket).
  std::vector<AlignedBuffer> FcWeights;
};

/// The lightweight per-request half and the one interpreter of the
/// compiled program: binds instances from the shared PreparedKernels, owns
/// its arena slabs/value table/pool, and carries K images through each
/// step of the plan, dispatching every conv step once through
/// ConvInstance::runBatch. The default runBatch loops run(), so K = 1 on a
/// batch-1 artifact is the plain single-image pass; on a bucket artifact
/// the minibatch wrappers execute the @bser/@bpar schedule the solver
/// picked. Transforms and non-conv layers run per image through the
/// single-image operators, so outputs are bit-identical to the sequential
/// Executor, image by image, at every K.
///
/// Not thread-safe itself -- one context per serving thread -- but
/// independent contexts never share mutable state, so they run
/// concurrently.
class ExecutionContext {
public:
  /// \p Compiled may be any artifact: a batch-1 plan yields a capacity-1
  /// context, a batch-bucket artifact (its graph at Scenario.Batch == B)
  /// a capacity-B one.
  ExecutionContext(std::shared_ptr<const CompiledNet> Compiled,
                   const ExecutionContextOptions &Options);
  ~ExecutionContext();

  ExecutionContext(const ExecutionContext &) = delete;
  ExecutionContext &operator=(const ExecutionContext &) = delete;

  /// The compiled batch size, max(1, graph().batch()): the largest K
  /// run() accepts.
  int64_t capacity() const { return Capacity; }

  /// One forward pass of one image. \p Input must be CHW with the input
  /// layer's shape.
  RunResult run(const Tensor3D &Input);
  /// One forward pass over \p Inputs (1 <= K <= capacity(); asserted),
  /// each CHW with the per-image input shape and borrowed for the call.
  /// Partial batches are first-class: K < capacity() runs K images.
  RunResult run(const std::vector<const Tensor3D *> &Inputs);

  /// Output tensor of node \p N for image \p Image of the most recent
  /// run. In arena mode, only valid for network outputs (asserted): other
  /// nodes' bytes are recycled during the pass.
  const Tensor3D &outputOf(NetworkGraph::NodeId N, size_t Image = 0) const;
  /// The network's (first) output for image \p Image of the most recent
  /// run; valid until the next run on this context.
  const Tensor3D &output(size_t Image) const;
  const Tensor3D &networkOutput() const { return output(0); }

  const CompiledNet &compiled() const { return *Compiled; }
  const ExecutionContextOptions &options() const { return Opts; }

  /// Bytes of this context's arena: capacity() slabs of the compile-time
  /// template (0 when UseArena is off).
  size_t arenaBytes() const { return Arena.size() * sizeof(float); }

private:
  RunResult runImages(const Tensor3D *const *Inputs, size_t K);
  void executeStep(unsigned StepIndex, const Tensor3D *const *Inputs,
                   RunResult &R, ThreadPool *PrimPool);
  void runDummy(NetworkGraph::NodeId N, size_t Image, Tensor3D &Out,
                ThreadPool *PrimPool);
  Tensor3D makeValueTensor(ValueId V, size_t Image);
  /// Per-image tensors of the value feeding input \p Index of \p Consumer,
  /// after any conversion chain.
  const std::vector<Tensor3D> &inputValues(NetworkGraph::NodeId Consumer,
                                           unsigned Index) const;

  std::shared_ptr<const CompiledNet> Compiled;
  ExecutionContextOptions Opts;
  int64_t Capacity = 1;
  std::unique_ptr<ThreadPool> Pool;
  /// The network's (first) output node, resolved once.
  NetworkGraph::NodeId OutNode = 0;

  /// Conv instances bound once with the node's full scenario, indexed by
  /// node. Binding is cheap (no weight work); instances hold this
  /// context's per-run scratch, and minibatch wrappers materialize their
  /// schedule here.
  std::vector<std::unique_ptr<ConvInstance>> Instances;
  /// Backing storage for arena-packed values: capacity() consecutive
  /// slabs of the compile-time arena template (UseArena only).
  AlignedBuffer Arena;
  /// Per-run tensors indexed [ValueId][Image] (node outputs and chain
  /// hops); inner vectors hold the current run's K entries.
  std::vector<std::vector<Tensor3D>> Values;
  size_t CurBatch = 0;
};

} // namespace primsel

#endif // PRIMSEL_ENGINE_COMPILEDNET_H
