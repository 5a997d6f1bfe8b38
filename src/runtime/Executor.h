//===- runtime/Executor.h - Whole-network execution -------------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a legalized NetworkPlan end to end: convolutions through their
/// selected primitives, legalization chains through the transform routines,
/// and every "dummy" layer (pooling, activation, LRN, concat, FC, softmax)
/// for real in its assigned layout. Weights are deterministic per layer so
/// two Executors over the same network compute identical functions -- that
/// is how whole-network correctness is verified (a PBQP-instantiated
/// network must produce the sum2d network's output).
///
/// The Executor is an ExecutionContext (engine/CompiledNet.h) whose
/// constructors first build the private CompiledNet it runs (weight
/// generation, prepare-time kernel packing, memory planning) -- so the
/// one-shot Executor and a many-context serving setup share a single
/// execution path and are bit-identical by construction. compiled()
/// exposes the artifact; compiled().newContext() serves the same
/// instantiation from additional contexts/threads.
///
/// The executor always runs the MemoryPlanner's level schedule (levels in
/// order; steps within a level are independent). Two serving-oriented
/// options build on that:
///  - UseArena: intermediates live in one packed, reused arena instead of
///    per-layer allocations (see runtime/MemoryPlanner.h);
///  - ParallelBranches: steps within a level run concurrently on the
///    thread pool (GoogLeNet's inception towers), with primitives then
///    running single-threaded to keep the pool single-purpose.
/// Both options leave the computed outputs bit-identical to the plain
/// configuration.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_RUNTIME_EXECUTOR_H
#define PRIMSEL_RUNTIME_EXECUTOR_H

#include "engine/CompiledNet.h"
#include "support/ThreadPool.h"

namespace primsel {

/// Configuration of an Executor: the context knobs plus the weight seed of
/// the CompiledNet it builds.
struct ExecutorOptions : ExecutionContextOptions {
  /// Seed for the deterministic per-layer weights.
  uint64_t WeightSeed = 7;
};

/// One-shot execution: a context over a CompiledNet of its own.
class Executor final : public ExecutionContext {
public:
  /// \param Threads 1 reproduces the paper's single-threaded rows; more
  /// threads use a shared pool across all primitives.
  Executor(const NetworkGraph &Net, const NetworkPlan &Plan,
           const PrimitiveLibrary &Lib, unsigned Threads = 1,
           uint64_t WeightSeed = 7);
  Executor(const NetworkGraph &Net, const NetworkPlan &Plan,
           const PrimitiveLibrary &Lib, const ExecutorOptions &Options);

  /// Peak intermediate footprint of this configuration: the arena extent
  /// plus persistent outputs in arena mode, every value's allocation
  /// otherwise.
  size_t peakIntermediateBytes() const {
    const MemoryPlan &MPlan = compiled().memoryPlan();
    return options().UseArena ? arenaBytes() + MPlan.persistentBytes()
                              : MPlan.BaselineBytes;
  }
};

} // namespace primsel

#endif // PRIMSEL_RUNTIME_EXECUTOR_H
