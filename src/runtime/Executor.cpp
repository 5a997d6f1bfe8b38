//===- runtime/Executor.cpp -----------------------------------------------===//
//
// The Executor: one ExecutionContext over a CompiledNet it builds itself.
// All execution machinery lives in engine/CompiledNet.cpp, so the one-shot
// path and the many-context serving path are the same code.
//
//===----------------------------------------------------------------------===//

#include "runtime/Executor.h"

using namespace primsel;

namespace {

ExecutorOptions withThreads(unsigned Threads, uint64_t WeightSeed) {
  ExecutorOptions O;
  O.Threads = Threads;
  O.WeightSeed = WeightSeed;
  return O;
}

} // namespace

Executor::Executor(const NetworkGraph &Net, const NetworkPlan &Plan,
                   const PrimitiveLibrary &Lib, unsigned Threads,
                   uint64_t WeightSeed)
    : Executor(Net, Plan, Lib, withThreads(Threads, WeightSeed)) {}

Executor::Executor(const NetworkGraph &Net, const NetworkPlan &Plan,
                   const PrimitiveLibrary &Lib, const ExecutorOptions &Options)
    : ExecutionContext(CompiledNet::build(Net, Plan, Lib,
                                          CompileOptions{Options.WeightSeed}),
                       Options) {}
