//===- engine/CompiledNet.cpp ---------------------------------------------===//

#include "engine/CompiledNet.h"

#include "runtime/LayerOps.h"

#include "core/Legalizer.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "tensor/Transform.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>

using namespace primsel;

//===----------------------------------------------------------------------===//
// CompiledNet: the compile phase
//===----------------------------------------------------------------------===//

CompiledNet::CompiledNet(const NetworkGraph &NetIn, const NetworkPlan &PlanIn,
                         const PrimitiveLibrary &LibIn,
                         const CompileOptions &Options)
    : Net(NetIn), SelPlan(PlanIn), Lib(LibIn), Opts(Options),
      Program(ExecutionPlan::compile(Net, SelPlan, Lib)),
      MPlan(planMemory(Net, SelPlan, Program)) {
  assert(isLegalized(SelPlan, Net) && "compiling requires a legalized plan");

  Prepared.resize(Net.numNodes());
  FcWeights.resize(Net.numNodes());

  Timer PrepareTimer;
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    if (!isDummyKind(Node.L.Kind)) {
      const ConvScenario &S = Node.Scenario;
      // Depthwise filters carry a single input channel.
      Kernel4D Weights(S.M, S.kernelChannels(), S.K);
      // Deterministic per-node weights so any two plans over the same
      // network compute the same function. Seeded by SeedId (= the node id
      // on hand-built graphs) so a pass-rewritten graph draws each layer's
      // weights from the same stream as its O0 original.
      Weights.fillRandom(Opts.WeightSeed + Node.SeedId);
      Weights.applySparsity(S.SparsityPct, Opts.WeightSeed + Node.SeedId + 1);
      // The whole weight-side phase -- packing, Winograd/FFT transforms,
      // quantization tables -- happens here, exactly once per artifact.
      Prepared[N] =
          prepareWithEpilogue(Lib.get(SelPlan.ConvPrim[N]), S, Weights);
    } else if (Node.L.Kind == LayerKind::FullyConnected) {
      const TensorShape &In = Net.node(Node.Inputs[0]).OutShape;
      size_t Flat = static_cast<size_t>(In.elements());
      FcWeights[N].reset(static_cast<size_t>(Node.L.OutChannels) * Flat);
      fillRandom(FcWeights[N].data(), FcWeights[N].size(),
                 Opts.WeightSeed + Node.SeedId);
      // Scale down so deep nets do not overflow float range.
      float Scale = 1.0f / std::sqrt(static_cast<float>(Flat));
      for (size_t I = 0; I < FcWeights[N].size(); ++I)
        FcWeights[N][I] *= Scale;
    } else if (Node.L.Kind == LayerKind::Bias) {
      // Standalone bias layer: the same deterministic stream the fused
      // epilogue would draw (BiasSeedId == SeedId until a pass fuses it).
      FcWeights[N].reset(static_cast<size_t>(Node.OutShape.C));
      fillEpilogueBias(FcWeights[N].data(), Node.OutShape.C,
                       Opts.WeightSeed + Node.BiasSeedId);
    }
  }
  PrepareMs = PrepareTimer.millis();

  // The JIT attempt runs after the interpreted state is fully built, so
  // every rung of the fallback ladder lands on a working artifact: no
  // compiler -> interpret, compile error -> interpret, per-context jit
  // context failure -> that context interprets. Compile time is charged to
  // the prepare phase -- it amortizes across requests exactly like kernel
  // packing.
  if (Opts.Jit) {
    Jit = jit::JitProgram::create(Net, SelPlan, Lib, Opts.WeightSeed,
                                  Opts.JitOpts, JitRep);
    PrepareMs += JitRep.CompileMs;
    if (!Jit)
      std::fprintf(stderr,
                   "primsel: warning: jit compile failed (%s); serving "
                   "interpreted\n",
                   JitRep.Error.c_str());
  }
}

std::shared_ptr<const CompiledNet>
CompiledNet::build(const NetworkGraph &Net, const NetworkPlan &Plan,
                   const PrimitiveLibrary &Lib,
                   const CompileOptions &Options) {
  // Not make_shared: the constructor is private, and a plain new keeps the
  // control block separate from the (large) artifact anyway.
  return std::shared_ptr<const CompiledNet>(
      new CompiledNet(Net, Plan, Lib, Options));
}

size_t CompiledNet::preparedBytes() const {
  size_t Bytes = 0;
  for (const std::shared_ptr<const PreparedKernel> &PK : Prepared)
    if (PK)
      Bytes += PK->bytes();
  for (const AlignedBuffer &B : FcWeights)
    Bytes += B.size() * sizeof(float);
  return Bytes;
}

unsigned CompiledNet::numPreparedKernels() const {
  unsigned Count = 0;
  for (const std::shared_ptr<const PreparedKernel> &PK : Prepared)
    Count += PK != nullptr;
  return Count;
}

std::unique_ptr<ExecutionContext>
CompiledNet::newContext(const ExecutionContextOptions &Options) const {
  return std::make_unique<ExecutionContext>(shared_from_this(), Options);
}

//===----------------------------------------------------------------------===//
// ExecutionContext: the run phase
//===----------------------------------------------------------------------===//

ExecutionContext::ExecutionContext(std::shared_ptr<const CompiledNet> CN,
                                   const ExecutionContextOptions &Options)
    : Compiled(std::move(CN)), Opts(Options),
      Capacity(std::max<int64_t>(1, Compiled->Net.batch())) {
  const CompiledNet &C = *Compiled;
  if (Opts.Threads > 1)
    Pool = std::make_unique<ThreadPool>(Opts.Threads);
  if (Opts.UseArena)
    Arena.reset(C.MPlan.ArenaFloats * static_cast<size_t>(Capacity));

  std::vector<NetworkGraph::NodeId> Outs = C.Net.outputs();
  assert(!Outs.empty() && "network without outputs");
  OutNode = Outs.front();

  Values.resize(C.MPlan.Values.size());
  Instances.resize(C.Net.numNodes());
  for (NetworkGraph::NodeId N = 0; N < C.Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = C.Net.node(N);
    if (isDummyKind(Node.L.Kind))
      continue;
    // Cheap bind against the shared prepared kernel, with the node's full
    // (possibly batched) scenario: minibatch wrappers materialize their
    // schedule here. The epilogue bias stream is regenerated from the same
    // seed the one-shot path uses, so the computed function is identical.
    Instances[N] = bindWithEpilogue(
        C.Lib.get(C.SelPlan.ConvPrim[N]), Node.Scenario, C.Prepared[N],
        C.Opts.WeightSeed + Node.BiasSeedId);
  }

  // Jitted artifact: additionally bind a generated-code context. The
  // interpreted instances above stay bound either way, so a failed jit
  // context (allocation failure inside the object) silently degrades this
  // one context to interpretation.
  if (C.isJitted())
    JitCtx = C.Jit->createContext();
}

ExecutionContext::~ExecutionContext() {
  if (JitCtx)
    Compiled->Jit->destroyContext(JitCtx);
}

const Tensor3D &ExecutionContext::outputOf(NetworkGraph::NodeId N,
                                           size_t Image) const {
  assert(Image < CurBatch && "image index out of the last run's batch");
  if (JitCtx) {
    // The generated program materializes only the network output; other
    // nodes' tensors live inside the jit context.
    assert(N == OutNode && "jitted contexts expose only the network output");
    return JitOutputs[Image];
  }
  const MemoryPlan &MPlan = Compiled->MPlan;
  assert((!Opts.UseArena || !MPlan.Values[MPlan.NodeValue[N]].inArena()) &&
         "arena mode recycles non-output intermediates; outputOf is only "
         "valid for network outputs");
  return Values[MPlan.NodeValue[N]][Image];
}

const Tensor3D &ExecutionContext::output(size_t Image) const {
  return outputOf(OutNode, Image);
}

/// The tensor for value \p V of image \p Image: a view into that image's
/// slab of this context's arena when the value is packed, a fresh owned
/// allocation otherwise.
Tensor3D ExecutionContext::makeValueTensor(ValueId V, size_t Image) {
  const ValueInfo &VI = Compiled->MPlan.Values[V];
  if (Opts.UseArena && VI.inArena())
    return Tensor3D(VI.Shape.C, VI.Shape.H, VI.Shape.W, VI.L,
                    Arena.data() + Image * Compiled->MPlan.ArenaFloats +
                        VI.ArenaOffset);
  return Tensor3D(VI.Shape.C, VI.Shape.H, VI.Shape.W, VI.L);
}

const std::vector<Tensor3D> &
ExecutionContext::inputValues(NetworkGraph::NodeId Consumer,
                              unsigned Index) const {
  return Values[Compiled->MPlan.inputValue(Compiled->Net, Consumer, Index)];
}

/// The one non-conv layer interpreter: run node \p N's operator for image
/// \p Image into \p Out, then apply any fused epilogue in place.
void ExecutionContext::runDummy(NetworkGraph::NodeId N, size_t Image,
                                Tensor3D &Out, ThreadPool *PrimPool) {
  const NetworkGraph::Node &Node = Compiled->Net.node(N);
  const AlignedBuffer &Weights = Compiled->FcWeights[N];
  auto InputAt = [&](unsigned I) -> const Tensor3D & {
    return inputValues(N, I)[Image];
  };
  switch (Node.L.Kind) {
  case LayerKind::ReLU:
    reluOp(InputAt(0), Out);
    break;
  case LayerKind::Bias:
    biasOp(Weights.data(), InputAt(0), Out);
    break;
  case LayerKind::Dropout:
    identityOp(InputAt(0), Out);
    break;
  case LayerKind::Softmax:
    softmaxOp(InputAt(0), Out);
    break;
  case LayerKind::MaxPool:
  case LayerKind::AvgPool:
    poolOp(Node.L.Kind == LayerKind::MaxPool, Node.L.KernelSize,
           Node.L.Stride, Node.L.Pad, InputAt(0), Out);
    break;
  case LayerKind::LRN:
    lrnOp(InputAt(0), Out);
    break;
  case LayerKind::Concat:
  case LayerKind::Add: {
    std::vector<const Tensor3D *> Parts;
    for (unsigned I = 0; I < Node.Inputs.size(); ++I)
      Parts.push_back(&InputAt(I));
    if (Node.L.Kind == LayerKind::Concat)
      concatOp(Parts, Out);
    else
      addOp(Parts, Out);
    break;
  }
  case LayerKind::GlobalAvgPool:
    globalAvgPoolOp(InputAt(0), Out);
    break;
  case LayerKind::FullyConnected:
    fullyConnectedOp(Weights.data(), InputAt(0), Out, PrimPool);
    break;
  case LayerKind::Input:
  case LayerKind::Conv:
  case LayerKind::DepthwiseConv:
    assert(false && "not a dummy layer");
    break;
  }

  // Fused activation on dummy absorbers (Add+ReLU, Pool+ReLU), applied in
  // place by the same shared applier the conv wrapper uses.
  if (Node.L.Epi != EpilogueKind::None)
    applyEpilogue(Node.L.Epi, nullptr, Out);
}

void ExecutionContext::executeStep(unsigned StepIndex,
                                   const Tensor3D *const *Inputs,
                                   RunResult &R, ThreadPool *PrimPool) {
  const CompiledNet &C = *Compiled;
  const ExecStep &Step = C.Program.steps()[StepIndex];
  ValueId V = C.MPlan.Produced[StepIndex];
  std::vector<Tensor3D> &Produced = Values[V];
  Produced.resize(CurBatch);
  for (size_t I = 0; I < CurBatch; ++I)
    Produced[I] = makeValueTensor(V, I);

  Timer T;
  switch (Step.K) {
  case ExecStep::Kind::Input:
    for (size_t I = 0; I < CurBatch; ++I) {
      const Tensor3D &In = *Inputs[I];
      assert(In.layout() == C.SelPlan.OutLayout[Step.Node] &&
             "network input must arrive in the canonical layout");
      assert(In.sameShape(Produced[I]) && "input shape mismatch");
      std::memcpy(Produced[I].data(), In.data(),
                  static_cast<size_t>(In.size()) * sizeof(float));
    }
    break;

  case ExecStep::Kind::Transform: {
    const std::vector<Tensor3D> &Src = Values[C.MPlan.TransformSrc[StepIndex]];
    for (size_t I = 0; I < CurBatch; ++I) {
      assert(Src[I].layout() == Step.From && "chain out of sync");
      runTransform(Src[I], Produced[I]);
    }
    R.TransformMillis += T.millis();
    break;
  }

  case ExecStep::Kind::Conv: {
    RunContext Ctx{PrimPool};
    // The plan's per-node worker count (the solver's thread-count
    // dimension) caps this node's intra-op parallelism; capping never
    // changes results, only speed. Plans without a thread axis leave the
    // historical behaviour untouched: the context's whole pool is usable.
    // The @bpar schedule distributes images over the pool itself and runs
    // each image single-threaded.
    if (!C.SelPlan.ConvThreads.empty())
      Ctx.MaxThreads = static_cast<int>(C.SelPlan.convThreads(Step.Node));
    Instances[Step.Node]->runBatch(inputValues(Step.Node, 0), Produced, Ctx);
    R.ConvMillis += T.millis();
    break;
  }

  case ExecStep::Kind::Dummy:
    for (size_t I = 0; I < CurBatch; ++I)
      runDummy(Step.Node, I, Produced[I], PrimPool);
    R.OtherMillis += T.millis();
    break;
  }
}

RunResult ExecutionContext::run(const Tensor3D &Input) {
  const Tensor3D *One = &Input;
  return runImages(&One, 1);
}

RunResult ExecutionContext::run(const std::vector<const Tensor3D *> &Inputs) {
  return runImages(Inputs.data(), Inputs.size());
}

RunResult ExecutionContext::runImages(const Tensor3D *const *Inputs,
                                      size_t K) {
  assert(K >= 1 && static_cast<int64_t>(K) <= Capacity &&
         "batch must hold 1..capacity() images");
  RunResult R;
  Timer Total;
  CurBatch = K;

  // Jitted path: the generated per-image straight-line program, looped --
  // no per-step dispatch, timing or allocation. Bit-identical to the
  // interpreted pass below by construction (same primitives, same bound
  // instances, same layer operators, same seeds).
  if (JitCtx) {
    for (size_t I = 0; I < K; ++I) {
      const Tensor3D &O = Compiled->Jit->run(JitCtx, *Inputs[I], Pool.get());
      if (JitOutputs.size() == I)
        JitOutputs.emplace_back(O.channels(), O.height(), O.width(),
                                O.layout());
      std::memcpy(JitOutputs[I].data(), O.data(),
                  static_cast<size_t>(O.size()) * sizeof(float));
    }
    R.TotalMillis = Total.millis();
    return R;
  }

  // Levels in order; a level's steps only read values defined in earlier
  // levels, so within a level any order -- including concurrent -- is
  // valid, and the arena packing (level-granular lifetimes) stays sound.
  // Image I only ever touches slab I, so the same holds per image.
  bool Parallel = Opts.ParallelBranches && Pool && Pool->numThreads() > 1;
  ThreadPool *PrimPool = Parallel ? nullptr : Pool.get();
  if (!Parallel) {
    for (const std::vector<unsigned> &Level : Compiled->MPlan.Levels)
      for (unsigned StepIndex : Level)
        executeStep(StepIndex, Inputs, R, PrimPool);
  } else {
    std::mutex Merge;
    for (const std::vector<unsigned> &Level : Compiled->MPlan.Levels) {
      Pool->parallelFor(0, static_cast<int64_t>(Level.size()),
                        [&](int64_t I) {
                          RunResult Local;
                          executeStep(Level[static_cast<size_t>(I)], Inputs,
                                      Local, nullptr);
                          std::lock_guard<std::mutex> Lock(Merge);
                          R.ConvMillis += Local.ConvMillis;
                          R.TransformMillis += Local.TransformMillis;
                          R.OtherMillis += Local.OtherMillis;
                        });
    }
  }
  R.TotalMillis = Total.millis();
  return R;
}
