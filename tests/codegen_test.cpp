//===- tests/codegen_test.cpp - LayerOps + code generator tests -----------===//
//
// Unit tests for the public non-conv layer operators (runtime/LayerOps.h)
// and tests for the C++ code generator (codegen/CodeGen.h): the emitted
// program's structure, and one emitted program executed. That program is
// generated at build time (tests/CMakeLists.txt runs codegen_emit on the
// random-residual model) and compiled into this test, as
// examples/codegen_driver does for tinydag.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "cost/AnalyticModel.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "runtime/Executor.h"
#include "runtime/LayerOps.h"
#include "support/ThreadPool.h"
#include "tensor/Transform.h"

#include <gtest/gtest.h>

#include <cmath>

// The program emitted for randomResidualNetwork(2026, 24, 2) at build time.
#include "random_residual_gen.inc"

using namespace primsel;

namespace {

//===----------------------------------------------------------------------===//
// LayerOps
//===----------------------------------------------------------------------===//

TEST(LayerOps, ReluClampsNegatives) {
  Tensor3D In(2, 3, 3, Layout::CHW);
  In.fillRandom(1);
  Tensor3D Out(2, 3, 3, Layout::CHW);
  reluOp(In, Out);
  for (int64_t C = 0; C < 2; ++C)
    for (int64_t H = 0; H < 3; ++H)
      for (int64_t W = 0; W < 3; ++W) {
        float X = In.at(C, H, W);
        EXPECT_FLOAT_EQ(Out.at(C, H, W), X > 0.0f ? X : 0.0f);
      }
}

TEST(LayerOps, IdentityCopies) {
  Tensor3D In(3, 4, 5, Layout::HWC);
  In.fillRandom(2);
  Tensor3D Out(3, 4, 5, Layout::HWC);
  identityOp(In, Out);
  EXPECT_EQ(maxAbsDifference(In, Out), 0.0f);
}

TEST(LayerOps, SoftmaxIsANormalizedDistribution) {
  Tensor3D In(10, 1, 1, Layout::CHW);
  In.fillRandom(3);
  Tensor3D Out(10, 1, 1, Layout::CHW);
  softmaxOp(In, Out);
  double Sum = 0.0;
  for (int64_t C = 0; C < 10; ++C) {
    EXPECT_GT(Out.at(C, 0, 0), 0.0f);
    Sum += Out.at(C, 0, 0);
  }
  EXPECT_NEAR(Sum, 1.0, 1e-5);
  // Order-preserving: argmax of input is argmax of output.
  int64_t ArgIn = 0, ArgOut = 0;
  for (int64_t C = 1; C < 10; ++C) {
    if (In.at(C, 0, 0) > In.at(ArgIn, 0, 0))
      ArgIn = C;
    if (Out.at(C, 0, 0) > Out.at(ArgOut, 0, 0))
      ArgOut = C;
  }
  EXPECT_EQ(ArgIn, ArgOut);
}

TEST(LayerOps, MaxPoolPicksWindowMaximum) {
  Tensor3D In(1, 4, 4, Layout::CHW);
  for (int64_t H = 0; H < 4; ++H)
    for (int64_t W = 0; W < 4; ++W)
      In.at(0, H, W) = static_cast<float>(H * 4 + W);
  Tensor3D Out(1, 2, 2, Layout::CHW);
  poolOp(/*IsMax=*/true, /*K=*/2, /*Stride=*/2, /*Pad=*/0, In, Out);
  EXPECT_FLOAT_EQ(Out.at(0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(Out.at(0, 0, 1), 7.0f);
  EXPECT_FLOAT_EQ(Out.at(0, 1, 0), 13.0f);
  EXPECT_FLOAT_EQ(Out.at(0, 1, 1), 15.0f);
}

TEST(LayerOps, AvgPoolExcludesPaddingFromTheDivisor) {
  // Caffe convention: the corner window of a padded average pool divides
  // by the number of real cells, not K*K.
  Tensor3D In(1, 2, 2, Layout::CHW);
  In.fill(1.0f);
  Tensor3D Out(1, 2, 2, Layout::CHW);
  poolOp(/*IsMax=*/false, /*K=*/3, /*Stride=*/1, /*Pad=*/1, In, Out);
  for (int64_t H = 0; H < 2; ++H)
    for (int64_t W = 0; W < 2; ++W)
      EXPECT_FLOAT_EQ(Out.at(0, H, W), 1.0f);
}

TEST(LayerOps, PoolingIsLayoutInvariant) {
  Tensor3D In(4, 7, 7, Layout::CHW);
  In.fillRandom(11);
  Tensor3D OutCHW(4, 3, 3, Layout::CHW);
  poolOp(true, 3, 2, 0, In, OutCHW);
  Tensor3D InHWC = convertToLayout(In, Layout::HWC);
  Tensor3D OutHWC(4, 3, 3, Layout::HWC);
  poolOp(true, 3, 2, 0, InHWC, OutHWC);
  EXPECT_EQ(maxAbsDifference(OutCHW, convertToLayout(OutHWC, Layout::CHW)),
            0.0f);
}

TEST(LayerOps, LrnShrinksHighEnergyRegionsMore) {
  Tensor3D In(8, 2, 2, Layout::CHW);
  In.fill(1.0f);
  Tensor3D Out(8, 2, 2, Layout::CHW);
  lrnOp(In, Out);
  for (int64_t C = 0; C < 8; ++C)
    for (int64_t H = 0; H < 2; ++H)
      for (int64_t W = 0; W < 2; ++W) {
        EXPECT_LT(Out.at(C, H, W), 1.0f);
        EXPECT_GT(Out.at(C, H, W), 0.9f); // alpha is tiny
      }
}

TEST(LayerOps, ConcatStacksChannelsInOrder) {
  Tensor3D A(2, 3, 3, Layout::CHW), B(3, 3, 3, Layout::HWC);
  A.fillRandom(21);
  B.fillRandom(22);
  Tensor3D Out(5, 3, 3, Layout::CHW);
  concatOp({&A, &B}, Out);
  for (int64_t H = 0; H < 3; ++H)
    for (int64_t W = 0; W < 3; ++W) {
      for (int64_t C = 0; C < 2; ++C)
        EXPECT_FLOAT_EQ(Out.at(C, H, W), A.at(C, H, W));
      for (int64_t C = 0; C < 3; ++C)
        EXPECT_FLOAT_EQ(Out.at(2 + C, H, W), B.at(C, H, W));
    }
}

TEST(LayerOps, FullyConnectedMatchesManualDotProducts) {
  Tensor3D In(2, 2, 2, Layout::CHW);
  In.fillRandom(31);
  std::vector<float> W(3 * 8);
  for (size_t I = 0; I < W.size(); ++I)
    W[I] = 0.01f * static_cast<float>(I);
  Tensor3D Out(3, 1, 1, Layout::CHW);
  fullyConnectedOp(W.data(), In, Out);
  for (int64_t U = 0; U < 3; ++U) {
    float Want = 0.0f;
    size_t Idx = 0;
    for (int64_t C = 0; C < 2; ++C)
      for (int64_t H = 0; H < 2; ++H)
        for (int64_t Col = 0; Col < 2; ++Col)
          Want += W[static_cast<size_t>(U) * 8 + Idx++] * In.at(C, H, Col);
    EXPECT_NEAR(Out.at(U, 0, 0), Want, 1e-5f);
  }
}

TEST(LayerOps, FullyConnectedIsLayoutInvariant) {
  Tensor3D In(3, 4, 4, Layout::CHW);
  In.fillRandom(41);
  std::vector<float> W(5 * 48, 0.02f);
  Tensor3D OutA(5, 1, 1, Layout::CHW), OutB(5, 1, 1, Layout::CHW);
  fullyConnectedOp(W.data(), In, OutA);
  Tensor3D InWHC = convertToLayout(In, Layout::WHC);
  fullyConnectedOp(W.data(), InWHC, OutB);
  EXPECT_LE(maxAbsDifference(OutA, OutB), 1e-5f);
}

//===----------------------------------------------------------------------===//
// Code generator structure
//===----------------------------------------------------------------------===//

struct GeneratedModel {
  NetworkGraph Net;
  NetworkPlan Plan;
  std::string Source;
};

GeneratedModel generateFor(NetworkGraph Net, const CodeGenOptions &Opts = {}) {
  static PrimitiveLibrary Lib = buildFullLibrary();
  MachineProfile Profile = MachineProfile::haswell();
  AnalyticCostProvider Costs(Lib, Profile);
  SelectionResult R = optimizeNetwork(Net, Lib, Costs);
  std::string Src = emitPlanSource(Net, R.Plan, Lib, Opts);
  return {std::move(Net), std::move(R.Plan), std::move(Src)};
}

TEST(CodeGen, EmitsEveryConvPrimitiveByName) {
  GeneratedModel G = generateFor(tinyDag(24));
  static PrimitiveLibrary Lib = buildFullLibrary();
  for (NetworkGraph::NodeId N : G.Net.convNodes()) {
    std::string Name = Lib.get(G.Plan.ConvPrim[N]).name();
    EXPECT_NE(G.Source.find("findByName(\"" + Name + "\")"),
              std::string::npos)
        << Name;
  }
}

TEST(CodeGen, EmitsOneRunCallPerConvAndOneReturn) {
  GeneratedModel G = generateFor(tinyChain(24));
  size_t Runs = 0;
  for (size_t Pos = G.Source.find("->run("); Pos != std::string::npos;
       Pos = G.Source.find("->run(", Pos + 1))
    ++Runs;
  EXPECT_EQ(Runs, G.Net.convNodes().size());
  EXPECT_NE(G.Source.find("return T"), std::string::npos);
}

TEST(CodeGen, EmitsTransformsForEveryChainHop) {
  GeneratedModel G = generateFor(tinyDag(24));
  size_t WantHops = 0;
  for (const auto &[Edge, Chain] : G.Plan.Chains)
    WantHops += Chain.size() - 1;
  size_t Transforms = 0;
  for (size_t Pos = G.Source.find("primsel::runTransform(");
       Pos != std::string::npos;
       Pos = G.Source.find("primsel::runTransform(", Pos + 1))
    ++Transforms;
  EXPECT_EQ(Transforms, WantHops);
  // The network input is copied, not transformed: the interpreter asserts
  // it already arrives in the canonical layout, and so does generated code.
  EXPECT_NE(G.Source.find("std::memcpy(T0.data(), Input.data()"),
            std::string::npos);
}

TEST(CodeGen, EmittedSourceIsDeterministic) {
  // The .so cache keys on a fingerprint of the emitted source, so the same
  // graph + plan must render byte-identically every time.
  GeneratedModel A = generateFor(tinyDag(24));
  GeneratedModel B = generateFor(tinyDag(24));
  EXPECT_EQ(A.Source, B.Source);
  GeneratedModel C = generateFor(googLeNet(0.125));
  GeneratedModel D = generateFor(googLeNet(0.125));
  EXPECT_EQ(C.Source, D.Source);
}

TEST(CodeGen, EmitsConvThreadCapsForThreadAnnotatedPlans) {
  // A post-PR-6 plan carries per-conv worker counts; generated code must
  // cap each conv's RunContext exactly like the interpreted
  // ExecutionContext does.
  GeneratedModel G = generateFor(tinyChain(24));
  ASSERT_TRUE(G.Plan.ConvThreads.empty());
  EXPECT_EQ(G.Source.find("Ctx.MaxThreads"), std::string::npos);

  static PrimitiveLibrary Lib = buildFullLibrary();
  NetworkPlan Threaded = G.Plan;
  Threaded.ConvThreads.assign(G.Net.numNodes(), 0);
  for (NetworkGraph::NodeId N : G.Net.convNodes())
    Threaded.ConvThreads[N] = 3;
  std::string Src = emitPlanSource(G.Net, Threaded, Lib);
  size_t Caps = 0;
  for (size_t Pos = Src.find("Ctx.MaxThreads = 3;"); Pos != std::string::npos;
       Pos = Src.find("Ctx.MaxThreads = 3;", Pos + 1))
    ++Caps;
  EXPECT_EQ(Caps, G.Net.convNodes().size());
}

TEST(CodeGen, RespectsNamespaceAndClassOptions) {
  CodeGenOptions Opts;
  Opts.Namespace = "acme_deploy";
  Opts.ClassName = "AlexNetProgram";
  GeneratedModel G = generateFor(tinyChain(24), Opts);
  EXPECT_NE(G.Source.find("namespace acme_deploy {"), std::string::npos);
  EXPECT_NE(G.Source.find("class AlexNetProgram {"), std::string::npos);
  EXPECT_NE(G.Source.find("} // namespace acme_deploy"), std::string::npos);
}

TEST(CodeGen, EmitsLayerOpsForDummyLayers) {
  // tinyDag contains pooling/relu/concat; the generated program must call
  // the public layer operators rather than re-deriving the math.
  GeneratedModel G = generateFor(tinyDag(24));
  EXPECT_NE(G.Source.find("primsel::reluOp("), std::string::npos);
  EXPECT_NE(G.Source.find("primsel::poolOp("), std::string::npos);
  EXPECT_NE(G.Source.find("primsel::concatOp("), std::string::npos);
}

TEST(CodeGen, GeneratedProgramExecutesRandomResidualNetwork) {
  // Beyond string checks: execute the emitted program for a pseudo-random
  // residual/depthwise DAG and diff against the interpreting Executor
  // oracle. The plan is re-solved exactly as codegen_emit solved it
  // (analytic Haswell costs, one thread), so both run the same plan.
  NetworkGraph Net = randomResidualNetwork(/*Seed=*/2026, /*InputSize=*/24,
                                           /*Stages=*/2);
  static PrimitiveLibrary Lib = buildFullLibrary();
  MachineProfile Profile = MachineProfile::haswell();
  AnalyticCostProvider Costs(Lib, Profile, /*Threads=*/1);
  Engine Eng(Lib, Costs);
  SelectionResult R = Eng.optimize(Net);
  ASSERT_FALSE(R.Plan.empty());

  Executor Oracle(Net, R.Plan, Lib, /*Threads=*/1, /*WeightSeed=*/7);
  const TensorShape &Sh = Net.node(0).OutShape;
  Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
  In.fillRandom(5);
  Oracle.run(In);

  generated::Program P(Lib, /*WeightSeed=*/7);
  generated::Program::Context Ctx(P);
  const Tensor3D &Out = Ctx.run(In);
  EXPECT_EQ(maxAbsDifference(Out, Oracle.networkOutput()), 0.0f);
}

TEST(CodeGen, GoogLeNetScaleProgramEmits) {
  // A DAG with 57 convolutions and inception fan-out must still render;
  // sanity-check size and step counts.
  GeneratedModel G = generateFor(googLeNet(0.125));
  EXPECT_GT(G.Source.size(), 20000u);
  size_t Convs = 0;
  for (size_t Pos = G.Source.find("// conv "); Pos != std::string::npos;
       Pos = G.Source.find("// conv ", Pos + 1))
    ++Convs;
  EXPECT_EQ(Convs, G.Net.convNodes().size());
}

} // namespace
