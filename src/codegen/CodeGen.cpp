//===- codegen/CodeGen.cpp ------------------------------------------------===//

#include "codegen/CodeGen.h"

#include "core/Legalizer.h"
#include "runtime/ExecutionPlan.h"

#include <cassert>
#include <map>
#include <sstream>

using namespace primsel;

namespace {

/// "Layout::CHW"-style literal for emission.
std::string layoutLiteral(Layout L) {
  return std::string("primsel::Layout::") + layoutName(L);
}

/// C++ identifier for node \p N's output tensor.
std::string nodeVar(NetworkGraph::NodeId N) {
  return "T" + std::to_string(N);
}

/// C++ identifier for hop \p Hop (1-based) of the conversion chain feeding
/// input (\p N, \p Index). Every hop gets its own preallocated tensor so a
/// Context's run() performs no allocation.
std::string hopVar(NetworkGraph::NodeId N, unsigned Index, unsigned Hop) {
  return "E" + std::to_string(N) + "_" + std::to_string(Index) + "_" +
         std::to_string(Hop);
}

/// C++ identifier for node \p N's per-node member with \p Prefix.
std::string memberVar(const char *Prefix, NetworkGraph::NodeId N) {
  return std::string(Prefix) + std::to_string(N);
}

/// The expression naming the tensor feeding input \p Index of node \p N:
/// the final hop of the conversion chain if one ran, else the producer's
/// output tensor.
std::string inputExpr(const NetworkPlan &Plan, const NetworkGraph &Net,
                      NetworkGraph::NodeId N, unsigned Index) {
  auto It = Plan.Chains.find({N, Index});
  if (It != Plan.Chains.end())
    return hopVar(N, Index, static_cast<unsigned>(It->second.size()) - 1);
  return nodeVar(Net.node(N).Inputs[Index]);
}

/// "primsel::EpilogueKind::BiasReLU"-style literal for emission.
std::string epilogueLiteral(EpilogueKind E) {
  switch (E) {
  case EpilogueKind::None:
    return "primsel::EpilogueKind::None";
  case EpilogueKind::ReLU:
    return "primsel::EpilogueKind::ReLU";
  case EpilogueKind::Bias:
    return "primsel::EpilogueKind::Bias";
  case EpilogueKind::BiasReLU:
    return "primsel::EpilogueKind::BiasReLU";
  }
  assert(false && "unknown epilogue kind");
  return "";
}

/// Emit the aggregate literal for a scenario, field order as declared.
std::string scenarioLiteral(const ConvScenario &S) {
  std::ostringstream OS;
  OS << "primsel::ConvScenario{" << S.C << ", " << S.H << ", " << S.W << ", "
     << S.Stride << ", " << S.K << ", " << S.M << ", " << S.Pad << ", "
     << S.SparsityPct << ", " << S.Batch << ", "
     << (S.Depthwise ? "true" : "false") << ", " << epilogueLiteral(S.Epi)
     << "}";
  return OS.str();
}

/// Emit the preallocation of a Context tensor member in the constructor.
void emitTensorInit(std::ostringstream &OS, const std::string &Var,
                    const TensorShape &Shape, Layout L) {
  OS << "      " << Var << " = primsel::Tensor3D(" << Shape.C << ", "
     << Shape.H << ", " << Shape.W << ", " << layoutLiteral(L) << ");\n";
}

} // namespace

std::string primsel::emitPlanSource(const NetworkGraph &Net,
                                    const NetworkPlan &Plan,
                                    const PrimitiveLibrary &Lib,
                                    const CodeGenOptions &Options) {
  assert(isLegalized(Plan, Net) && "codegen requires a legalized plan");
  ExecutionPlan Program = ExecutionPlan::compile(Net, Plan, Lib);

  // Thread-annotated plans (the solver's PR 6 thread dimension) cap each
  // conv's intra-op workers; plans without the axis never mention caps.
  bool ThreadAxis = !Plan.ConvThreads.empty();

  std::ostringstream OS;
  OS << "//===- generated: " << Net.name()
     << " -----------------------------------------===//\n"
     << "//\n"
     << "// Generated by primsel codegen from network '" << Net.name()
     << "'. Do not edit.\n"
     << "// " << Program.numConvSteps() << " convolutions, "
     << Program.numTransformSteps() << " layout-transform steps.\n"
     << "//\n"
     << "//===---------------------------------------------------------"
        "-------------===//\n\n";

  OS << "#include \"primitives/Registry.h\"\n"
     << "#include \"runtime/LayerOps.h\"\n"
     << "#include \"support/Random.h\"\n"
     << "#include \"support/ThreadPool.h\"\n"
     << "#include \"tensor/Transform.h\"\n\n"
     << "#include <cassert>\n"
     << "#include <cmath>\n"
     << "#include <cstring>\n"
     << "#include <memory>\n"
     << "#include <vector>\n\n";

  OS << "namespace " << Options.Namespace << " {\n\n";

  OS << "/// Ahead-of-time instantiation of '" << Net.name()
     << "', split compile/run\n"
     << "/// like the library's CompiledNet: the " << Options.ClassName
     << " constructor performs all\n"
     << "/// weight-side work exactly once (generation, packing, kernel "
        "transforms),\n"
     << "/// and each Context binds cheap per-request instances and "
        "preallocates every\n"
     << "/// intermediate tensor, so run() is a straight-line forward pass "
        "with no\n"
     << "/// per-step dispatch, timing or allocation.\n";
  OS << "class " << Options.ClassName << " {\npublic:\n";

  // --- Program constructor: primitive lookup + prepare-phase work. ---
  OS << "  explicit " << Options.ClassName
     << "(const primsel::PrimitiveLibrary &Lib, uint64_t WeightSeed = 7) {\n";
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    if (!isDummyKind(Node.L.Kind)) {
      const ConvScenario &S = Node.Scenario;
      // Seeds come from the node's SeedId/BiasSeedId (not its position) so
      // programs generated from pass-rewritten graphs compute bit-identical
      // outputs to their O0 originals.
      OS << "    { // " << Node.L.Name << "\n"
         << "      primsel::ConvScenario S = " << scenarioLiteral(S) << ";\n"
         << "      primsel::Kernel4D W(S.M, S.kernelChannels(), S.K);\n"
         << "      W.fillRandom(WeightSeed + " << Node.SeedId << ");\n"
         << "      W.applySparsity(S.SparsityPct, WeightSeed + " << Node.SeedId
         << " + 1);\n"
         << "      auto Id = Lib.findByName(\""
         << Lib.get(Plan.ConvPrim[N]).name() << "\");\n"
         << "      assert(Id && \"library lacks a primitive this program "
            "needs\");\n"
         << "      " << memberVar("Prim", N) << " = &Lib.get(*Id);\n"
         << "      " << memberVar("Scen", N) << " = S;\n"
         << "      " << memberVar("Prep", N)
         << " = primsel::prepareWithEpilogue(*" << memberVar("Prim", N)
         << ", S, W);\n"
         << "      " << memberVar("BiasSeed", N) << " = WeightSeed + "
         << Node.BiasSeedId << ";\n"
         << "    }\n";
    } else if (Node.L.Kind == LayerKind::FullyConnected) {
      const TensorShape &In = Net.node(Node.Inputs[0]).OutShape;
      int64_t Flat = In.elements();
      OS << "    { // " << Node.L.Name << "\n"
         << "      " << memberVar("Fc", N) << ".resize("
         << Node.L.OutChannels * Flat << ");\n"
         << "      primsel::fillRandom(" << memberVar("Fc", N) << ".data(), "
         << memberVar("Fc", N) << ".size(), WeightSeed + " << Node.SeedId
         << ",\n                          1.0f / std::sqrt(" << Flat
         << ".0f));\n"
         << "    }\n";
    } else if (Node.L.Kind == LayerKind::Bias) {
      OS << "    { // " << Node.L.Name << "\n"
         << "      " << memberVar("Bias", N) << ".resize("
         << Node.OutShape.C << ");\n"
         << "      primsel::fillEpilogueBias(" << memberVar("Bias", N)
         << ".data(), " << Node.OutShape.C << ", WeightSeed + "
         << Node.BiasSeedId << ");\n"
         << "    }\n";
    }
  }
  OS << "  }\n\n";

  // --- Context: the per-request half (cheap bind + preallocation). ---
  OS << "  /// The per-request half: conv instances cheaply bound from the "
        "shared\n"
     << "  /// prepared kernels plus this context's preallocated "
        "intermediates. Create\n"
     << "  /// one Context per serving thread; contexts never share mutable "
        "state.\n";
  OS << "  class Context {\n  public:\n"
     << "    explicit Context(const " << Options.ClassName
     << " &P) : Prog(P) {\n";
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    if (isDummyKind(Node.L.Kind))
      continue;
    OS << "      " << memberVar("Conv", N)
       << " = primsel::bindWithEpilogue(*P." << memberVar("Prim", N) << ", P."
       << memberVar("Scen", N) << ", P." << memberVar("Prep", N) << ", P."
       << memberVar("BiasSeed", N) << ");\n";
  }
  // Preallocate one tensor per produced value: node outputs plus every hop
  // of every conversion chain, in execution order.
  std::map<EdgeKey, unsigned> HopCount;
  for (const ExecStep &Step : Program.steps()) {
    const NetworkGraph::Node &Node = Net.node(Step.Node);
    switch (Step.K) {
    case ExecStep::Kind::Input:
    case ExecStep::Kind::Conv:
    case ExecStep::Kind::Dummy:
      emitTensorInit(OS, nodeVar(Step.Node), Node.OutShape,
                     Plan.OutLayout[Step.Node]);
      break;
    case ExecStep::Kind::Transform: {
      unsigned Hop = ++HopCount[{Step.Node, Step.InputIndex}];
      const NetworkGraph::Node &Producer =
          Net.node(Node.Inputs[Step.InputIndex]);
      emitTensorInit(OS, hopVar(Step.Node, Step.InputIndex, Hop),
                     Producer.OutShape, Step.To);
      break;
    }
    }
  }
  OS << "    }\n\n";

  // --- Context::run(): the straight-line program. ---
  OS << "    /// One forward pass; input must be the network input shape in "
        "CHW.\n"
     << "    /// Returns this context's preallocated output tensor, valid "
        "until the\n"
     << "    /// next run().\n";
  OS << "    const primsel::Tensor3D &run(const primsel::Tensor3D &Input,\n"
     << "                                 primsel::ThreadPool *Pool = "
        "nullptr) {\n"
     << "      primsel::RunContext Ctx{Pool};\n"
     << "      (void)Ctx;\n";

  HopCount.clear();
  for (const ExecStep &Step : Program.steps()) {
    const NetworkGraph::Node &Node = Net.node(Step.Node);
    switch (Step.K) {
    case ExecStep::Kind::Input:
      OS << "      // input " << Node.L.Name << "\n"
         << "      assert(Input.layout() == "
         << layoutLiteral(Plan.OutLayout[Step.Node])
         << " &&\n             \"network input must arrive in the canonical "
            "layout\");\n"
         << "      assert(Input.size() == " << nodeVar(Step.Node)
         << ".size() && \"input shape mismatch\");\n"
         << "      std::memcpy(" << nodeVar(Step.Node)
         << ".data(), Input.data(),\n"
         << "                  static_cast<size_t>(Input.size()) * "
            "sizeof(float));\n";
      break;

    case ExecStep::Kind::Transform: {
      unsigned Hop = ++HopCount[{Step.Node, Step.InputIndex}];
      std::string Src =
          Hop == 1 ? nodeVar(Node.Inputs[Step.InputIndex])
                   : hopVar(Step.Node, Step.InputIndex, Hop - 1);
      OS << "      // edge -> " << Node.L.Name << "#" << Step.InputIndex
         << ": " << layoutName(Step.From) << " -> " << layoutName(Step.To)
         << "\n"
         << "      primsel::runTransform(" << Src << ", "
         << hopVar(Step.Node, Step.InputIndex, Hop) << ");\n";
      break;
    }

    case ExecStep::Kind::Conv: {
      OS << "      // conv " << Node.L.Name << " <- "
         << Lib.get(Plan.ConvPrim[Step.Node]).name();
      if (ThreadAxis)
        OS << " (t" << Plan.convThreads(Step.Node) << ")";
      OS << "\n";
      // The plan's per-node worker count (the solver's thread dimension)
      // caps this conv's intra-op parallelism, exactly as the interpreted
      // ExecutionContext does; capping never changes results, only speed.
      if (ThreadAxis)
        OS << "      Ctx.MaxThreads = " << Plan.convThreads(Step.Node)
           << ";\n";
      OS << "      " << memberVar("Conv", Step.Node) << "->run("
         << inputExpr(Plan, Net, Step.Node, 0) << ", " << nodeVar(Step.Node)
         << ", Ctx);\n";
      break;
    }

    case ExecStep::Kind::Dummy: {
      std::string Var = nodeVar(Step.Node);
      std::string In = inputExpr(Plan, Net, Step.Node, 0);
      OS << "      // " << layerKindName(Node.L.Kind) << " " << Node.L.Name
         << "\n";
      switch (Node.L.Kind) {
      case LayerKind::ReLU:
        OS << "      primsel::reluOp(" << In << ", " << Var << ");\n";
        break;
      case LayerKind::Bias:
        OS << "      primsel::biasOp(Prog." << memberVar("Bias", Step.Node)
           << ".data(), " << In << ", " << Var << ");\n";
        break;
      case LayerKind::Dropout:
        OS << "      primsel::identityOp(" << In << ", " << Var << ");\n";
        break;
      case LayerKind::Softmax:
        OS << "      primsel::softmaxOp(" << In << ", " << Var << ");\n";
        break;
      case LayerKind::MaxPool:
      case LayerKind::AvgPool:
        OS << "      primsel::poolOp("
           << (Node.L.Kind == LayerKind::MaxPool ? "true" : "false") << ", "
           << Node.L.KernelSize << ", " << Node.L.Stride << ", "
           << Node.L.Pad << ", " << In << ", " << Var << ");\n";
        break;
      case LayerKind::LRN:
        OS << "      primsel::lrnOp(" << In << ", " << Var << ");\n";
        break;
      case LayerKind::Concat:
      case LayerKind::Add: {
        OS << "      primsel::"
           << (Node.L.Kind == LayerKind::Concat ? "concatOp" : "addOp")
           << "({";
        for (unsigned I = 0; I < Node.Inputs.size(); ++I) {
          if (I)
            OS << ", ";
          OS << "&" << inputExpr(Plan, Net, Step.Node, I);
        }
        OS << "}, " << Var << ");\n";
        break;
      }
      case LayerKind::GlobalAvgPool:
        OS << "      primsel::globalAvgPoolOp(" << In << ", " << Var
           << ");\n";
        break;
      case LayerKind::FullyConnected:
        OS << "      primsel::fullyConnectedOp(Prog."
           << memberVar("Fc", Step.Node) << ".data(), " << In << ", " << Var
           << ", Pool);\n";
        break;
      case LayerKind::Input:
      case LayerKind::Conv:
      case LayerKind::DepthwiseConv:
        assert(false && "not a dummy layer");
        break;
      }
      // Fused activation on dummy absorbers, same applier as the
      // interpreter.
      if (Node.L.Epi != EpilogueKind::None)
        OS << "      primsel::applyEpilogue(" << epilogueLiteral(Node.L.Epi)
           << ", nullptr, " << Var << ");\n";
      break;
    }
    }
  }

  std::vector<NetworkGraph::NodeId> Outs = Net.outputs();
  assert(!Outs.empty() && "network without outputs");
  OS << "      return " << nodeVar(Outs.front()) << ";\n"
     << "    }\n\n  private:\n"
     << "    const " << Options.ClassName << " &Prog;\n";

  // --- Context members. ---
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    if (!isDummyKind(Node.L.Kind))
      OS << "    std::unique_ptr<primsel::ConvInstance> "
         << memberVar("Conv", N) << "; // " << Node.L.Name << "\n";
  }
  HopCount.clear();
  for (const ExecStep &Step : Program.steps()) {
    const NetworkGraph::Node &Node = Net.node(Step.Node);
    if (Step.K == ExecStep::Kind::Transform) {
      unsigned Hop = ++HopCount[{Step.Node, Step.InputIndex}];
      OS << "    primsel::Tensor3D "
         << hopVar(Step.Node, Step.InputIndex, Hop) << ";\n";
    } else {
      OS << "    primsel::Tensor3D " << nodeVar(Step.Node) << "; // "
         << Node.L.Name << "\n";
    }
  }
  OS << "  };\n\n";

  // --- One-shot convenience run() (a fresh context per call). ---
  OS << "  /// One-shot convenience: bind a fresh context, run once, return "
        "an owned\n"
     << "  /// copy of the output.\n";
  OS << "  primsel::Tensor3D run(const primsel::Tensor3D &Input,\n"
     << "                        primsel::ThreadPool *Pool = nullptr) const "
        "{\n"
     << "    Context Ctx(*this);\n"
     << "    const primsel::Tensor3D &Out = Ctx.run(Input, Pool);\n"
     << "    primsel::Tensor3D Copy(Out.channels(), Out.height(), "
        "Out.width(),\n"
     << "                           Out.layout());\n"
     << "    std::memcpy(Copy.data(), Out.data(),\n"
     << "                static_cast<size_t>(Copy.size()) * "
        "sizeof(float));\n"
     << "    return Copy;\n  }\n\nprivate:\n"
     << "  friend class Context;\n";

  // --- Program members. ---
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    if (!isDummyKind(Node.L.Kind))
      OS << "  const primsel::ConvPrimitive *" << memberVar("Prim", N)
         << " = nullptr; // " << Node.L.Name << "\n"
         << "  primsel::ConvScenario " << memberVar("Scen", N) << ";\n"
         << "  std::shared_ptr<const primsel::PreparedKernel> "
         << memberVar("Prep", N) << ";\n"
         << "  uint64_t " << memberVar("BiasSeed", N) << " = 0;\n";
    else if (Node.L.Kind == LayerKind::FullyConnected)
      OS << "  std::vector<float> " << memberVar("Fc", N) << "; // "
         << Node.L.Name << "\n";
    else if (Node.L.Kind == LayerKind::Bias)
      OS << "  std::vector<float> " << memberVar("Bias", N) << "; // "
         << Node.L.Name << "\n";
  }

  OS << "};\n\n} // namespace " << Options.Namespace << "\n";
  return OS.str();
}
