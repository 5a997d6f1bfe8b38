//===- core/Strategies.cpp ------------------------------------------------===//

#include "core/Strategies.h"

#include <cassert>
#include <limits>

using namespace primsel;

const char *primsel::strategyName(Strategy S) {
  switch (S) {
  case Strategy::Sum2D:
    return "sum2d";
  case Strategy::FamilyDirect:
    return "direct";
  case Strategy::FamilyIm2:
    return "im2";
  case Strategy::FamilyKn2:
    return "kn2";
  case Strategy::FamilyWinograd:
    return "winograd";
  case Strategy::FamilyFFT:
    return "fft";
  case Strategy::LocalOptimalCHW:
    return "local-optimal";
  case Strategy::Greedy:
    return "greedy";
  case Strategy::PBQP:
    return "pbqp";
  case Strategy::CaffeLike:
    return "caffe";
  case Strategy::MkldnnLike:
    return "mkldnn";
  case Strategy::ArmclLike:
    return "armcl";
  }
  assert(false && "unknown strategy");
  return "?";
}

std::optional<Strategy> primsel::parseStrategy(const std::string &Name) {
  for (uint8_t I = 0; I <= static_cast<uint8_t>(Strategy::ArmclLike); ++I) {
    Strategy S = static_cast<Strategy>(I);
    if (Name == strategyName(S))
      return S;
  }
  return std::nullopt;
}

std::vector<Strategy> primsel::figureStrategies(bool IncludeArmcl) {
  std::vector<Strategy> Out = {
      Strategy::FamilyDirect,    Strategy::FamilyIm2,
      Strategy::FamilyKn2,       Strategy::FamilyWinograd,
      Strategy::FamilyFFT,       Strategy::LocalOptimalCHW,
      Strategy::PBQP,            Strategy::MkldnnLike,
      Strategy::CaffeLike};
  if (IncludeArmcl)
    Out.insert(Out.end() - 1, Strategy::ArmclLike);
  return Out;
}

namespace {

/// Fill dummy-node layouts: either a fixed canonical layout, or forward
/// propagation of the producer's layout (so the non-PBQP strategies insert
/// no transforms at dummy layers themselves).
void assignDummyLayouts(NetworkPlan &Plan, const NetworkGraph &Net,
                        const PrimitiveLibrary &Lib,
                        std::optional<Layout> Fixed) {
  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    if (!isDummyKind(Node.L.Kind)) {
      const ConvPrimitive &P = Lib.get(Plan.ConvPrim[N]);
      Plan.InLayout[N] = P.inputLayout();
      Plan.OutLayout[N] = P.outputLayout();
      continue;
    }
    Layout L = Layout::CHW;
    if (Node.L.Kind != LayerKind::Input) {
      if (Fixed)
        L = *Fixed;
      else
        L = Plan.OutLayout[Node.Inputs[0]]; // propagate (topological order)
    }
    Plan.InLayout[N] = L;
    Plan.OutLayout[N] = L;
  }
}

/// The cheapest supporting primitive among \p Candidates; nullopt if empty.
std::optional<PrimitiveId> cheapest(const std::vector<PrimitiveId> &Candidates,
                                    const ConvScenario &S,
                                    CostProvider &Costs) {
  std::optional<PrimitiveId> Best;
  double BestCost = std::numeric_limits<double>::infinity();
  for (PrimitiveId Id : Candidates) {
    double C = Costs.cost({S, Id}).totalMs();
    if (C < BestCost) {
      BestCost = C;
      Best = Id;
    }
  }
  return Best;
}

PrimitiveId namedPrimitive(const PrimitiveLibrary &Lib, const char *Name) {
  std::optional<PrimitiveId> Id = Lib.findByName(Name);
  assert(Id && "library is missing an expected primitive");
  return *Id;
}

} // namespace

NetworkPlan primsel::planForStrategy(Strategy S, const NetworkGraph &Net,
                                     const PrimitiveLibrary &Lib,
                                     CostProvider &Costs) {
  assert(S != Strategy::PBQP && "PBQP plans come from Engine::planFor");

  NetworkPlan Plan;
  Plan.ConvPrim.assign(Net.numNodes(), 0);
  Plan.OutLayout.assign(Net.numNodes(), Layout::CHW);
  Plan.InLayout.assign(Net.numNodes(), Layout::CHW);

  const PrimitiveId Sum2D = Lib.sum2dBaseline();
  // Canonical-layout strategies pin every dummy layer; the others let
  // dummies adopt their producer's layout.
  std::optional<Layout> FixedDummyLayout;
  switch (S) {
  case Strategy::Sum2D:
  case Strategy::LocalOptimalCHW:
  case Strategy::CaffeLike:
  case Strategy::ArmclLike:
    FixedDummyLayout = Layout::CHW;
    break;
  case Strategy::MkldnnLike:
    FixedDummyLayout = Layout::HWC;
    break;
  default:
    break;
  }

  for (NetworkGraph::NodeId N = 0; N < Net.numNodes(); ++N) {
    const NetworkGraph::Node &Node = Net.node(N);
    if (isDummyKind(Node.L.Kind))
      continue;
    const ConvScenario &Sc = Node.Scenario;

    if (Node.L.Kind == LayerKind::DepthwiseConv) {
      // The strategies below encode per-family and per-framework policies
      // for standard convolutions; depthwise nodes have their own family.
      // Baseline strategies pin the reference routine; canonical-layout
      // strategies pick the cheapest routine operating in their layout
      // (dw-ref guarantees a CHW/CHW candidate, dw-pix an HWC/HWC one);
      // everything else takes the cheapest supporting routine.
      if (S == Strategy::Sum2D) {
        Plan.ConvPrim[N] = namedPrimitive(Lib, "dw-ref-chw-chw");
        continue;
      }
      std::vector<PrimitiveId> Candidates = Lib.supporting(Sc);
      if (FixedDummyLayout) {
        std::vector<PrimitiveId> InLayout;
        for (PrimitiveId Id : Candidates)
          if (Lib.get(Id).inputLayout() == *FixedDummyLayout &&
              Lib.get(Id).outputLayout() == *FixedDummyLayout)
            InLayout.push_back(Id);
        if (!InLayout.empty())
          Candidates = std::move(InLayout);
      }
      std::optional<PrimitiveId> Best = cheapest(Candidates, Sc, Costs);
      assert(Best && "no depthwise routine supports a depthwise scenario");
      Plan.ConvPrim[N] = *Best;
      continue;
    }
    PrimitiveId Chosen = Sum2D;

    switch (S) {
    case Strategy::Sum2D:
      break;

    case Strategy::FamilyDirect:
    case Strategy::FamilyIm2:
    case Strategy::FamilyKn2:
    case Strategy::FamilyWinograd:
    case Strategy::FamilyFFT: {
      // Replace sum2d by the family's fastest variant only when it is
      // actually faster for this scenario (§5.5).
      ConvFamily F = S == Strategy::FamilyDirect     ? ConvFamily::Direct
                     : S == Strategy::FamilyIm2      ? ConvFamily::Im2
                     : S == Strategy::FamilyKn2      ? ConvFamily::Kn2
                     : S == Strategy::FamilyWinograd ? ConvFamily::Winograd
                                                     : ConvFamily::FFT;
      std::optional<PrimitiveId> Best =
          cheapest(Lib.supporting(Sc, F), Sc, Costs);
      if (Best && Costs.cost({Sc, *Best}).totalMs() <
                      Costs.cost({Sc, Sum2D}).totalMs())
        Chosen = *Best;
      break;
    }

    case Strategy::LocalOptimalCHW: {
      // Canonical-layout strategy: only CHW-in/CHW-out primitives compete,
      // so no transforms are ever needed.
      std::vector<PrimitiveId> Candidates;
      for (PrimitiveId Id : Lib.supporting(Sc))
        if (Lib.get(Id).inputLayout() == Layout::CHW &&
            Lib.get(Id).outputLayout() == Layout::CHW)
          Candidates.push_back(Id);
      std::optional<PrimitiveId> Best = cheapest(Candidates, Sc, Costs);
      assert(Best && "sum2d is CHW/CHW so candidates cannot be empty");
      Chosen = *Best;
      break;
    }

    case Strategy::Greedy: {
      // Fastest primitive per layer, edge costs ignored.
      std::optional<PrimitiveId> Best =
          cheapest(Lib.supporting(Sc), Sc, Costs);
      assert(Best && "sum2d always supports");
      Chosen = *Best;
      break;
    }

    case Strategy::CaffeLike:
      // Caffe: im2col + BLAS GEMM in the canonical NCHW layout.
      Chosen = namedPrimitive(Lib, "im2col-b-chw-chw");
      break;

    case Strategy::MkldnnLike:
      // Vendor-library analogue: a fixed vector-friendly layout (HWC
      // standing in for MKL-DNN's blocked nChw8c) and a per-layer
      // heuristic rule instead of profiling.
      if (Sc.K == 1 && Sc.Stride == 1)
        Chosen = namedPrimitive(Lib, "kn2col-as-b-hwc-hwc");
      else if (Sc.C < 8)
        Chosen = namedPrimitive(Lib, "direct-pt4-hwc-hwc");
      else
        Chosen = namedPrimitive(Lib, "im2row-b-hwc-hwc");
      break;

    case Strategy::ArmclLike:
      // ARM Compute Library analogue: NCHW, direct convolution for small
      // kernels, im2col+GEMM otherwise.
      if (Sc.K <= 3 && Sc.Stride == 1)
        Chosen = namedPrimitive(Lib, "direct-t16-chw-chw");
      else
        Chosen = namedPrimitive(Lib, "im2col-b-chw-chw");
      break;

    case Strategy::PBQP:
      assert(false && "rejected above");
      break;
    }
    Plan.ConvPrim[N] = Chosen;
  }

  assignDummyLayouts(Plan, Net, Lib, FixedDummyLayout);
  DTTableCache Tables(Costs, Net);
  bool Legal = legalize(Plan, Net, Tables);
  assert(Legal && "strategy produced an illegalizable plan");
  (void)Legal;
  return Plan;
}
