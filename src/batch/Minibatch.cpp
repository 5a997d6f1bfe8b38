//===- batch/Minibatch.cpp ------------------------------------------------===//

#include "batch/Minibatch.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace primsel;

const char *primsel::batchPolicyName(BatchPolicy P) {
  switch (P) {
  case BatchPolicy::LayerParallel:
    return "layer-parallel";
  case BatchPolicy::ImageParallel:
    return "image-parallel";
  }
  assert(false && "unknown batch policy");
  return "?";
}

namespace {

/// Layer-parallel schedule: one base instance, images in sequence, the run
/// context's pool available inside each image ("parallel GEMM").
class LayerParallelInstance : public ConvInstance {
public:
  explicit LayerParallelInstance(std::unique_ptr<ConvInstance> Base)
      : Base(std::move(Base)) {}

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override {
    Base->run(In, Out, Ctx);
  }

  void runBatch(const std::vector<Tensor3D> &In, std::vector<Tensor3D> &Out,
                const RunContext &Ctx) override {
    assert(In.size() == Out.size() && "batch size mismatch");
    for (size_t I = 0; I < In.size(); ++I)
      Base->run(In[I], Out[I], Ctx);
  }

private:
  std::unique_ptr<ConvInstance> Base;
};

/// Image-parallel schedule: images spread over lanes, each image running
/// single-threaded ("minibatch parallelism"). A K-image batch uses
/// min(K, pool width, RunContext::MaxThreads when set) lanes, so the plan's
/// per-node thread count caps it like any routine; image I runs on lane
/// I mod lanes. Base instances keep per-run scratch, so each lane binds
/// its own -- on first use, all from the one shared PreparedKernel.
class ImageParallelInstance : public ConvInstance {
public:
  ImageParallelInstance(const ConvPrimitive &BasePrim, const ConvScenario &S,
                        std::shared_ptr<const PreparedKernel> Prepared)
      : BasePrim(BasePrim), PerImage(S.singleImage()),
        Prepared(std::move(Prepared)) {
    Lanes.push_back(BasePrim.bind(PerImage, this->Prepared));
  }

  void run(const Tensor3D &In, Tensor3D &Out, const RunContext &Ctx) override {
    Lanes.front()->run(In, Out, Ctx);
  }

  void runBatch(const std::vector<Tensor3D> &In, std::vector<Tensor3D> &Out,
                const RunContext &Ctx) override {
    assert(In.size() == Out.size() && "batch size mismatch");
    size_t Width = Ctx.Pool ? Ctx.Pool->numThreads() : 1;
    if (Ctx.MaxThreads > 0)
      Width = std::min(Width, static_cast<size_t>(Ctx.MaxThreads));
    size_t NumLanes = std::max<size_t>(1, std::min(In.size(), Width));
    while (Lanes.size() < NumLanes)
      Lanes.push_back(BasePrim.bind(PerImage, Prepared));

    RunContext SingleThreaded; // no pool: images must not nest parallelism
    auto RunLane = [&](int64_t L) {
      for (size_t I = static_cast<size_t>(L); I < In.size(); I += NumLanes)
        Lanes[static_cast<size_t>(L)]->run(In[I], Out[I], SingleThreaded);
    };
    if (NumLanes == 1) {
      RunLane(0);
      return;
    }
    Ctx.Pool->parallelFor(0, static_cast<int64_t>(NumLanes), RunLane,
                          static_cast<int>(NumLanes));
  }

private:
  const ConvPrimitive &BasePrim;
  ConvScenario PerImage;
  std::shared_ptr<const PreparedKernel> Prepared;
  std::vector<std::unique_ptr<ConvInstance>> Lanes;
};

} // namespace

std::string MinibatchPrimitive::name() const {
  return Base.name() +
         (Policy == BatchPolicy::LayerParallel ? "@bser" : "@bpar");
}

size_t MinibatchPrimitive::workspaceBytes(const ConvScenario &S) const {
  size_t PerImage = Base.workspaceBytes(S.singleImage());
  // Image-parallel keeps every image's workspace live at once.
  if (Policy == BatchPolicy::ImageParallel)
    return PerImage * static_cast<size_t>(S.Batch);
  return PerImage;
}

std::shared_ptr<const PreparedKernel>
MinibatchPrimitive::prepare(const ConvScenario &S,
                            const Kernel4D &Weights) const {
  assert(supports(S) && "preparing an unsupported scenario");
  return Base.prepare(S.singleImage(), Weights);
}

std::unique_ptr<ConvInstance>
MinibatchPrimitive::bind(const ConvScenario &S,
                         std::shared_ptr<const PreparedKernel> Prepared) const {
  assert(supports(S) && "binding an unsupported scenario");
  if (Policy == BatchPolicy::LayerParallel)
    return std::make_unique<LayerParallelInstance>(
        Base.bind(S.singleImage(), std::move(Prepared)));
  return std::make_unique<ImageParallelInstance>(Base, S,
                                                 std::move(Prepared));
}

unsigned primsel::addMinibatchVariants(PrimitiveLibrary &Lib) {
  // Snapshot the current size: wrappers must not wrap wrappers.
  unsigned BaseCount = Lib.size();
  for (PrimitiveId Id = 0; Id < BaseCount; ++Id) {
    const ConvPrimitive &P = Lib.get(Id);
    if (P.supportsBatch(2))
      continue; // already batch-capable
    Lib.add(std::make_unique<MinibatchPrimitive>(P, BatchPolicy::LayerParallel));
    Lib.add(std::make_unique<MinibatchPrimitive>(P, BatchPolicy::ImageParallel));
  }
  return Lib.size() - BaseCount;
}

PrimitiveLibrary primsel::buildBatchedLibrary() {
  PrimitiveLibrary Lib = buildFullLibrary();
  addMinibatchVariants(Lib);
  return Lib;
}
