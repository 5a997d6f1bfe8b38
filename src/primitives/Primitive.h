//===- primitives/Primitive.h - Conv primitive interface --------*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The convolution primitive interface. A primitive is modelled exactly as
/// in the paper (§3): a 3-tuple {Lin, P, Lout} of input layout, routine, and
/// output layout, plus a predicate describing which convolutional scenarios
/// it supports (e.g. Winograd requires stride 1 and K in {3,5}).
///
/// Primitives are *descriptors*; binding one to concrete weights is split
/// into two phases so serving can pay the weight-side work exactly once:
///
///  - prepare(S, Weights) performs every weight re-packing or transformation
///    (Winograd U = G g G^T, FFT tap spectra, quantization tables, CSR
///    compression) and returns an immutable PreparedKernel -- the artifact
///    a CompiledNet ships with the model. GEMM-backed routines store their
///    weights as the active tier's packed sgemm panels (gemm::PackedOperand),
///    so a request packs only its activations;
///  - bind(S, Prepared) produces a lightweight ConvInstance referencing the
///    shared PreparedKernel. Binding does no weight work, so any number of
///    concurrent serving contexts can bind their own instances (instances
///    may hold per-run scratch and are not reentrant; PreparedKernels are
///    read-only and safe to share across threads).
///
/// instantiate(S, Weights) remains as the one-shot convenience:
/// bind(S, prepare(S, Weights)).
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_PRIMITIVES_PRIMITIVE_H
#define PRIMSEL_PRIMITIVES_PRIMITIVE_H

#include "nn/Layer.h"
#include "tensor/Tensor.h"

#include <memory>
#include <string>
#include <vector>

namespace primsel {

class ThreadPool;

/// The six algorithm families of §4 (sum2d is the baseline member of the
/// direct-loop family but is tracked separately because every experiment
/// normalizes to it).
enum class ConvFamily : uint8_t {
  Sum2D,    ///< textbook sum-of-single-channels baseline
  Direct,   ///< direct loop-nest variants
  Im2,      ///< im2col / im2row + GEMM
  Kn2,      ///< low-memory kn2row / kn2col GEMM (Vasudevan et al.)
  Winograd,  ///< Winograd minimal filtering, 1D and 2D
  FFT,       ///< sum of 1D FFT convolutions
  Sparse,    ///< sparsity-exploiting routines (the paper's §8 future work)
  Quantized, ///< 16-bit fixed-point routines (§3 motivates primitives on
             ///< "16-bit fixed point data" whose outputs cannot feed f32
             ///< routines without conversion; ours quantize and dequantize
             ///< at the boundary so tensors stay f32 between layers)
  Depthwise, ///< per-channel routines for depthwise scenarios (MobileNet
             ///< separable stacks); a distinct family because a depthwise
             ///< conv computes a different function than any standard conv
};

constexpr unsigned NumConvFamilies = 9;

const char *convFamilyName(ConvFamily F);

/// Execution context handed to primitives at run time.
struct RunContext {
  /// Worker pool; nullptr or a 1-thread pool means single-threaded
  /// execution (the paper's (S) configuration).
  ThreadPool *Pool = nullptr;
  /// Upper bound on the workers this run may draw from Pool; 0 = no cap.
  /// Set from the plan's per-node thread alternative so a node priced at T
  /// threads executes with at most T even inside a larger serving pool.
  /// Capping never changes results: primitives partition work so each
  /// output element's math is independent of the worker count.
  int MaxThreads = 0;
};

/// The weight-side artifact of binding one primitive to one scenario:
/// packed/transformed weights computed once by ConvPrimitive::prepare and
/// shared, read-only, by every ConvInstance bound from it. Each family
/// defines its own concrete subclass; callers treat it as opaque.
class PreparedKernel {
public:
  virtual ~PreparedKernel();

  /// Approximate bytes this artifact holds (packed weights, transformed
  /// spectra, quantization tables); feeds compile-time reports.
  virtual size_t bytes() const = 0;
};

/// A primitive bound to a concrete scenario with packed weights; ready to
/// execute repeatedly.
class ConvInstance {
public:
  virtual ~ConvInstance();

  /// Execute one forward convolution. \p In must be in the primitive's
  /// input layout with the scenario's input shape; \p Out must be in the
  /// primitive's output layout with the scenario's output shape.
  virtual void run(const Tensor3D &In, Tensor3D &Out,
                   const RunContext &Ctx) = 0;

  /// Execute one forward convolution per image of a minibatch (§8
  /// extension). The default runs the images serially through run(), which
  /// is the correct (if unscheduled) semantics for any instance; the
  /// minibatch wrappers override it with their batch schedule.
  virtual void runBatch(const std::vector<Tensor3D> &In,
                        std::vector<Tensor3D> &Out, const RunContext &Ctx);
};

/// Descriptor of one routine in the primitive library.
class ConvPrimitive {
public:
  virtual ~ConvPrimitive();

  /// Unique name, e.g. "wino2d-m4r3-vf8-chw-chw".
  virtual std::string name() const = 0;
  virtual ConvFamily family() const = 0;
  /// Lin of the paper's {Lin, P, Lout} tuple.
  virtual Layout inputLayout() const = 0;
  /// Lout of the paper's {Lin, P, Lout} tuple.
  virtual Layout outputLayout() const = 0;

  /// True if this routine can implement \p S at all (legality, not speed).
  virtual bool supports(const ConvScenario &S) const = 0;

  /// True for routines computing the depthwise (per-channel) convolution.
  /// PrimitiveLibrary::supporting pairs routines and scenarios by this flag
  /// in addition to supports(), so standard-conv routines never have to
  /// inspect Scenario.Depthwise themselves.
  virtual bool isDepthwise() const;

  /// The library this routine ships in. The paper's §8 ensemble extension
  /// mixes "convolution routines from different libraries, if at least one
  /// edge in the DT graph connects a convolution from library A to one from
  /// library B"; the tag lets harnesses restrict selection to one library
  /// or report the per-library composition of a mixed plan.
  virtual const char *libraryTag() const;

  /// True if this routine can execute scenarios with minibatch size
  /// \p Batch. Base routines are per-image (batch 1); the §8 minibatch
  /// wrappers accept any batch. PrimitiveLibrary::supporting enforces this
  /// in addition to supports(), so per-image routines need not inspect
  /// Scenario.Batch themselves.
  virtual bool supportsBatch(int64_t Batch) const;

  /// Approximate per-run workspace the instance will allocate, in bytes.
  /// Feeds the analytic cost model's cache-pressure term.
  virtual size_t workspaceBytes(const ConvScenario &S) const = 0;

  /// Phase 1: perform all weight-side work (layout packing, kernel
  /// transforms, quantization tables) for \p S once. Must only be called
  /// when supports(S). The result is immutable and thread-shareable.
  virtual std::shared_ptr<const PreparedKernel>
  prepare(const ConvScenario &S, const Kernel4D &Weights) const = 0;

  /// Phase 2: bind a runnable instance to a kernel previously returned by
  /// this primitive's prepare() for the same scenario (asserted). Cheap --
  /// no weight work -- so per-request/per-thread contexts bind freely.
  virtual std::unique_ptr<ConvInstance>
  bind(const ConvScenario &S,
       std::shared_ptr<const PreparedKernel> Prepared) const = 0;

  /// One-shot convenience: bind(S, prepare(S, Weights)). Must only be
  /// called when supports(S). Routines ignore S.Epi -- epilogues are
  /// applied by the shared applier (bindWithEpilogue wraps the bound
  /// instance).
  std::unique_ptr<ConvInstance> instantiate(const ConvScenario &S,
                                            const Kernel4D &Weights) const;
};

/// The one shared epilogue applier every primitive family goes through:
/// apply \p E to \p T in place (bias add per logical channel, then ReLU).
/// Layout-polymorphic and iteration-order independent, so a fused epilogue
/// is bit-identical to the standalone Bias/ReLU layers it replaces.
/// \p Bias must have T.channels() entries when epilogueHasBias(E), and may
/// be null otherwise.
void applyEpilogue(EpilogueKind E, const float *Bias, Tensor3D &T);

/// Deterministic per-channel bias stream: the bias vector a node with
/// BiasSeedId = seed-offset applies. Shared by the executor, the profiler
/// and generated code so every instantiation of a network computes the
/// same function. Values are scaled to +/-0.1 so deep stacks of fused
/// biases do not drown the conv outputs.
void fillEpilogueBias(float *Bias, int64_t Channels, uint64_t Seed);

/// The single instantiation point for epilogue scenarios, in two halves:
/// the executor, the profiler and generated programs all call them, so
/// all primitive families gain epilogue support without per-family code.
///
/// The compile-time half: P.prepare(S, Weights). (The epilogue itself has
/// no weight-side state beyond the bias stream, which bindWithEpilogue
/// regenerates from its BiasSeed at bind time.)
std::shared_ptr<const PreparedKernel>
prepareWithEpilogue(const ConvPrimitive &P, const ConvScenario &S,
                    const Kernel4D &Weights);

/// The run-time half: bind \p Prepared like P.bind(S, Prepared), then --
/// when the scenario carries a fused epilogue -- wrap the instance so
/// applyEpilogue runs over every output (run and runBatch alike).
/// \p BiasSeed feeds fillEpilogueBias for epilogues with a bias and is
/// ignored otherwise.
std::unique_ptr<ConvInstance>
bindWithEpilogue(const ConvPrimitive &P, const ConvScenario &S,
                 std::shared_ptr<const PreparedKernel> Prepared,
                 uint64_t BiasSeed);

} // namespace primsel

#endif // PRIMSEL_PRIMITIVES_PRIMITIVE_H
