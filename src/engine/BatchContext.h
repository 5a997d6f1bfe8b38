//===- engine/BatchContext.h - Batched execution context name ---*- C++ -*-===//
//
// Part of primsel. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionContext runs 1 <= K <= capacity() images per pass, so a
/// batched context is an ordinary ExecutionContext over a batch-bucket
/// artifact. This name remains only for the end-to-end benchmark's public
/// API contract (bench/e2e/README.md); in-repo code uses ExecutionContext.
///
//===----------------------------------------------------------------------===//

#ifndef PRIMSEL_ENGINE_BATCHCONTEXT_H
#define PRIMSEL_ENGINE_BATCHCONTEXT_H

#include "engine/CompiledNet.h"

namespace primsel {

using BatchExecutionContext = ExecutionContext;

} // namespace primsel

#endif // PRIMSEL_ENGINE_BATCHCONTEXT_H
