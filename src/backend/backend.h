/**
 * @file
 * Backend driver ("run gcc" in Figure 1): GCC-style late
 * optimization, instruction selection (including fat-pointer and
 * dynamic-check lowering), link-time garbage collection, and data
 * layout.
 */
#ifndef STOS_BACKEND_BACKEND_H
#define STOS_BACKEND_BACKEND_H

#include "backend/minstr.h"
#include "backend/target.h"
#include "ir/module.h"

namespace stos::backend {

/**
 * The deliberately *weak* late optimizer modelling what GCC adds on
 * top of the toolchain (paper §3.1: it removes the "easy" checks).
 */
struct GccOptions {
    /** Let "GCC" do the inlining instead, with the early inliner's
     *  budget and two rounds. */
    bool lateInline = false;
};

struct GccReport {
    uint32_t checksRemoved = 0;
    uint32_t instrsRemoved = 0;
    uint32_t constsFolded = 0;
    uint32_t sitesInlined = 0;
};

/** Run the GCC-style optimizations in place. */
GccReport runGccStyleOpts(ir::Module &m, const GccOptions &opts);

/**
 * Instruction selection's op mapping: the machine op an arithmetic
 * BinOp or a UnOp lowers to (Nop for a comparison), and the condition
 * a comparison lowers to (SetC, CmpBr).
 */
MOp aluOpOf(ir::BinOp op);
MOp aluOpOf(ir::UnOp op);
MCond condOf(ir::BinOp op);

struct BackendOptions {
    GccOptions gcc;
};

/**
 * Compile a module to a linked firmware image. The module is modified
 * (late optimization, linker GC); callers that need the IR afterwards
 * should pass a clone.
 */
MProgram compileToTarget(ir::Module &m, const TargetInfo &target,
                         const BackendOptions &opts = {});

} // namespace stos::backend

#endif
