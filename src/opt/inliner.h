/**
 * @file
 * Source-level (IR-level) function inliner — the paper's custom CIL
 * inliner (§2.1). Inlining before whole-program analysis is what
 * gives cXprop the context sensitivity it needs to remove safety
 * checks (Figure 2); inlining *before* the backend also produces
 * smaller code than the backend's own late inliner, because the
 * post-inline bodies are re-optimized.
 */
#ifndef STOS_OPT_INLINER_H
#define STOS_OPT_INLINER_H

#include "ir/module.h"

namespace stos::opt {

/**
 * A callee is inlined when it has at most 48 instructions (192 with
 * an inline hint) or when it has a single call site and its address
 * is never taken.
 */
struct InlineOptions {
    int maxRounds = 4;
};

/** Inline eligible call sites; returns number of sites inlined. */
uint32_t inlineFunctions(ir::Module &m, const InlineOptions &opts = {});

/** Inline one specific call site (exposed for tests). */
bool inlineCallSite(ir::Module &m, ir::Function &caller, uint32_t block,
                    size_t instrIndex);

} // namespace stos::opt

#endif
