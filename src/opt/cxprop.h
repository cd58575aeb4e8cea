/**
 * @file
 * cXprop: whole-program dataflow analysis and transformation driver
 * ("run cXprop" in Figure 1). Interprocedural, context-insensitive
 * abstract interpretation over the pluggable domains in absval.h,
 * concurrency-aware (racy variables are never propagated), followed
 * by constant/branch folding, safety-check elimination, copy
 * propagation, strong DCE (instructions, stores, globals, functions),
 * and atomic-section optimization.
 */
#ifndef STOS_OPT_CXPROP_H
#define STOS_OPT_CXPROP_H

#include "ir/module.h"
#include "opt/absval.h"
#include "opt/inliner.h"

namespace stos::opt {

struct CxpropOptions {
    DomainConfig domains;
    /** Run the custom inliner first (configuration 4 of Figure 2). */
    bool inlineFirst = false;
    bool optimizeAtomics = true;
    /** Strong DCE (instructions, stores, globals, functions) plus the
     *  local copy propagation that feeds it; off leaves dead code to
     *  the backend's weak DCE (the §2.1 ablation). */
    bool strongDce = true;
};

struct CxpropReport {
    uint32_t funcsInlined = 0;
    uint32_t instrsConstFolded = 0;
    uint32_t branchesFolded = 0;
    uint32_t checksRemoved = 0;
    uint32_t copiesPropagated = 0;
    uint32_t deadInstrsRemoved = 0;
    uint32_t deadStoresRemoved = 0;
    uint32_t deadGlobalsRemoved = 0;
    uint32_t deadFuncsRemoved = 0;
    uint32_t atomicsRemoved = 0;
    uint32_t atomicSavesDowngraded = 0;
    int rounds = 0;
    /** Interprocedural fixpoint rounds, summed over the outer rounds. */
    uint32_t fixpointRounds = 0;
    /**
     * Function analyses requested: one per live function per fixpoint
     * round, plus one per live function before its transform.
     */
    uint32_t funcAnalyses = 0;
    /** Requests served from the function's last analysis, because no
     *  summary it read had changed since. */
    uint32_t funcAnalysesSkipped = 0;
    /** Worklist block visits over all dataflow analyses. */
    uint32_t blockVisits = 0;

    bool operator==(const CxpropReport &) const = default;
};

/** Run the full cXprop pipeline over the module. */
CxpropReport runCxprop(ir::Module &m, const CxpropOptions &opts = {});

} // namespace stos::opt

#endif
