/**
 * @file
 * Concurrency analysis for the TinyOS two-level execution model
 * (paper §2.2). Classifies every function by the contexts it can run
 * in (task/main vs. each interrupt vector), computes atomic-section
 * coverage, and detects racy objects conservatively — following
 * pointers through the points-to analysis, which is precisely the
 * improvement the paper claims over the nesC detector.
 */
#ifndef STOS_ANALYSIS_CONCURRENCY_H
#define STOS_ANALYSIS_CONCURRENCY_H

#include <set>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/pointsto.h"
#include "ir/module.h"

namespace stos::analysis {

/** Execution contexts: task context plus one per interrupt vector. */
struct ContextSet {
    bool task = false;                 ///< main / posted tasks / init
    uint32_t vectors = 0;              ///< bitmask of interrupt vectors

    /**
     * Two accesses can interleave badly iff the union of their
     * context atoms contains two distinct atoms: tasks never preempt
     * tasks, and a vector never nests with itself, but every other
     * pairing is preemptible (conservative for re-enabled IRQs).
     */
    bool
    concurrentWith(const ContextSet &o) const
    {
        uint32_t uni = vectors | o.vectors;
        int atoms = (task || o.task) ? 1 : 0;
        while (uni) {
            atoms += uni & 1;
            uni >>= 1;
        }
        return atoms >= 2;
    }
    bool
    multi() const
    {
        return concurrentWith(*this);
    }
};

/**
 * Result of the race analysis: per-function contexts, per-object race
 * verdicts, and atomicity information for the optimizer. `norace`
 * annotations are ignored: they are unsound for safety (§2.2).
 */
class ConcurrencyAnalysis {
  public:
    ConcurrencyAnalysis(const ir::Module &m, const CallGraph &cg,
                        const PointsTo &pts);

    const ContextSet &contextsOf(uint32_t fn) const
    {
        return funcCtx_.at(fn);
    }

    /** Global ids the detector flags as potential races. */
    const std::set<uint32_t> &racyGlobals() const { return racyGlobals_; }
    bool isRacyGlobal(uint32_t gid) const
    {
        return racyGlobals_.count(gid) > 0;
    }
    /** Racy objects including locals whose address escapes. */
    const std::set<MemObj> &racyObjects() const { return racyObjects_; }

    /**
     * Can an AtomicBegin in this function execute while interrupts are
     * already disabled (nested atomic, or running inside a handler)?
     * If not, the atomic section doesn't need to save the IRQ bit —
     * the §2.2 optimization.
     */
    bool atomicNeedsIrqSave(uint32_t fn) const
    {
        return atomicNeedsSave_.at(fn);
    }

    /** Number of accesses the detector classified, for reporting. */
    size_t numAccessesClassified() const { return accessesClassified_; }

  private:
    void classifyFunctions();
    void collectAccesses();
    void computeAtomicDepths();

    struct Access {
        MemObj obj;
        ContextSet ctx;
        bool isWrite;
        bool atomic;
    };

    const ir::Module &mod_;
    const CallGraph &cg_;
    const PointsTo &pts_;
    std::vector<ContextSet> funcCtx_;
    std::vector<bool> atomicNeedsSave_;
    std::vector<bool> calledInAtomic_;
    std::set<uint32_t> racyGlobals_;
    std::set<MemObj> racyObjects_;
    size_t accessesClassified_ = 0;
};

} // namespace stos::analysis

#endif
