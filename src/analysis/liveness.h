/**
 * @file
 * Backward vreg liveness, per function. Drives dead-code elimination
 * and copy propagation in the cXprop stage, the live-in lists that
 * bound cXprop's block states, and the backend's gcc-style passes.
 */
#ifndef STOS_ANALYSIS_LIVENESS_H
#define STOS_ANALYSIS_LIVENESS_H

#include <vector>

#include "ir/module.h"

namespace stos::analysis {

/**
 * Liveness facts for one function: per-block live-in/live-out bit
 * vectors over vregs, plus an instruction-level query that replays a
 * block backwards.
 */
class Liveness {
  public:
    Liveness(const ir::Module &m, const ir::Function &f);

    const std::vector<bool> &liveIn(uint32_t block) const
    {
        return liveIn_.at(block);
    }
    const std::vector<bool> &liveOut(uint32_t block) const
    {
        return liveOut_.at(block);
    }

    /**
     * Vregs live immediately *after* each instruction of a block.
     * result[i] is the live set after instrs[i].
     */
    std::vector<std::vector<bool>> liveAfter(uint32_t block) const;

  private:
    const ir::Function &func_;
    std::vector<std::vector<bool>> liveIn_;
    std::vector<std::vector<bool>> liveOut_;
};

} // namespace stos::analysis

#endif
