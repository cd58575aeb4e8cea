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
 * block backwards once.
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
     * Flag the instructions of a block whose destination is dead
     * immediately after them: dead[i] is true when instrs[i] has a
     * dst that no later instruction reads before redefining it and
     * that is not live-out. Every instruction's uses count, flagged
     * or not, so the flags are those of the block as it stands.
     */
    void deadDefs(uint32_t block, std::vector<bool> &dead) const;

  private:
    const ir::Function &func_;
    std::vector<std::vector<bool>> liveIn_;
    std::vector<std::vector<bool>> liveOut_;
};

} // namespace stos::analysis

#endif
