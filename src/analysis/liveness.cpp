/**
 * @file
 * Liveness analysis implementation.
 */
#include "analysis/liveness.h"

namespace stos::analysis {

using namespace stos::ir;

namespace {

/** Call fn(v) for every vreg operand v of an instruction. */
template <typename Fn>
void
forEachUse(const Instr &in, Fn &&fn)
{
    for (const auto &a : in.args) {
        if (a.isVReg())
            fn(a.index);
    }
}

} // namespace

Liveness::Liveness(const Module &, const Function &f) : func_(f)
{
    size_t nb = f.blocks.size();
    size_t nv = f.vregs.size();
    liveIn_.assign(nb, std::vector<bool>(nv, false));
    liveOut_.assign(nb, std::vector<bool>(nv, false));

    // Successor lists.
    std::vector<std::vector<uint32_t>> succ(nb);
    for (const auto &bb : f.blocks) {
        if (bb.instrs.empty())
            continue;
        const Instr &t = bb.instrs.back();
        if (t.op == Opcode::Br) {
            succ[bb.id].push_back(t.b0);
        } else if (t.op == Opcode::CondBr) {
            succ[bb.id].push_back(t.b0);
            succ[bb.id].push_back(t.b1);
        }
    }

    // One in/out pair of buffers for the whole iteration: a changed
    // block swaps them with its stored sets, so no pass allocates.
    std::vector<bool> in(nv), out(nv);
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t b = nb; b-- > 0;) {
            const BasicBlock &bb = f.blocks[b];
            out.assign(nv, false);
            for (uint32_t s : succ[b]) {
                for (size_t v = 0; v < nv; ++v) {
                    if (liveIn_[s][v])
                        out[v] = true;
                }
            }
            in = out;
            for (size_t i = bb.instrs.size(); i-- > 0;) {
                const Instr &ins = bb.instrs[i];
                if (ins.hasDst())
                    in[ins.dst] = false;
                forEachUse(ins, [&](uint32_t v) { in[v] = true; });
            }
            if (in != liveIn_[b] || out != liveOut_[b]) {
                liveIn_[b].swap(in);
                liveOut_[b].swap(out);
                changed = true;
            }
        }
    }
}

void
Liveness::deadDefs(uint32_t block, std::vector<bool> &dead) const
{
    const BasicBlock &bb = func_.blocks.at(block);
    size_t n = bb.instrs.size();
    dead.assign(n, false);
    std::vector<bool> cur = liveOut_.at(block);
    for (size_t i = n; i-- > 0;) {
        const Instr &ins = bb.instrs[i];
        if (ins.hasDst()) {
            dead[i] = !cur[ins.dst];
            cur[ins.dst] = false;
        }
        forEachUse(ins, [&](uint32_t v) { cur[v] = true; });
    }
}

} // namespace stos::analysis
