/**
 * @file
 * Inliner implementation.
 */
#include "opt/inliner.h"

#include "analysis/callgraph.h"
#include "opt/passes.h"
#include "support/util.h"

namespace stos::opt {

using namespace stos::ir;

namespace {

/** Largest callee inlined at every call site (4x with a hint). */
constexpr uint32_t kSizeBudget = 48;

size_t
instrCount(const Function &f)
{
    size_t n = 0;
    for (const auto &bb : f.blocks)
        n += bb.instrs.size();
    return n;
}

} // namespace

bool
inlineCallSite(Module &m, Function &caller, uint32_t block,
               size_t instrIndex)
{
    if (block >= caller.blocks.size() ||
        instrIndex >= caller.blocks[block].instrs.size()) {
        return false;
    }
    Instr call = caller.blocks[block].instrs[instrIndex];
    if (call.op != Opcode::Call)
        return false;
    const Function callee = m.funcAt(call.callee);  // copy: we mutate caller
    if (callee.dead || callee.blocks.empty())
        return false;

    uint32_t voff = static_cast<uint32_t>(caller.vregs.size());
    uint32_t loff = static_cast<uint32_t>(caller.locals.size());
    uint32_t boff = static_cast<uint32_t>(caller.blocks.size());

    // Import callee vregs/locals.
    for (const auto &v : callee.vregs)
        caller.vregs.push_back(v);
    for (const auto &l : callee.locals) {
        Local copy = l;
        copy.name = callee.name + "." + l.name;
        caller.locals.push_back(copy);
    }

    // Split the call block: everything after the call moves to a
    // continuation block.
    uint32_t contId = static_cast<uint32_t>(caller.blocks.size() +
                                            callee.blocks.size());
    {
        BasicBlock &bb = caller.blocks[block];
        BasicBlock cont;
        cont.name = "inl.cont";
        cont.instrs.assign(bb.instrs.begin() + instrIndex + 1,
                           bb.instrs.end());
        bb.instrs.erase(bb.instrs.begin() + instrIndex, bb.instrs.end());
        // Argument setup: copy argument operands into parameter vregs.
        for (size_t i = 0; i < callee.params.size(); ++i) {
            Instr mov;
            mov.op = Opcode::Mov;
            mov.dst = callee.params[i] + voff;
            mov.type = callee.vregs[callee.params[i]].type;
            mov.args = {i < call.args.size() ? call.args[i]
                                             : Operand::immInt(0)};
            mov.loc = call.loc;
            bb.instrs.push_back(mov);
        }
        Instr br;
        br.op = Opcode::Br;
        br.b0 = boff;  // callee entry
        bb.instrs.push_back(br);

        // Import callee blocks with remapping.
        for (const auto &cbb : callee.blocks) {
            BasicBlock nb;
            nb.name = callee.name + "." + cbb.name;
            for (Instr in : cbb.instrs) {
                if (in.hasDst())
                    in.dst += voff;
                for (auto &a : in.args) {
                    if (a.isVReg())
                        a.index += voff;
                }
                if (in.op == Opcode::AddrLocal)
                    in.auxA += loff;
                if (in.b0 != kNoBlock)
                    in.b0 += boff;
                if (in.b1 != kNoBlock)
                    in.b1 += boff;
                if (in.op == Opcode::Ret) {
                    // Return becomes: (optional) result move + jump to
                    // the continuation.
                    if (call.hasDst() && !in.args.empty()) {
                        Instr mov;
                        mov.op = Opcode::Mov;
                        mov.dst = call.dst;
                        mov.type = call.type;
                        mov.args = {in.args[0]};
                        mov.loc = in.loc;
                        nb.instrs.push_back(mov);
                    }
                    Instr br2;
                    br2.op = Opcode::Br;
                    br2.b0 = contId;
                    br2.loc = in.loc;
                    nb.instrs.push_back(br2);
                    continue;
                }
                nb.instrs.push_back(std::move(in));
            }
            nb.id = static_cast<uint32_t>(caller.blocks.size());
            caller.blocks.push_back(std::move(nb));
        }
        cont.id = static_cast<uint32_t>(caller.blocks.size());
        if (cont.id != contId)
            panic("inliner block layout mismatch");
        caller.blocks.push_back(std::move(cont));
    }
    return true;
}

uint32_t
inlineFunctions(Module &m, const InlineOptions &opts)
{
    uint32_t total = 0;
    for (int round = 0; round < opts.maxRounds; ++round) {
        analysis::CallGraph cg(m);
        // Count direct call sites per callee for the single-site rule.
        std::vector<uint32_t> siteCount(m.funcs().size(), 0);
        for (const auto &f : m.funcs()) {
            if (f.dead)
                continue;
            for (const auto &bb : f.blocks) {
                for (const auto &in : bb.instrs) {
                    if (in.op == Opcode::Call)
                        ++siteCount[in.callee];
                }
            }
        }
        auto eligible = [&](const Function &caller, uint32_t calleeId) {
            const Function &callee = m.funcAt(calleeId);
            if (callee.dead || callee.attrs.noInline ||
                callee.id == caller.id) {
                return false;
            }
            if (callee.attrs.interruptVector >= 0)
                return false;  // handlers are dispatch targets
            if (cg.isRecursive(calleeId))
                return false;
            size_t size = instrCount(callee);
            uint32_t budget = kSizeBudget;
            if (callee.attrs.inlineHint)
                budget *= 4;
            if (size <= budget)
                return true;
            if (siteCount[calleeId] == 1 &&
                !cg.isAddressTaken(calleeId)) {
                return true;
            }
            return false;
        };

        uint32_t thisRound = 0;
        for (auto &f : m.funcs()) {
            if (f.dead)
                continue;
            bool changed = true;
            int guard = 0;
            while (changed && guard++ < 1000) {
                changed = false;
                for (uint32_t b = 0; b < f.blocks.size() && !changed;
                     ++b) {
                    auto &instrs = f.blocks[b].instrs;
                    for (size_t i = 0; i < instrs.size(); ++i) {
                        const Instr &in = instrs[i];
                        if (in.op == Opcode::Call &&
                            eligible(f, in.callee)) {
                            if (inlineCallSite(m, f, b, i)) {
                                ++thisRound;
                                changed = true;
                                break;
                            }
                        }
                    }
                }
            }
        }
        total += thisRound;
        if (thisRound == 0)
            break;
        // Fully-inlined helpers become unreachable; drop them so the
        // next round's size accounting is accurate.
        removeDeadFunctions(m);
    }
    return total;
}

} // namespace stos::opt
