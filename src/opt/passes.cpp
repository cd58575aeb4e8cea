/**
 * @file
 * Standalone pass implementations.
 */
#include "opt/passes.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "analysis/callgraph.h"
#include "analysis/liveness.h"
#include "safety/runtime.h"
#include "support/util.h"

namespace stos::opt {

using namespace stos::ir;
using namespace stos::analysis;

uint32_t
simplifyCfg(Function &f)
{
    if (f.blocks.empty())
        return 0;
    uint32_t changed = 0;

    // Jump threading: a branch to a block that only branches again is
    // retargeted (repeatedly).
    auto finalTarget = [&](uint32_t b) {
        std::set<uint32_t> seen;
        while (seen.insert(b).second) {
            const BasicBlock &bb = f.blocks[b];
            if (bb.instrs.size() == 1 && bb.instrs[0].op == Opcode::Br)
                b = bb.instrs[0].b0;
            else
                break;
        }
        return b;
    };
    for (auto &bb : f.blocks) {
        if (bb.instrs.empty())
            continue;
        Instr &t = bb.instrs.back();
        if (t.op == Opcode::Br) {
            uint32_t nt = finalTarget(t.b0);
            if (nt != t.b0) {
                t.b0 = nt;
                ++changed;
            }
        } else if (t.op == Opcode::CondBr) {
            uint32_t n0 = finalTarget(t.b0);
            uint32_t n1 = finalTarget(t.b1);
            if (n0 != t.b0 || n1 != t.b1) {
                t.b0 = n0;
                t.b1 = n1;
                ++changed;
            }
            if (t.b0 == t.b1) {
                // Degenerate conditional.
                t.op = Opcode::Br;
                t.args.clear();
                ++changed;
            }
        }
    }

    // Unreachable-block removal with id compaction.
    std::vector<bool> reach(f.blocks.size(), false);
    std::deque<uint32_t> work{0};
    reach[0] = true;
    while (!work.empty()) {
        uint32_t b = work.front();
        work.pop_front();
        const Instr &t = f.blocks[b].instrs.empty()
                             ? Instr{}
                             : f.blocks[b].instrs.back();
        for (uint32_t s : {t.b0, t.b1}) {
            if (s != kNoBlock && s < f.blocks.size() && !reach[s]) {
                reach[s] = true;
                work.push_back(s);
            }
        }
    }
    bool anyDead = false;
    for (bool r : reach) {
        if (!r)
            anyDead = true;
    }
    if (anyDead) {
        std::vector<uint32_t> remap(f.blocks.size(), kNoBlock);
        std::vector<BasicBlock> keep;
        for (uint32_t b = 0; b < f.blocks.size(); ++b) {
            if (reach[b]) {
                remap[b] = static_cast<uint32_t>(keep.size());
                keep.push_back(std::move(f.blocks[b]));
            } else {
                ++changed;
            }
        }
        for (auto &bb : keep) {
            bb.id = static_cast<uint32_t>(&bb - keep.data());
            for (auto &in : bb.instrs) {
                if (in.b0 != kNoBlock)
                    in.b0 = remap[in.b0];
                if (in.b1 != kNoBlock)
                    in.b1 = remap[in.b1];
            }
        }
        f.blocks = std::move(keep);
    }
    return changed;
}

uint32_t
localCopyProp(Module &m, Function &f)
{
    (void)m;
    uint32_t changed = 0;
    for (auto &bb : f.blocks) {
        // vreg -> replacement operand, invalidated on redefinition.
        std::map<uint32_t, Operand> repl;
        auto invalidate = [&](uint32_t dst) {
            repl.erase(dst);
            for (auto it = repl.begin(); it != repl.end();) {
                if (it->second.isVReg() && it->second.index == dst)
                    it = repl.erase(it);
                else
                    ++it;
            }
        };
        for (auto &in : bb.instrs) {
            for (auto &a : in.args) {
                if (a.isVReg()) {
                    auto it = repl.find(a.index);
                    if (it != repl.end()) {
                        a = it->second;
                        ++changed;
                    }
                }
            }
            if (in.hasDst()) {
                invalidate(in.dst);
                if (in.op == Opcode::Mov && in.args[0].isVReg() &&
                    in.args[0].index != in.dst &&
                    f.vregs[in.dst].type ==
                        f.vregs[in.args[0].index].type) {
                    repl[in.dst] = in.args[0];
                } else if (in.op == Opcode::ConstI) {
                    repl[in.dst] = Operand::immInt(in.args[0].imm);
                }
            }
        }
    }
    return changed;
}

namespace {

bool
isPure(const Instr &in)
{
    switch (in.op) {
      case Opcode::ConstI: case Opcode::Mov: case Opcode::Bin:
      case Opcode::Un: case Opcode::Cast: case Opcode::AddrGlobal:
      case Opcode::AddrLocal: case Opcode::Gep: case Opcode::PtrAdd:
      case Opcode::Load:
        return true;
      default:
        return false;
    }
}

} // namespace

uint32_t
removeDeadInstrs(Module &m, Function &f)
{
    uint32_t removed = 0;
    Liveness live(m, f);
    std::vector<bool> dead;
    for (auto &bb : f.blocks) {
        live.deadDefs(bb.id, dead);
        std::vector<Instr> out;
        out.reserve(bb.instrs.size());
        for (size_t i = 0; i < bb.instrs.size(); ++i) {
            Instr &in = bb.instrs[i];
            if (dead[i] && isPure(in)) {
                ++removed;
                continue;
            }
            out.push_back(std::move(in));
        }
        bb.instrs = std::move(out);
    }
    return removed;
}

uint32_t
removeDeadStores(Module &m, const PointsTo &pts)
{
    // A global is "read" if some load may target it, if its operand
    // escapes into a context other than a direct load/store address
    // computation, or if it is a string referenced by a check.
    std::vector<bool> read(m.globals().size(), false);
    bool universalRead = false;
    for (const auto &f : m.funcs()) {
        if (f.dead)
            continue;
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.op == Opcode::Load && in.args[0].isVReg()) {
                    PtsSet t = pts.accessTargets(f.id, in.args[0].index);
                    for (const MemObj &o : t) {
                        if (o.kind == MemObj::Universal)
                            universalRead = true;
                        else if (o.kind == MemObj::GlobalObj)
                            read[o.index] = true;
                    }
                    if (t.empty())
                        universalRead = true;
                }
                if (in.isCheck() && in.auxB != 0)
                    read[in.auxB - 1] = true;
            }
        }
    }
    // Runtime state (e.g. the last-fault id) is read externally by
    // the host-side tooling, never by the program itself.
    for (const auto &g : m.globals()) {
        if (!g.dead && g.attrs.isRuntime)
            read[g.id] = true;
    }
    if (universalRead)
        return 0;
    uint32_t removed = 0;
    for (auto &f : m.funcs()) {
        if (f.dead)
            continue;
        // A store is dead when it can only write one unread global.
        auto dead = [&](const Instr &in) {
            if (in.op != Opcode::Store || !in.args[0].isVReg())
                return false;
            auto exact = pts.resolveExact(f.id, in.args[0].index);
            if (!exact || exact->kind != MemObj::GlobalObj ||
                read[exact->index]) {
                return false;
            }
            // Sole target must be this global.
            PtsSet t = pts.accessTargets(f.id, in.args[0].index);
            return std::all_of(t.begin(), t.end(), [&](const MemObj &o) {
                return o == *exact;
            });
        };
        for (auto &bb : f.blocks)
            removed += static_cast<uint32_t>(std::erase_if(bb.instrs, dead));
    }
    return removed;
}

uint32_t
removeDeadGlobals(Module &m)
{
    std::vector<bool> used(m.globals().size(), false);
    for (const auto &f : m.funcs()) {
        if (f.dead)
            continue;
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                for (const auto &a : in.args) {
                    if (a.isGlobal())
                        used[a.index] = true;
                }
                if (in.isCheck() && in.auxB != 0)
                    used[in.auxB - 1] = true;
            }
        }
    }
    uint32_t removed = 0;
    for (auto &g : m.globals()) {
        if (!g.dead && !used[g.id]) {
            g.dead = true;
            ++removed;
        }
    }
    return removed;
}

uint32_t
removeDeadFunctions(Module &m)
{
    CallGraph cg(m);
    std::vector<uint32_t> roots;
    bool anyStringCheck = false, anyPlainCheck = false;
    for (const auto &f : m.funcs()) {
        if (f.dead)
            continue;
        if (f.name == "main" || f.attrs.interruptVector >= 0 ||
            f.attrs.usedFromStart) {
            roots.push_back(f.id);
        }
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.isCheck()) {
                    const GlobalAttrs *ga =
                        in.auxB != 0 ? &m.globalAt(in.auxB - 1).attrs
                                     : nullptr;
                    if (ga && (ga->isErrorString || ga->isCheckTag))
                        anyStringCheck = true;
                    else
                        anyPlainCheck = true;
                }
            }
        }
    }
    // Failure handlers are reached from the check instructions the
    // backend lowers, not from explicit calls.
    if (anyStringCheck) {
        if (const Function *f = m.findFunc(safety::kFailMsgFn))
            roots.push_back(f->id);
    }
    if (anyPlainCheck || anyStringCheck) {
        if (const Function *f = m.findFunc(safety::kFailFn))
            roots.push_back(f->id);
    }
    // Address-taken functions reachable only via live code: CallGraph
    // already folds them into callee edges of CallInd users, so a
    // plain reachability walk suffices.
    auto reach = cg.reachableFrom(roots);
    uint32_t removed = 0;
    for (auto &f : m.funcs()) {
        if (!f.dead && !reach[f.id]) {
            f.dead = true;
            ++removed;
        }
    }
    return removed;
}

AtomicOptReport
optimizeAtomics(Module &m, const ConcurrencyAnalysis &conc)
{
    AtomicOptReport rep;
    for (auto &f : m.funcs()) {
        if (f.dead)
            continue;
        const auto &ctx = conc.contextsOf(f.id);
        bool handlerOnly = !ctx.task && ctx.vectors != 0;
        bool needsSave = conc.atomicNeedsIrqSave(f.id);
        for (auto &bb : f.blocks) {
            // Pass 1: per-block nesting depth; drop inner pairs.
            std::vector<Instr> out;
            int depth = 0;
            std::vector<size_t> beginStack;
            for (auto &in : bb.instrs) {
                if (handlerOnly && (in.op == Opcode::AtomicBegin ||
                                    in.op == Opcode::AtomicEnd)) {
                    // The whole function runs with IRQs off: every
                    // atomic marker (matched or not) is pure overhead.
                    if (in.op == Opcode::AtomicBegin)
                        ++rep.handlerAtomicsRemoved;
                    continue;
                }
                if (in.op == Opcode::AtomicBegin) {
                    if (depth > 0) {
                        ++rep.nestedRemoved;
                        ++depth;
                        beginStack.push_back(SIZE_MAX);
                        continue;
                    }
                    ++depth;
                    if (!needsSave && in.auxA) {
                        in.auxA = 0;
                        ++rep.savesDowngraded;
                    }
                    beginStack.push_back(out.size());
                    out.push_back(in);
                    continue;
                }
                if (in.op == Opcode::AtomicEnd) {
                    bool dropped = !beginStack.empty() &&
                                   beginStack.back() == SIZE_MAX;
                    if (!beginStack.empty())
                        beginStack.pop_back();
                    depth = depth > 0 ? depth - 1 : 0;
                    if (dropped)
                        continue;
                    if (!needsSave)
                        in.auxA = 0;
                    out.push_back(in);
                    continue;
                }
                out.push_back(in);
            }
            bb.instrs = std::move(out);
        }
    }
    return rep;
}

} // namespace stos::opt
