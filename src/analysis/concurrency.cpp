/**
 * @file
 * Race detector implementation.
 */
#include "analysis/concurrency.h"

#include <map>

namespace stos::analysis {

using namespace stos::ir;

ConcurrencyAnalysis::ConcurrencyAnalysis(const Module &m, const CallGraph &cg,
                                         const PointsTo &pts)
    : mod_(m), cg_(cg), pts_(pts)
{
    funcCtx_.assign(m.funcs().size(), {});
    atomicNeedsSave_.assign(m.funcs().size(), true);
    calledInAtomic_.assign(m.funcs().size(), false);
    classifyFunctions();
    computeAtomicDepths();
    collectAccesses();
}

void
ConcurrencyAnalysis::classifyFunctions()
{
    // Task-context roots: main, init functions, tasks (posted and run
    // from the scheduler), and every address-taken function (the task
    // queue dispatches through fnptrs).
    std::vector<uint32_t> taskRoots;
    std::vector<std::pair<uint32_t, int>> irqRoots;
    for (const auto &f : mod_.funcs()) {
        if (f.dead)
            continue;
        if (f.attrs.interruptVector >= 0) {
            irqRoots.push_back({f.id, f.attrs.interruptVector});
            continue;
        }
        if (f.name == "main" || f.attrs.isInit || f.attrs.isTask ||
            cg_.isAddressTaken(f.id)) {
            taskRoots.push_back(f.id);
        }
    }
    auto taskReach = cg_.reachableFrom(taskRoots);
    for (uint32_t i = 0; i < taskReach.size(); ++i) {
        if (taskReach[i])
            funcCtx_[i].task = true;
    }
    for (auto [fn, vec] : irqRoots) {
        auto reach = cg_.reachableFrom({fn});
        for (uint32_t i = 0; i < reach.size(); ++i) {
            if (reach[i])
                funcCtx_[i].vectors |= (1u << vec);
        }
    }
}

void
ConcurrencyAnalysis::computeAtomicDepths()
{
    // A function's AtomicBegin may run with interrupts already off if
    // the function can execute inside a handler (IRQs off on entry) or
    // can be called from within another atomic section. Conversely, a
    // task-only function never called from an atomic region always
    // starts with IRQs on, so its (non-nested) atomics can skip saving
    // the IRQ bit. Nested atomics inside one function are handled
    // separately by the optimizer.
    std::vector<uint32_t> atomicCallers;
    for (const auto &f : mod_.funcs()) {
        if (f.dead)
            continue;
        int depth = 0;
        // Block-order scan is conservative for depth tracking across
        // blocks; lowering emits balanced regions within a function.
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.op == Opcode::AtomicBegin)
                    ++depth;
                else if (in.op == Opcode::AtomicEnd)
                    depth = depth > 0 ? depth - 1 : 0;
                else if (in.op == Opcode::Call && depth > 0)
                    calledInAtomic_[in.callee] = true;
            }
        }
    }
    // Propagate "may be entered with IRQs off" through the call graph.
    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &f : mod_.funcs()) {
            if (f.dead || !calledInAtomic_[f.id])
                continue;
            for (uint32_t c : cg_.callees(f.id)) {
                if (!calledInAtomic_[c]) {
                    calledInAtomic_[c] = true;
                    changed = true;
                }
            }
        }
    }
    for (const auto &f : mod_.funcs()) {
        if (f.dead)
            continue;
        bool inHandler = funcCtx_[f.id].vectors != 0;
        atomicNeedsSave_[f.id] = inHandler || calledInAtomic_[f.id];
    }
}

void
ConcurrencyAnalysis::collectAccesses()
{
    struct ObjInfo {
        ContextSet ctx;
        bool anyNonAtomic = false;
        bool written = false;
    };
    std::map<MemObj, ObjInfo> info;

    for (const auto &f : mod_.funcs()) {
        if (f.dead)
            continue;
        const ContextSet &fctx = funcCtx_[f.id];
        int depth = calledInAtomic_[f.id] ? 1 : 0;
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.op == Opcode::AtomicBegin) {
                    ++depth;
                    continue;
                }
                if (in.op == Opcode::AtomicEnd) {
                    depth = depth > 0 ? depth - 1 : 0;
                    continue;
                }
                bool isLoad = in.op == Opcode::Load;
                bool isStore = in.op == Opcode::Store;
                if (!isLoad && !isStore)
                    continue;
                if (!in.args[0].isVReg())
                    continue;
                PtsSet targets =
                    pts_.accessTargets(f.id, in.args[0].index);
                ++accessesClassified_;
                for (const MemObj &obj : targets) {
                    if (obj.kind == MemObj::Universal) {
                        // Unknown pointer: taint all globals.
                        for (const auto &g : mod_.globals()) {
                            if (g.dead)
                                continue;
                            auto &oi = info[MemObj::global(g.id)];
                            oi.ctx.task |= fctx.task;
                            oi.ctx.vectors |= fctx.vectors;
                            oi.anyNonAtomic |= depth == 0;
                            oi.written |= isStore;
                        }
                        continue;
                    }
                    auto &oi = info[obj];
                    oi.ctx.task |= fctx.task;
                    oi.ctx.vectors |= fctx.vectors;
                    oi.anyNonAtomic |= depth == 0;
                    oi.written |= isStore;
                }
            }
        }
    }

    for (const auto &[obj, oi] : info) {
        // Racy: reachable from two distinct contexts, at least one
        // access outside an atomic section, and written at least once
        // (read-only shared data cannot race).
        if (!oi.ctx.multi() || !oi.anyNonAtomic || !oi.written)
            continue;
        if (obj.kind == MemObj::GlobalObj)
            racyGlobals_.insert(obj.index);
        racyObjects_.insert(obj);
    }
}

} // namespace stos::analysis
