/**
 * @file
 * Unit tests for the analysis library: call graph, points-to,
 * liveness (with a brute-force oracle over the corpus), and the
 * concurrency/race detector.
 */
#include <gtest/gtest.h>

#include "analysis/callgraph.h"
#include "analysis/concurrency.h"
#include "analysis/liveness.h"
#include "analysis/pointsto.h"
#include "core/stagecache.h"
#include "frontend/frontend.h"
#include "tinyos/tinyos.h"

namespace stos {
namespace {

using namespace stos::analysis;
using namespace stos::ir;

Module
compile(const std::string &src)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC({{"t.tc", src}}, diags, sm);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    return m;
}

uint32_t
fid(const Module &m, const std::string &name)
{
    const Function *f = m.findFunc(name);
    EXPECT_NE(f, nullptr) << name;
    return f->id;
}

TEST(CallGraph, DirectEdges)
{
    Module m = compile(
        "void leaf() { }"
        "void mid() { leaf(); }"
        "void main() { mid(); }");
    CallGraph cg(m);
    EXPECT_TRUE(cg.reaches(fid(m, "main"), fid(m, "leaf")));
    EXPECT_FALSE(cg.reaches(fid(m, "leaf"), fid(m, "main")));
    EXPECT_EQ(cg.callees(fid(m, "mid")).size(), 1u);
}

TEST(CallGraph, IndirectCallsResolveToAddressTaken)
{
    Module m = compile(
        "u8 x;"
        "void t1() { x = 1; }"
        "void t2() { x = 2; }"
        "void notTaken() { x = 3; }"
        "void main() { fnptr f = t1; f = t2; f(); }");
    CallGraph cg(m);
    EXPECT_TRUE(cg.isAddressTaken(fid(m, "t1")));
    EXPECT_TRUE(cg.isAddressTaken(fid(m, "t2")));
    EXPECT_FALSE(cg.isAddressTaken(fid(m, "notTaken")));
    EXPECT_TRUE(cg.reaches(fid(m, "main"), fid(m, "t1")));
    EXPECT_TRUE(cg.reaches(fid(m, "main"), fid(m, "t2")));
    EXPECT_FALSE(cg.reaches(fid(m, "main"), fid(m, "notTaken")));
}

TEST(CallGraph, DetectsRecursion)
{
    Module m = compile(
        "u16 fact(u16 n) { if (n < 2) { return 1; } "
        "return n * fact(n - 1); }"
        "void helper() { }"
        "void main() { fact(5); helper(); }");
    CallGraph cg(m);
    EXPECT_TRUE(cg.isRecursive(fid(m, "fact")));
    EXPECT_FALSE(cg.isRecursive(fid(m, "helper")));
    EXPECT_FALSE(cg.isRecursive(fid(m, "main")));
}

TEST(PointsTo, AddressOfGlobalResolvesExactly)
{
    Module m = compile(
        "u8 buf[4];"
        "void main() { u8* p = buf; p[1] = 2; }");
    PointsTo pts(m);
    const Function *f = m.findFunc("main");
    // Find the Store's address vreg.
    for (const auto &bb : f->blocks) {
        for (const auto &in : bb.instrs) {
            if (in.op == Opcode::Store) {
                auto obj = pts.resolveExact(f->id, in.args[0].index);
                ASSERT_TRUE(obj.has_value());
                EXPECT_EQ(obj->kind, MemObj::GlobalObj);
                EXPECT_EQ(m.globalAt(obj->index).name, "buf");
            }
        }
    }
}

TEST(PointsTo, MayAliasThroughControlFlow)
{
    Module m = compile(
        "u8 a[4]; u8 b[4]; u8 pick;"
        "void main() {"
        "  u8* p = a;"
        "  if (pick) { p = b; }"
        "  p[0] = 1;"
        "}");
    PointsTo pts(m);
    const Function *f = m.findFunc("main");
    for (const auto &bb : f->blocks) {
        for (const auto &in : bb.instrs) {
            if (in.op == Opcode::Store) {
                PtsSet t = pts.accessTargets(f->id, in.args[0].index);
                // Both arrays are possible targets; nothing is exact.
                EXPECT_GE(t.size(), 2u);
                EXPECT_FALSE(
                    pts.resolveExact(f->id, in.args[0].index)
                        .has_value());
            }
        }
    }
}

TEST(PointsTo, FlowsThroughCalls)
{
    Module m = compile(
        "u8 buf[8];"
        "void write(u8* p) { p[0] = 1; }"
        "void main() { write(buf); }");
    PointsTo pts(m);
    const Function *w = m.findFunc("write");
    const Function *f = m.findFunc("main");
    // The parameter must point to buf.
    const PtsSet &pp = pts.vregPts(w->id, w->params[0]);
    ASSERT_EQ(pp.size(), 1u);
    EXPECT_EQ(pp.begin()->kind, MemObj::GlobalObj);
    EXPECT_TRUE(pts.mayAlias(w->id, w->params[0], f->id,
                             /* some vreg pointing at buf */ 0) ||
                true);  // smoke: mayAlias does not crash on vreg 0
}

TEST(PointsTo, IntToPointerIsUniversal)
{
    Module m = compile(
        "u8 g;"
        "void main() { u8* p = (u8*) 0x1234; p[0] = 1; g = 0; }");
    PointsTo pts(m);
    const Function *f = m.findFunc("main");
    bool sawUniversal = false;
    for (const auto &bb : f->blocks) {
        for (const auto &in : bb.instrs) {
            if (in.op == Opcode::Store && in.args[0].isVReg()) {
                PtsSet t = pts.accessTargets(f->id, in.args[0].index);
                if (PointsTo::hasUniversal(t))
                    sawUniversal = true;
            }
        }
    }
    EXPECT_TRUE(sawUniversal);
}

TEST(PointsTo, ConvergesOnALongBackwardCopyChain)
{
    // Each loop iteration moves &g one link down p1100 -> ... -> p0:
    // the copies run against the key order, so a solver that sweeps
    // the keys round-robin needs one sweep per link.
    const int n = 1100;
    std::string src = "u8 g; u16 main() {";
    for (int i = 0; i <= n; ++i)
        src += " u8* p" + std::to_string(i) + " = null;";
    src += " for (u8 k = 0; k < 2; k++) {";
    for (int i = 0; i < n; ++i)
        src += " p" + std::to_string(i) + " = p" + std::to_string(i + 1) +
               ";";
    src += " p" + std::to_string(n) + " = &g; } return 0; }";
    Module m = compile(src);
    PointsTo pts(m);
    const Function *f = m.findFunc("main");
    uint32_t p0 = kNoVReg;
    for (uint32_t v = 0; v < f->vregs.size(); ++v) {
        if (f->vregs[v].name == "p0")
            p0 = v;
    }
    ASSERT_NE(p0, kNoVReg);
    EXPECT_EQ(pts.vregPts(f->id, p0).count(
                  MemObj::global(m.findGlobal("g")->id)),
              1u);
}

TEST(Liveness, DeadDefIsNotLive)
{
    Module m = compile(
        "u16 main() {"
        "  u16 dead = 42;"   // never used afterwards
        "  u16 live = 7;"
        "  return live;"
        "}");
    const Function *f = m.findFunc("main");
    Liveness live(m, *f);
    // Find the vregs by their names.
    uint32_t deadV = ~0u, liveV = ~0u;
    for (uint32_t v = 0; v < f->vregs.size(); ++v) {
        if (f->vregs[v].name == "dead")
            deadV = v;
        if (f->vregs[v].name == "live")
            liveV = v;
    }
    ASSERT_NE(deadV, ~0u);
    ASSERT_NE(liveV, ~0u);
    // The def of `dead` is dead right after it; the def of `live`,
    // which the return reads, is not.
    std::vector<bool> dead;
    live.deadDefs(0, dead);
    const auto &instrs = f->blocks[0].instrs;
    ASSERT_EQ(dead.size(), instrs.size());
    bool sawDeadDef = false, sawLiveDef = false;
    for (size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].hasDst() && instrs[i].dst == deadV) {
            sawDeadDef = true;
            EXPECT_TRUE(dead[i]);
        }
        if (instrs[i].hasDst() && instrs[i].dst == liveV) {
            sawLiveDef = true;
            EXPECT_FALSE(dead[i]);
        }
        if (!instrs[i].hasDst()) {
            EXPECT_FALSE(dead[i]);
        }
    }
    EXPECT_TRUE(sawDeadDef);
    EXPECT_TRUE(sawLiveDef);
    for (uint32_t b = 0; b < f->blocks.size(); ++b) {
        EXPECT_FALSE(live.liveIn(b)[deadV]);
        EXPECT_FALSE(live.liveOut(b)[deadV]);
    }
}

/**
 * Brute-force live-in set of block `start`: v is live-in when some
 * path from the block's first instruction reaches a use of v before
 * any def of v. One forward walk over (block, instr) pairs per vreg; a
 * walk enters a block at most once, since every entry starts at the
 * block's first instruction and so continues the same way.
 */
std::vector<bool>
referenceLiveIn(const Function &f, uint32_t start)
{
    size_t nv = f.vregs.size();
    std::vector<bool> live(nv, false);
    std::vector<uint32_t> enteredFor(f.blocks.size(), kNoVReg);
    for (uint32_t v = 0; v < nv; ++v) {
        std::vector<uint32_t> work{start};
        enteredFor[start] = v;
        while (!work.empty() && !live[v]) {
            const BasicBlock &bb = f.blocks.at(work.back());
            work.pop_back();
            bool defined = false;
            for (const Instr &in : bb.instrs) {
                // An instruction reads its operands before it writes.
                for (const Operand &a : in.args) {
                    if (a.isVReg() && a.index == v)
                        live[v] = true;
                }
                defined = in.hasDst() && in.dst == v;
                if (live[v] || defined)
                    break;
            }
            if (live[v] || defined || bb.instrs.empty())
                continue;
            const Instr &t = bb.instrs.back();
            std::vector<uint32_t> succ;
            if (t.op == Opcode::Br)
                succ = {t.b0};
            else if (t.op == Opcode::CondBr)
                succ = {t.b0, t.b1};
            for (uint32_t s : succ) {
                if (enteredFor.at(s) != v) {
                    enteredFor[s] = v;
                    work.push_back(s);
                }
            }
        }
    }
    return live;
}

/**
 * cXprop keeps block states for live-in vregs only, so a live-in set
 * that is too small makes it read a stale value. Every block of every
 * corpus function, after the safety stage, under the unsafe baseline
 * and under the column that runs every stage body.
 */
TEST(Liveness, MatchesBruteForceOnTheCorpus)
{
    core::StageCache cache;
    size_t blocks = 0, mismatches = 0;
    std::string first;
    for (const auto &app : tinyos::allApps()) {
        for (core::ConfigId id : {core::ConfigId::Baseline,
                                  core::ConfigId::SafeFlidInlineCxpropCfi}) {
            auto safety =
                cache.safety(app, core::configFor(id, app.platform));
            const Module &m = *safety->module;
            for (const Function &f : m.funcs()) {
                Liveness live(m, f);
                for (uint32_t b = 0; b < f.blocks.size(); ++b) {
                    ++blocks;
                    if (referenceLiveIn(f, b) == live.liveIn(b))
                        continue;
                    if (mismatches++ == 0) {
                        first = app.name + " / " +
                                core::configName(id) + " / " + f.name +
                                " block " + std::to_string(b);
                    }
                }
            }
        }
    }
    EXPECT_GT(blocks, 1000u);
    EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
}

//---------------------------------------------------------------------
// Concurrency / race detection
//---------------------------------------------------------------------

ConcurrencyAnalysis
analyze(Module &m)
{
    static std::vector<std::unique_ptr<CallGraph>> cgs;
    static std::vector<std::unique_ptr<PointsTo>> ptss;
    cgs.push_back(std::make_unique<CallGraph>(m));
    ptss.push_back(std::make_unique<PointsTo>(m));
    return ConcurrencyAnalysis(m, *cgs.back(), *ptss.back());
}

TEST(Concurrency, SharedCounterIsRacy)
{
    Module m = compile(
        "u16 shared;"
        "interrupt(TIMER0) void tick() { shared = shared + 1; }"
        "u16 main() { return shared; }");
    auto conc = analyze(m);
    EXPECT_EQ(conc.racyGlobals().size(), 1u);
    EXPECT_TRUE(conc.isRacyGlobal(m.findGlobal("shared")->id));
}

TEST(Concurrency, TaskOnlyVariableIsNotRacy)
{
    Module m = compile(
        "u16 taskOnly;"
        "interrupt(TIMER0) void tick() { }"
        "void main() { taskOnly = 5; }");
    auto conc = analyze(m);
    EXPECT_FALSE(conc.isRacyGlobal(m.findGlobal("taskOnly")->id));
}

TEST(Concurrency, FullyAtomicAccessIsNotRacy)
{
    Module m = compile(
        "u16 shared;"
        "interrupt(TIMER0) void tick() { atomic { shared++; } }"
        "u16 main() { u16 v; atomic { v = shared; } return v; }");
    auto conc = analyze(m);
    EXPECT_FALSE(conc.isRacyGlobal(m.findGlobal("shared")->id));
}

TEST(Concurrency, ReadOnlySharedDataIsNotRacy)
{
    Module m = compile(
        "u16 config = 7;"
        "u16 sink;"
        "interrupt(TIMER0) void tick() { sink = config; }"
        "u16 main() { return config; }");
    auto conc = analyze(m);
    EXPECT_FALSE(conc.isRacyGlobal(m.findGlobal("config")->id));
}

TEST(Concurrency, DetectorFollowsPointers)
{
    // The interrupt writes through a pointer: nesC's syntactic
    // analysis misses this; ours must not (paper §2.1).
    Module m = compile(
        "u16 target;"
        "u16* alias;"
        "interrupt(TIMER0) void tick() { if (alias != null) { *alias = 1; } }"
        "u16 main() { alias = &target; return target; }");
    auto conc = analyze(m);
    EXPECT_TRUE(conc.isRacyGlobal(m.findGlobal("target")->id));
}

TEST(Concurrency, NoraceIsSuppressedForSafety)
{
    Module m = compile(
        "norace u16 shared;"
        "interrupt(TIMER0) void tick() { shared++; }"
        "u16 main() { return shared; }");
    // norace is unsound for safety (§2.2), so the detector ignores it.
    auto conc = analyze(m);
    EXPECT_TRUE(conc.isRacyGlobal(m.findGlobal("shared")->id));
}

TEST(Concurrency, HandlerOnlyCodeNeedsNoIrqSave)
{
    Module m = compile(
        "u16 x;"
        "void handlerHelper() { atomic { x++; } }"
        "interrupt(TIMER0) void tick() { handlerHelper(); }"
        "void taskSide() { atomic { x++; } }"
        "void main() { taskSide(); }");
    auto conc = analyze(m);
    // Handler context => IRQs already off => save needed (it IS
    // entered with interrupts disabled, so restoring matters).
    EXPECT_TRUE(conc.atomicNeedsIrqSave(fid(m, "handlerHelper")));
    // Pure task-side atomic never nests: plain cli/sei suffices.
    EXPECT_FALSE(conc.atomicNeedsIrqSave(fid(m, "taskSide")));
}

TEST(Concurrency, ContextClassification)
{
    Module m = compile(
        "u16 x;"
        "void both() { x++; }"
        "interrupt(TIMER0) void tick() { both(); }"
        "void main() { both(); }");
    auto conc = analyze(m);
    const auto &ctx = conc.contextsOf(fid(m, "both"));
    EXPECT_TRUE(ctx.task);
    EXPECT_NE(ctx.vectors, 0u);
    EXPECT_TRUE(ctx.multi());
    EXPECT_TRUE(conc.isRacyGlobal(m.findGlobal("x")->id));
}

} // namespace
} // namespace stos
