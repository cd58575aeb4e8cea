/**
 * @file
 * Unit tests for the safety (CCured-analogue) stage: hardware-access
 * refactoring, pointer-kind inference, check insertion, error-message
 * materialization, FLIDs, concurrency locking, and the runtime model.
 */
#include <gtest/gtest.h>

#include "frontend/frontend.h"
#include "ir/interp.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "safety/ccured.h"
#include "safety/flid.h"
#include "safety/hwrefactor.h"
#include "safety/runtime.h"

namespace stos {
namespace {

using namespace stos::ir;
using namespace stos::safety;

Module
compile(const std::string &src)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC({{"t.tc", src}}, diags, sm);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    return m;
}

SafetyReport
makeSafe(Module &m, SafetyConfig cfg = {})
{
    SafetyReport rep = applySafety(m, cfg);
    auto problems = verifyModule(m);
    EXPECT_TRUE(problems.empty())
        << (problems.empty() ? "" : problems[0]);
    return rep;
}

PtrKind
kindOfLocalPtr(const Module &m, const std::string &fn,
               const std::string &var)
{
    const Function *f = m.findFunc(fn);
    EXPECT_NE(f, nullptr);
    for (const auto &v : f->vregs) {
        if (v.name == var) {
            const Type &t = m.types().get(v.type);
            if (t.kind == TypeKind::Ptr)
                return t.ptrKind;
        }
    }
    for (const auto &l : f->locals) {
        if (l.name == var) {
            const Type &t = m.types().get(l.type);
            if (t.kind == TypeKind::Ptr)
                return t.ptrKind;
        }
    }
    ADD_FAILURE() << "no pointer " << var << " in " << fn;
    return PtrKind::Unchecked;
}

//---------------------------------------------------------------------
// Hardware refactoring
//---------------------------------------------------------------------

TEST(HwRefactor, RewritesConstantAddressAccess)
{
    Module m = compile(
        "hwreg u8 PORTB @ 0x25;"
        "void main() { u8* p = (u8*) 0x25; *p = 1; u8 v = *p; v = v; }");
    uint32_t n = refactorHardwareAccesses(m);
    EXPECT_EQ(n, 2u);
    int hwOps = 0;
    for (const auto &bb : m.findFunc("main")->blocks) {
        for (const auto &in : bb.instrs) {
            if (in.op == Opcode::HwRead || in.op == Opcode::HwWrite)
                ++hwOps;
        }
    }
    EXPECT_EQ(hwOps, 2);
}

TEST(HwRefactor, LeavesUnknownAddressesAlone)
{
    Module m = compile(
        "hwreg u8 PORTB @ 0x25;"
        "void main() { u8* p = (u8*) 0x99; *p = 1; }");
    EXPECT_EQ(refactorHardwareAccesses(m), 0u);
}

TEST(HwRefactor, WidthMustMatch)
{
    Module m = compile(
        "hwreg u8 PORTB @ 0x25;"
        "void main() { u16* p = (u16*) 0x25; *p = 1; }");
    EXPECT_EQ(refactorHardwareAccesses(m), 0u);
}

//---------------------------------------------------------------------
// Kind inference
//---------------------------------------------------------------------

TEST(Kinds, AddressOfScalarIsSafe)
{
    Module m = compile(
        "void main() { u16 x = 1; u16* p = &x; *p = 2; }");
    makeSafe(m);
    EXPECT_EQ(kindOfLocalPtr(m, "main", "p"), PtrKind::Safe);
}

TEST(Kinds, ForwardIndexingIsFSeq)
{
    Module m = compile(
        "u8 buf[8];"
        "void main() { u8* p = buf; u8 i = 3; p[i] = 1; }");
    makeSafe(m);
    EXPECT_EQ(kindOfLocalPtr(m, "main", "p"), PtrKind::FSeq);
}

TEST(Kinds, SignedArithmeticIsSeq)
{
    Module m = compile(
        "u8 buf[8];"
        "void main() { u8* p = buf; p = p + 4; p = p - 2; *p = 1; }");
    makeSafe(m);
    EXPECT_EQ(kindOfLocalPtr(m, "main", "p"), PtrKind::Seq);
}

TEST(Kinds, BadCastIsWild)
{
    Module m = compile(
        "u8 buf[8];"
        "void main() { u16* p = (u16*) buf; *p = 1; }");
    makeSafe(m);
    // u8* viewed as u16*: widening cast, not representable => WILD.
    EXPECT_EQ(kindOfLocalPtr(m, "main", "p"), PtrKind::Wild);
}

TEST(Kinds, KindsUnifyThroughCalls)
{
    Module m = compile(
        "u8 buf[8];"
        "void touch(u8* q) { q[1] = 2; }"   // forces >= FSeq
        "void main() { u8* p = buf; touch(p); *p = 1; }");
    makeSafe(m);
    EXPECT_EQ(kindOfLocalPtr(m, "main", "p"), PtrKind::FSeq);
}

TEST(Kinds, FatPointersChangeGlobalSizes)
{
    Module m = compile(
        "u8 buf[8];"
        "u8* cursor;"
        "void main() { cursor = buf; cursor = cursor + 1; *cursor = 1; }");
    uint32_t before = m.typeSize(m.findGlobal("cursor")->type);
    makeSafe(m);
    uint32_t after = m.typeSize(m.findGlobal("cursor")->type);
    EXPECT_EQ(before, 2u);
    EXPECT_GT(after, before) << "fat pointer must be wider";
}

//---------------------------------------------------------------------
// Check insertion
//---------------------------------------------------------------------

TEST(Checks, DirectVariableAccessNeedsNoCheck)
{
    Module m = compile(
        "u16 g;"
        "void main() { g = 5; u16 v = g; v = v; }");
    SafetyReport rep = makeSafe(m);
    EXPECT_EQ(rep.checksInserted, 0u);
    EXPECT_GT(rep.staticallySafeAccesses, 0u);
}

TEST(Checks, VariableIndexGetsBoundsCheck)
{
    Module m = compile(
        "u8 buf[8]; u8 idx;"
        "void main() { buf[idx] = 1; }");
    SafetyReport rep = makeSafe(m);
    EXPECT_GE(rep.checksInserted, 1u);
    EXPECT_GE(rep.checksByKind["upper-bound"], 1u);
}

TEST(Checks, ConstantIndexSkippedOnlyWithOptimizer)
{
    const char *src =
        "u8 buf[8];"
        "void main() { u8* p = buf; p[3] = 1; }";
    Module m1 = compile(src);
    SafetyConfig noOpt;
    noOpt.ccuredOptimizer = false;
    SafetyReport r1 = makeSafe(m1, noOpt);
    Module m2 = compile(src);
    SafetyConfig withOpt;
    withOpt.ccuredOptimizer = true;
    SafetyReport r2 = makeSafe(m2, withOpt);
    EXPECT_GT(r1.checksInserted, r2.checksInserted);
}

TEST(Checks, NullCheckInAMovCycleGuardsTheAccessedPointer)
{
    // p and q are each defined once, by a Mov from the other: the
    // def chain has no root, so the null check goes on the pointer
    // the store writes through.
    Module m = compile(
        "u8 g;"
        "void main() {"
        "  u8* p; u8* q;"
        "  for (u8 k = 0; k < 2; k++) { p = q; q = p; }"
        "  if (g == 7) { *p = 1; }"
        "}");
    makeSafe(m);
    int nullChecks = 0;
    const Function *f = m.findFunc("main");
    for (const auto &bb : f->blocks) {
        for (size_t i = 0; i < bb.instrs.size(); ++i) {
            const Instr &in = bb.instrs[i];
            if (in.op != Opcode::ChkNull)
                continue;
            ++nullChecks;
            ASSERT_LT(i + 1, bb.instrs.size());
            EXPECT_EQ(bb.instrs[i + 1].op, Opcode::Store);
            EXPECT_EQ(f->vregs[in.args[0].index].name, "p");
            EXPECT_EQ(in.args[0], bb.instrs[i + 1].args[0]);
        }
    }
    EXPECT_EQ(nullChecks, 1);
}

TEST(Checks, IndirectCallGetsFnPtrCheck)
{
    Module m = compile(
        "void t() { }"
        "void main() { fnptr f = t; f(); }");
    SafetyReport rep = makeSafe(m);
    EXPECT_GE(rep.checksByKind["fnptr"], 1u);
}

TEST(Checks, ChecksCarryDistinctFlids)
{
    Module m = compile(
        "u8 a[4]; u8 b[4]; u8 i;"
        "void main() { a[i] = 1; b[i] = 2; }");
    makeSafe(m);
    std::set<uint32_t> flids;
    for (const auto &f : m.funcs()) {
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.isCheck()) {
                    EXPECT_NE(in.flid, 0u);
                    flids.insert(in.flid);
                }
            }
        }
    }
    EXPECT_GE(flids.size(), 2u);
    EXPECT_EQ(flids.size(), m.flidTable().size());
}

TEST(Checks, NaiveRuntimeAddsAlignmentChecks)
{
    const char *src =
        "u16 buf[8]; u8 i;"
        "void main() { buf[i] = 1; }";
    Module m1 = compile(src);
    SafetyConfig naive;
    naive.naiveRuntime = true;
    SafetyReport r1 = makeSafe(m1, naive);
    EXPECT_GE(r1.checksByKind["alignment"], 1u);

    Module m2 = compile(src);
    SafetyReport r2 = makeSafe(m2);
    EXPECT_EQ(r2.checksByKind["alignment"], 0u);
}

TEST(Checks, SafeProgramStillExecutesCorrectly)
{
    // Differential: making a correct program safe must not change its
    // result (checks pass silently).
    const char *src =
        "u8 buf[10];"
        "u16 main() {"
        "  u8 i = 0;"
        "  while (i < 10) { buf[i] = (u8)(i * 2); i = (u8)(i + 1); }"
        "  u16 sum = 0;"
        "  i = 0;"
        "  while (i < 10) { sum = sum + buf[i]; i = (u8)(i + 1); }"
        "  return sum;"
        "}";
    Module plain = compile(src);
    Interp ip(plain);
    auto rp = ip.run("main");
    ASSERT_EQ(rp.reason, StopReason::Returned);

    Module safe = compile(src);
    makeSafe(safe);
    Interp is(safe);
    auto rs = is.run("main");
    ASSERT_EQ(rs.reason, StopReason::Returned) << rs.detail;
    EXPECT_EQ(rs.retVal.i, rp.retVal.i);
}

TEST(Checks, BuggyProgramTrapsWithCorrectFlid)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC({{"t.tc", R"TC(
u8 buf[4]; u8 n;
u16 main() {
    n = 6;
    u8 i = 0;
    while (i < n) { buf[i] = 1; i = (u8)(i + 1); }
    return buf[0];
}
)TC"}}, diags, sm);
    ASSERT_FALSE(diags.hasErrors()) << diags.dump();
    applySafety(m, {}, &sm);
    Interp in(m);
    auto r = in.run("main");
    EXPECT_EQ(r.reason, StopReason::SafetyFault);
    EXPECT_NE(r.flid, 0u);
    std::string msg = decodeFlid(m.flidTable(), r.flid);
    EXPECT_NE(msg.find("t.tc"), std::string::npos);
}

//---------------------------------------------------------------------
// Error-message configurations
//---------------------------------------------------------------------

uint32_t
countErrorStringBytes(const Module &m, Section sec)
{
    uint32_t n = 0;
    for (const auto &g : m.globals()) {
        if (!g.dead && g.attrs.isErrorString && g.section == sec)
            n += m.typeSize(g.type);
    }
    return n;
}

TEST(ErrorModes, VerboseCreatesRamStrings)
{
    Module m = compile("u8 b[4]; u8 i; void main() { b[i] = 1; }");
    SafetyConfig cfg;
    cfg.errorMode = ErrorMode::VerboseRam;
    makeSafe(m, cfg);
    EXPECT_GT(countErrorStringBytes(m, Section::Ram), 10u);
}

TEST(ErrorModes, RomMovesStringsToFlash)
{
    Module m = compile("u8 b[4]; u8 i; void main() { b[i] = 1; }");
    SafetyConfig cfg;
    cfg.errorMode = ErrorMode::VerboseRom;
    makeSafe(m, cfg);
    EXPECT_EQ(countErrorStringBytes(m, Section::Ram), 0u);
    EXPECT_GT(countErrorStringBytes(m, Section::Rom), 10u);
}

TEST(ErrorModes, TerseIsShorterThanVerbose)
{
    Module mv = compile("u8 b[4]; u8 i; void main() { b[i] = 1; }");
    SafetyConfig v;
    v.errorMode = ErrorMode::VerboseRam;
    makeSafe(mv, v);
    Module mt = compile("u8 b[4]; u8 i; void main() { b[i] = 1; }");
    SafetyConfig t;
    t.errorMode = ErrorMode::Terse;
    makeSafe(mt, t);
    EXPECT_LT(countErrorStringBytes(mt, Section::Ram),
              countErrorStringBytes(mv, Section::Ram));
}

TEST(ErrorModes, FlidHasNoDeviceStrings)
{
    Module m = compile("u8 b[4]; u8 i; void main() { b[i] = 1; }");
    SafetyConfig cfg;
    cfg.errorMode = ErrorMode::Flid;
    makeSafe(m, cfg);
    EXPECT_EQ(countErrorStringBytes(m, Section::Ram), 0u);
    EXPECT_EQ(countErrorStringBytes(m, Section::Rom), 0u);
    EXPECT_FALSE(m.flidTable().empty());
}

TEST(Flid, SerializeParseRoundTrip)
{
    Module m = compile("u8 b[4]; u8 i; void main() { b[i] = 1; }");
    makeSafe(m);
    std::string text = serializeFlidTable(m.flidTable());
    auto entries = parseFlidTable(text);
    ASSERT_EQ(entries.size(), m.flidTable().size());
    for (size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].flid, m.flidTable()[i].flid);
        EXPECT_EQ(entries[i].file, m.flidTable()[i].file);
        EXPECT_EQ(entries[i].line, m.flidTable()[i].line);
        EXPECT_EQ(entries[i].checkKind, m.flidTable()[i].checkKind);
    }
}

//---------------------------------------------------------------------
// Concurrency locking (§2.2)
//---------------------------------------------------------------------

TEST(Locks, RacyCheckedAccessGetsAtomicSection)
{
    Module m = compile(
        "u8 shared[8]; u8 widx;"
        "interrupt(TIMER0) void tick() {"
        "  widx = (u8)((widx + 1) & 7);"
        "  shared[widx] = (u8)(shared[widx] + 1);"
        "}"
        "u16 main() { return shared[widx]; }");
    SafetyReport rep = makeSafe(m);
    EXPECT_GE(rep.locksInserted, 1u);
}

TEST(Locks, NonRacyAccessGetsNoLock)
{
    Module m = compile(
        "u8 lonely[8]; u8 idx;"
        "void main() { lonely[idx] = 1; }");
    SafetyReport rep = makeSafe(m);
    EXPECT_EQ(rep.locksInserted, 0u);
}

//---------------------------------------------------------------------
// Runtime model
//---------------------------------------------------------------------

TEST(Runtime, TrimmedRuntimeHasFailHandlers)
{
    Module m = compile("void main() { }");
    SafetyConfig cfg;
    generateRuntime(m, cfg);
    EXPECT_NE(m.findFunc(kFailFn), nullptr);
    EXPECT_NE(m.findFunc(kFailMsgFn), nullptr);
    EXPECT_NE(m.findGlobal(kLastFaultGlobal), nullptr);
    EXPECT_EQ(m.findFunc("__ccured_gc_scan"), nullptr);
}

TEST(Runtime, NaiveRuntimeCarriesBaggage)
{
    Module m = compile("void main() { }");
    SafetyConfig cfg;
    cfg.naiveRuntime = true;
    generateRuntime(m, cfg);
    EXPECT_NE(m.findFunc("__ccured_gc_scan"), nullptr);
    EXPECT_NE(m.findGlobal("__ccured_gc_bitmap"), nullptr);
    EXPECT_NE(m.findGlobal("__ccured_fmt_tab"), nullptr);
}

} // namespace
} // namespace stos
