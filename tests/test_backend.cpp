/**
 * @file
 * Backend tests: the GCC-model late optimizer, instruction selection
 * (fat pointers, checks, atomics), cost-model properties, and
 * link-time GC/layout.
 */
#include <gtest/gtest.h>

#include "backend/backend.h"
#include "frontend/frontend.h"
#include "safety/ccured.h"

namespace stos {
namespace {

using namespace stos::ir;
using namespace stos::backend;

Module
compile(const std::string &src)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC({{"t.tc", src}}, diags, sm);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    return m;
}

MProgram
build(Module &m, TargetInfo t = TargetInfo::mica2(),
      BackendOptions opts = {})
{
    return compileToTarget(m, t, opts);
}

TEST(Target, PlatformParameters)
{
    TargetInfo mica = TargetInfo::mica2();
    TargetInfo telos = TargetInfo::telosb();
    EXPECT_EQ(mica.regBits, 8u);
    EXPECT_EQ(telos.regBits, 16u);
    EXPECT_GT(mica.flashBytes, telos.flashBytes);
    EXPECT_LT(mica.ramBytes, telos.ramBytes);
}

TEST(CostModel, SixteenBitOpsCheaperOnTelos)
{
    // The same 16-bit heavy program must be smaller on the 16-bit
    // MSP430-like target than on the 8-bit AVR-like one.
    const char *src =
        "u16 acc;"
        "u16 main() {"
        "  u16 i = 0;"
        "  while (i < 100) { acc = acc * 3 + i; i++; }"
        "  return acc;"
        "}";
    Module m1 = compile(src);
    MProgram avr = build(m1, TargetInfo::mica2());
    Module m2 = compile(src);
    MProgram msp = build(m2, TargetInfo::telosb());
    EXPECT_LT(msp.codeBytes(), avr.codeBytes());
}

TEST(CostModel, RomLoadsCostExtraOnAvr)
{
    MProgram p;
    p.target = TargetInfo::mica2();
    MInstr ramLd;
    ramLd.op = MOp::Ld;
    ramLd.w = 8;
    MInstr romLd = ramLd;
    romLd.romData = true;
    EXPECT_GT(p.instrBytes(romLd), p.instrBytes(ramLd));
    EXPECT_GT(p.instrCycles(romLd), p.instrCycles(ramLd));
    p.target = TargetInfo::telosb();
    EXPECT_EQ(p.instrBytes(romLd), p.instrBytes(ramLd))
        << "unified address space on the MSP430-like target";
}

TEST(Isel, FatPointerStoresAreWider)
{
    // Storing a SEQ pointer writes three words; the same program with
    // unchecked pointers writes one.
    const char *src =
        "u8 buf[8];"
        "u8* cursor;"
        "void main() { cursor = buf; cursor = cursor - 1; "
        "cursor = cursor + 1; *cursor = 1; }";
    Module plain = compile(src);
    MProgram unsafeImg = build(plain);
    Module safe = compile(src);
    safety::SafetyConfig scfg;
    safety::applySafety(safe, scfg);
    MProgram safeImg = build(safe);
    auto countStores = [](const MProgram &p) {
        uint32_t n = 0;
        for (const auto &f : p.funcs) {
            for (const auto &bb : f.blocks) {
                for (const auto &in : bb.instrs) {
                    if (in.op == MOp::St)
                        ++n;
                }
            }
        }
        return n;
    };
    EXPECT_GT(countStores(safeImg), countStores(unsafeImg));
}

TEST(Isel, ChecksLowerToMarkedBranches)
{
    Module m = compile(
        "u8 buf[8]; u8 i;"
        "void main() { buf[i] = 1; }");
    safety::SafetyConfig scfg;
    safety::applySafety(m, scfg);
    MProgram img = build(m);
    EXPECT_GT(img.survivingCheckBranches(), 0u);
}

TEST(Isel, AtomicSectionsBecomeIrqFlagOps)
{
    Module m = compile(
        "u16 x;"
        "interrupt(TIMER0) void tick() { x++; }"
        "void main() { atomic { x = 1; } }");
    MProgram img = build(m);
    bool sawCli = false, sawRestore = false;
    for (const auto &f : img.funcs) {
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.op == MOp::Cli)
                    sawCli = true;
                if (in.op == MOp::SetIf || in.op == MOp::Sei)
                    sawRestore = true;
            }
        }
    }
    EXPECT_TRUE(sawCli);
    EXPECT_TRUE(sawRestore);
}

TEST(Link, UnreferencedGlobalsDropped)
{
    Module m = compile(
        "u8 used = 1;"
        "u8 unused = 2;"
        "u16 main() { return used; }");
    MProgram img = build(m);
    bool sawUsed = false, sawUnused = false;
    for (const auto &d : img.data) {
        if (d.name == "used")
            sawUsed = true;
        if (d.name == "unused")
            sawUnused = true;
    }
    EXPECT_TRUE(sawUsed);
    EXPECT_FALSE(sawUnused);
}

TEST(Link, UnreachableFunctionsDropped)
{
    Module m = compile(
        "void orphan() { }"
        "void main() { }");
    MProgram img = build(m);
    for (const auto &f : img.funcs)
        EXPECT_NE(f.name, "orphan");
}

TEST(Link, LayoutSeparatesRamAndRom)
{
    Module m = compile(
        "u8 ramVar = 1;"
        "rom u8 table[4] = {1,2,3,4};"
        "u16 main() { return ramVar + table[0]; }");
    MProgram img = build(m);
    for (const auto &d : img.data) {
        if (d.name == "ramVar") {
            EXPECT_FALSE(d.rom);
            EXPECT_LT(d.addr, img.romDataBase);
        }
        if (d.name == "table") {
            EXPECT_TRUE(d.rom);
            EXPECT_GE(d.addr, img.romDataBase);
        }
    }
    EXPECT_EQ(img.ramDataBytes(), 1u);
    EXPECT_EQ(img.romDataBytes(), 4u);
}

TEST(Link, VectorTablePointsAtHandlers)
{
    Module m = compile(
        "interrupt(TIMER0) void t0() { }"
        "interrupt(ADC) void adc() { }"
        "void main() { }");
    MProgram img = build(m);
    ASSERT_GE(img.vectorTable.size(), 3u);
    EXPECT_GE(img.vectorTable[0], 0);
    EXPECT_GE(img.vectorTable[2], 0);
    EXPECT_EQ(img.vectorTable[1], -1);
    EXPECT_EQ(img.funcs[img.vectorTable[0]].name, "t0");
}

TEST(GccOpts, LocalConstantFolding)
{
    Module m = compile("u16 main() { return 6 * 7; }");
    GccOptions opts;
    GccReport rep = runGccStyleOpts(m, opts);
    EXPECT_GT(rep.constsFolded + rep.instrsRemoved, 0u);
}

TEST(GccOpts, RemovesRedundantChecks)
{
    Module m = compile(
        "u8 buf[8]; u8 i;"
        "void main() {"
        "  u8* p = buf + i;"       // one pointer, dereferenced twice
        "  u8 a = *p; u8 b = *p; a = a; b = b;"
        "}");
    safety::SafetyConfig scfg;
    scfg.ccuredOptimizer = false;  // let "GCC" do the work
    safety::applySafety(m, scfg);
    GccOptions opts;
    GccReport rep = runGccStyleOpts(m, opts);
    EXPECT_GT(rep.checksRemoved, 0u);
}

} // namespace
} // namespace stos
