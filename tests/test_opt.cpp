/**
 * @file
 * Unit tests for the cXprop stage: abstract domains, constant and
 * branch folding, check elimination, copy propagation, DCE, the
 * incremental fixpoint's skip rule, the inliner (with differential
 * execution), and atomic optimization.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "analysis/callgraph.h"
#include "analysis/concurrency.h"
#include "analysis/pointsto.h"
#include "core/pipeline.h"
#include "frontend/frontend.h"
#include "ir/interp.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "opt/absval.h"
#include "opt/cxprop.h"
#include "opt/inliner.h"
#include "opt/passes.h"
#include "safety/ccured.h"

namespace stos {
namespace {

using namespace stos::ir;
using namespace stos::opt;

Module
compile(const std::string &src)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC({{"t.tc", src}}, diags, sm);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    return m;
}

uint64_t
runMain(Module &m)
{
    Interp in(m);
    auto r = in.run("main");
    EXPECT_EQ(r.reason, StopReason::Returned) << r.detail;
    return r.retVal.i;
}

//---------------------------------------------------------------------
// Abstract domain unit tests
//---------------------------------------------------------------------

TEST(AbsVal, JoinOfConstantsIsRange)
{
    DomainConfig cfg;
    AbsVal a = AbsVal::constant(3);
    AbsVal b = AbsVal::constant(7);
    AbsVal j = join(a, b, cfg);
    EXPECT_EQ(j.lo, 3);
    EXPECT_EQ(j.hi, 7);
    EXPECT_FALSE(j.isConst());
}

TEST(AbsVal, ConstantsOnlyDomainLosesRanges)
{
    DomainConfig cfg;
    cfg.intervals = false;
    AbsVal j = join(AbsVal::constant(3), AbsVal::constant(7), cfg);
    EXPECT_TRUE(j.isTop());
}

TEST(AbsVal, BottomIsJoinIdentity)
{
    DomainConfig cfg;
    AbsVal c = AbsVal::constant(5);
    EXPECT_EQ(join(AbsVal::bottom(), c, cfg), c);
    EXPECT_EQ(join(c, AbsVal::bottom(), cfg), c);
}

TEST(AbsVal, RefineByCompareNarrows)
{
    DomainConfig cfg;
    AbsVal v = AbsVal::range(0, 255);
    AbsVal bound = AbsVal::constant(10);
    AbsVal lt = refineByCompare(v, BinOp::LtU, bound, true, cfg);
    EXPECT_EQ(lt.hi, 9);
    AbsVal ge = refineByCompare(v, BinOp::LtU, bound, false, cfg);
    EXPECT_EQ(ge.lo, 10);
    AbsVal impossible = refineByCompare(AbsVal::constant(3), BinOp::GtU,
                                        AbsVal::constant(9), true, cfg);
    EXPECT_TRUE(impossible.isBottom());
}

TEST(AbsVal, ThresholdSearchMatchesLinearScan)
{
    // up/down binary-search the sorted thresholds; they must agree
    // with the plain ascending scan they replaced on random values,
    // on every threshold, and on its neighbours and negations.
    std::mt19937_64 rng(23);
    WidenThresholds ts;
    std::vector<int64_t> extra;
    std::uniform_int_distribution<int64_t> progConst(-65536, 65536);
    for (int i = 0; i < 40; ++i) {
        int64_t c = progConst(rng);
        extra.insert(extra.end(), {c - 1, c, c + 1});
    }
    ts.add(extra);
    const std::vector<int64_t> &vals = ts.values();
    ASSERT_TRUE(std::is_sorted(vals.begin(), vals.end()));
    auto scanUp = [&](int64_t v) {
        for (int64_t t : vals) {
            if (v <= t)
                return t;
        }
        return INT64_MAX / 4;
    };
    auto scanDown = [&](int64_t v) {
        for (int64_t t : vals) {
            if (-t <= v)
                return -t;
        }
        return INT64_MIN / 4;
    };
    std::vector<int64_t> probes = {INT64_MIN / 4, INT64_MAX / 4,
                                   INT64_MIN / 4 - 1, INT64_MAX / 4 + 1};
    for (int64_t t : vals)
        probes.insert(probes.end(), {t - 1, t, t + 1, -t - 1, -t, -t + 1});
    std::uniform_int_distribution<int64_t> small(-70000, 70000);
    std::uniform_int_distribution<int64_t> wide(INT64_MIN / 2,
                                                INT64_MAX / 2);
    for (int i = 0; i < 5000; ++i)
        probes.push_back(i % 2 ? small(rng) : wide(rng));
    for (int64_t v : probes) {
        EXPECT_EQ(ts.up(v), scanUp(v)) << "up(" << v << ")";
        EXPECT_EQ(ts.down(v), scanDown(v)) << "down(" << v << ")";
    }
}

/**
 * Property sweep: interval transfer functions must over-approximate
 * concrete arithmetic. For each operator and a grid of sample ranges,
 * every concrete result of (a op b) must fall inside evalBin's range.
 */
class IntervalSoundness
    : public ::testing::TestWithParam<ir::BinOp> {};

TEST_P(IntervalSoundness, OverApproximatesConcreteResults)
{
    BinOp op = GetParam();
    Module m;  // for a TypeTable
    TypeTable &tt = m.types();
    DomainConfig cfg;
    const int64_t samples[][2] = {
        {0, 5},   {3, 3},   {1, 16},  {0, 255}, {10, 20},
        {2, 9},   {7, 31},  {1, 2},   {100, 200},
    };
    for (const auto &ra : samples) {
        for (const auto &rb : samples) {
            AbsVal a = AbsVal::range(ra[0], ra[1]);
            AbsVal b = AbsVal::range(rb[0], rb[1]);
            AbsVal r = evalBin(op, a, b, tt, tt.u16(), tt.u16(), cfg);
            if (r.isTop() || r.kind != AbsVal::Int)
                continue;  // Top is trivially sound
            for (int64_t x = ra[0]; x <= ra[1]; x += 3) {
                for (int64_t y = rb[0]; y <= rb[1]; y += 3) {
                    int64_t c;
                    switch (op) {
                      case BinOp::Add: c = x + y; break;
                      case BinOp::Sub: c = x - y; break;
                      case BinOp::Mul: c = x * y; break;
                      case BinOp::And: c = x & y; break;
                      case BinOp::Or: c = x | y; break;
                      case BinOp::Xor: c = x ^ y; break;
                      case BinOp::DivU: c = y ? x / y : 0; break;
                      case BinOp::RemU: c = y ? x % y : 0; break;
                      case BinOp::LtU: c = x < y; break;
                      case BinOp::GeU: c = x >= y; break;
                      default: c = 0; break;
                    }
                    if ((op == BinOp::DivU || op == BinOp::RemU) && !y)
                        continue;
                    // Values stay within u16 here, so no wraparound.
                    if (c >= 0 && c <= 0xFFFF) {
                        EXPECT_LE(r.lo, c)
                            << binOpName(op) << " [" << ra[0] << ","
                            << ra[1] << "] [" << rb[0] << "," << rb[1]
                            << "] concrete " << c;
                        EXPECT_GE(r.hi, c)
                            << binOpName(op) << " concrete " << c;
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, IntervalSoundness,
    ::testing::Values(BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And,
                      BinOp::Or, BinOp::Xor, BinOp::DivU, BinOp::RemU,
                      BinOp::LtU, BinOp::GeU));

//---------------------------------------------------------------------
// Transformations
//---------------------------------------------------------------------

TEST(Cxprop, FoldsConstantsAcrossFunctions)
{
    Module m = compile(
        "u16 base() { return 40; }"
        "u16 main() { return base() + 2; }");
    CxpropReport rep = runCxprop(m);
    EXPECT_GT(rep.instrsConstFolded, 0u);
    EXPECT_EQ(runMain(m), 42u);
}

TEST(Cxprop, FoldsBranchesAndRemovesDeadCode)
{
    Module m = compile(
        "u16 mode;"   // never written: stays 0
        "u16 main() {"
        "  if (mode == 0) { return 1; }"
        "  return 2;"
        "}");
    CxpropReport rep = runCxprop(m);
    EXPECT_GT(rep.branchesFolded, 0u);
    EXPECT_EQ(runMain(m), 1u);
}

TEST(Cxprop, PreservesSemanticsOnLoops)
{
    const char *src =
        "u16 main() {"
        "  u16 s = 0;"
        "  for (u16 i = 0; i < 37; i++) { s += i * 3; }"
        "  return s;"
        "}";
    Module ref = compile(src);
    uint64_t expected = runMain(ref);
    Module m = compile(src);
    runCxprop(m);
    verifyOrDie(m, "cxprop");
    EXPECT_EQ(runMain(m), expected);
}

TEST(Cxprop, RemovesProvableChecks)
{
    Module m = compile(
        "u8 buf[16];"
        "u16 main() {"
        "  u8 i = 0;"
        "  while (i < 16) { buf[i] = i; i = (u8)(i + 1); }"
        "  return buf[3];"
        "}");
    safety::SafetyConfig scfg;
    safety::applySafety(m, scfg);
    CxpropOptions opts;
    CxpropReport rep = runCxprop(m, opts);
    EXPECT_GT(rep.checksRemoved, 0u);
    EXPECT_EQ(runMain(m), 3u);
}

TEST(Cxprop, KeepsUnprovableChecks)
{
    // Index comes from hardware: no bound exists, the check must stay.
    Module m = compile(
        "hwreg u8 SRC @ 0x40;"
        "u8 buf[16];"
        "void main() { u8 i = SRC; buf[i] = 1; }");
    safety::SafetyConfig scfg;
    safety::applySafety(m, scfg);
    runCxprop(m);
    uint32_t checks = 0;
    for (const auto &f : m.funcs()) {
        if (f.dead)
            continue;
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.isCheck())
                    ++checks;
            }
        }
    }
    EXPECT_GE(checks, 1u);
}

TEST(Cxprop, DomainAblationMatters)
{
    const char *src =
        "u8 buf[16];"
        "u16 main() {"
        "  u8 i = 0;"
        "  while (i < 16) { buf[i] = i; i = (u8)(i + 1); }"
        "  return buf[3];"
        "}";
    Module withIv = compile(src);
    safety::SafetyConfig scfg;
    safety::applySafety(withIv, scfg);
    CxpropOptions rich;
    CxpropReport r1 = runCxprop(withIv, rich);

    Module constOnly = compile(src);
    safety::applySafety(constOnly, scfg);
    CxpropOptions poor;
    poor.domains.intervals = false;
    poor.domains.knownBits = false;
    CxpropReport r2 = runCxprop(constOnly, poor);
    EXPECT_GT(r1.checksRemoved, r2.checksRemoved)
        << "intervals are needed to prove loop bounds";
}

TEST(Cxprop, DeadGlobalEliminated)
{
    Module m = compile(
        "u16 unused = 99;"
        "u16 written;"       // stored but never read
        "u16 main() { written = 5; return 1; }");
    CxpropReport rep = runCxprop(m);
    EXPECT_GE(rep.deadStoresRemoved, 1u);
    EXPECT_GE(rep.deadGlobalsRemoved, 2u);
    EXPECT_EQ(m.findGlobal("unused"), nullptr);
    EXPECT_EQ(m.findGlobal("written"), nullptr);
    EXPECT_EQ(runMain(m), 1u);
}

TEST(Cxprop, DeadFunctionEliminated)
{
    Module m = compile(
        "void never() { }"
        "u16 main() { return 3; }");
    CxpropReport rep = runCxprop(m);
    EXPECT_GE(rep.deadFuncsRemoved, 1u);
    EXPECT_EQ(m.findFunc("never"), nullptr);
}

TEST(Cxprop, RacyGlobalsAreNotFolded)
{
    // `shared` is written by the handler, so main's read must not be
    // constant-folded to its initial value.
    Module m = compile(
        "u16 shared;"
        "interrupt(TIMER0) void tick() { shared = 1234; }"
        "u16 main() { return shared; }");
    runCxprop(m);
    Interp in(m);
    in.scheduleInterrupt(1, 0);
    // Let the handler run first by sleeping via a crafted schedule:
    // simply run main after the interrupt fires at step 1.
    auto r = in.run("main");
    // Whether or not the interrupt preempted in time, the load must
    // still be a real load: check the IR kept a Load of `shared`.
    bool hasLoad = false;
    for (const auto &bb : m.findFunc("main")->blocks) {
        for (const auto &in2 : bb.instrs) {
            if (in2.op == Opcode::Load)
                hasLoad = true;
        }
    }
    EXPECT_TRUE(hasLoad);
    (void)r;
}

//---------------------------------------------------------------------
// Incremental fixpoint
//---------------------------------------------------------------------

size_t
checksIn(const Function &f)
{
    size_t n = 0;
    for (const auto &bb : f.blocks) {
        for (const auto &in : bb.instrs)
            n += in.isCheck() ? 1 : 0;
    }
    return n;
}

TEST(CxpropIncremental, SkippedReaderSeesWidenedGlobal)
{
    // `reader` comes first in every round, so it reads `count` before
    // `bump` grows it. A reader wrongly skipped once `count` moved
    // would keep count == 0: its bounds check would go and the load
    // would fold to a constant.
    Module m = compile(
        "u8 buf[4];"
        "u8 count;"
        "u8 reader() { return buf[count]; }"
        "void bump() { count = (u8)(count + 1); }"
        "u8 main() { bump(); return reader(); }");
    safety::SafetyConfig scfg;
    safety::applySafety(m, scfg);
    const Function *reader = m.findFunc("reader");
    ASSERT_NE(reader, nullptr);
    ASSERT_GE(checksIn(*reader), 1u);
    CxpropReport rep = runCxprop(m);
    reader = m.findFunc("reader");
    ASSERT_NE(reader, nullptr);
    EXPECT_GE(checksIn(*reader), 1u);
    bool loadsCount = false;
    for (const auto &bb : reader->blocks) {
        for (const auto &in : bb.instrs) {
            if (in.op == Opcode::Load && in.args[0].isVReg())
                loadsCount = true;
        }
    }
    EXPECT_TRUE(loadsCount);
    EXPECT_GT(rep.fixpointRounds, static_cast<uint32_t>(rep.rounds));
}

TEST(CxpropIncremental, MultiFunctionAppSkipsCleanFunctions)
{
    const auto &app = tinyos::appByName("Surge");
    core::BuildResult r = core::buildApp(
        app, core::configFor(core::ConfigId::SafeFlidCxprop,
                             app.platform));
    const CxpropReport &rep = r.cxpropReport;
    EXPECT_GT(rep.funcAnalysesSkipped, 0u);
    EXPECT_LT(rep.funcAnalysesSkipped, rep.funcAnalyses);
    EXPECT_GE(rep.fixpointRounds, static_cast<uint32_t>(rep.rounds));
    EXPECT_GT(rep.blockVisits, 0u);
}

TEST(CxpropIncremental, RunsOnCopiesPrintIdenticalIr)
{
    const auto &app = tinyos::appByName("Surge");
    core::FrontendProduct fe = core::runFrontend(app.name, app.source);
    safety::SafetyConfig scfg;
    safety::applySafety(fe.module, scfg, fe.sourceManager.get());
    Module a = fe.module.clone();
    Module b = fe.module.clone();
    CxpropOptions opts;
    opts.inlineFirst = true;
    CxpropReport ra = runCxprop(a, opts);
    CxpropReport rb = runCxprop(b, opts);
    EXPECT_EQ(moduleToString(a), moduleToString(b));
    EXPECT_EQ(ra.funcAnalyses, rb.funcAnalyses);
    EXPECT_EQ(ra.funcAnalysesSkipped, rb.funcAnalysesSkipped);
    EXPECT_EQ(ra.blockVisits, rb.blockVisits);
    EXPECT_EQ(ra.fixpointRounds, rb.fixpointRounds);
}

//---------------------------------------------------------------------
// Per-slot summary widening
//---------------------------------------------------------------------

/** Rounds one engine may take for a program whose climbing slots all
 *  change in the same rounds: a slot changes in at most 8 rounds
 *  before its type-bound jump (kTypeBoundAfter in cxprop.cpp) and
 *  kTypeBoundMaxChanges times after it; one quiet round ends it. */
constexpr uint32_t kOneSlotRounds = 8 + kTypeBoundMaxChanges + 1;

/** Compile, apply the safety stage, run cXprop; return its report. */
CxpropReport
safeCxprop(Module &m)
{
    safety::SafetyConfig scfg;
    safety::applySafety(m, scfg);
    return runCxprop(m);
}

TEST(CxpropWidening, BoundedCounterKeepsItsCheckRemoved)
{
    // `count` climbs one step per fixpoint round until the guard caps
    // it at 16. It must settle at [0,16] before its type-bound jump
    // would widen it to [0,255], so peek's bounds check still goes.
    // (The guard tests a local copy: a second load of `count` would
    // read the unrefined summary.)
    Module m = compile(
        "u8 ring[17];"
        "u8 count;"
        "void tick() {"
        "  u8 c = count;"
        "  if (c < 16) { count = (u8)(c + 1); }"
        "}"
        "u8 peek() { return ring[count]; }"
        "u8 main() { tick(); return peek(); }");
    CxpropReport rep = safeCxprop(m);
    const Function *peek = m.findFunc("peek");
    ASSERT_NE(peek, nullptr);
    EXPECT_EQ(checksIn(*peek), 0u);
    EXPECT_LE(rep.fixpointRounds,
              static_cast<uint32_t>(rep.rounds) * kOneSlotRounds);
}

TEST(CxpropWidening, UnboundedCounterConvergesWithinThePolicyBound)
{
    // Nothing bounds `count` but its type, so it climbs every round
    // until its type-bound jump; the fixpoint must then stop within
    // the policy's bound and keep peek's check, which is not provable.
    Module m = compile(
        "u8 ring[4];"
        "u16 count;"
        "u16 hits;"
        "void tick() { count = count + 1; hits = hits + 2; }"
        "u8 peek() { return ring[count]; }"
        "u8 main() { tick(); return peek(); }");
    CxpropReport rep = safeCxprop(m);
    const Function *peek = m.findFunc("peek");
    ASSERT_NE(peek, nullptr);
    EXPECT_GE(checksIn(*peek), 1u);
    EXPECT_GT(rep.fixpointRounds, static_cast<uint32_t>(rep.rounds));
    EXPECT_LE(rep.fixpointRounds,
              static_cast<uint32_t>(rep.rounds) * kOneSlotRounds);
}

/**
 * Why cXprop's non-convergence panic cannot fire: a fixpoint round
 * continues only if some summary slot changed in it, a slot changes
 * in at most 8 rounds before its type-bound jump, and after it
 * widenToType can change it at most kTypeBoundMaxChanges times. This
 * checks that last bound on random climbs from every kind of start
 * value, including values that only lose known bits, values outside
 * the slot's type, pointers and kind clashes, and checks that each
 * result still covers both operands.
 */
TEST(CxpropWidening, TypeBoundWideningChangesBoundedlyOften)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC(
        {{"t.tc", "u8 a; i8 b; u16 c; i16 d; u32 e; bool f; u8 g[4];"
                  "u8 main() { return 0; }"}},
        diags, sm);
    ASSERT_FALSE(diags.hasErrors()) << diags.dump();
    // Every integer width and signedness, plus an array type, which
    // has no scalar bounds and so widens to infinity.
    std::vector<TypeId> types;
    for (const auto &g : m.globals())
        types.push_back(g.type);
    ASSERT_EQ(types.size(), 7u);

    std::mt19937_64 rng(5);
    auto pick = [&](int64_t lo, int64_t hi) {
        return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
    };
    auto randomVal = [&](int64_t span) {
        switch (pick(0, 9)) {
          case 0: return AbsVal::bottom();
          case 1: return AbsVal::top();
          case 2: {
            AbsVal p = AbsVal::pointer(
                analysis::MemObj::global(static_cast<uint32_t>(pick(0, 1))),
                pick(-4, 4), pick(0, 1) != 0);
            p.offHi += pick(0, 4);
            return p;
          }
          case 3: case 4: case 5: {
            // A constant: full known bits, masked to a random width.
            AbsVal c = AbsVal::constant(pick(-span, span));
            c.knownMask &= pick(0, 1) ? 0xffull : ~0ull;
            c.knownVal &= c.knownMask;
            return c;
          }
          default: {
            int64_t lo = pick(-span, span);
            AbsVal r = AbsVal::range(lo, lo + pick(0, span));
            r.knownMask = static_cast<uint64_t>(pick(0, 1) ? 0xf0 : 0);
            r.knownVal = r.knownMask & static_cast<uint64_t>(lo);
            return r;
          }
        }
    };
    DomainConfig cfg;
    int worst = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        TypeId t = types[static_cast<size_t>(pick(0, 6))];
        // Narrow spans keep intervals still so only known bits move;
        // wide ones cross the type bounds.
        int64_t span = pick(0, 1) ? 3 : int64_t{1} << pick(1, 40);
        AbsVal v = randomVal(span);
        int changes = 0;
        for (int step = 0; step < 60; ++step) {
            AbsVal b = randomVal(span);
            AbsVal w = widenToType(v, b, m.types(), t);
            AbsVal j = join(v, b, cfg);
            if (w.kind == AbsVal::Int) {
                ASSERT_EQ(j.kind, AbsVal::Int);
                EXPECT_LE(w.lo, j.lo);
                EXPECT_GE(w.hi, j.hi);
            } else if (w.kind == AbsVal::Ptr) {
                ASSERT_EQ(j.kind, AbsVal::Ptr);
                EXPECT_LE(w.nonNull, j.nonNull);
                EXPECT_LE(w.exactObj, j.exactObj);
                if (w.exactObj) {
                    EXPECT_LE(w.offLo, j.offLo);
                    EXPECT_GE(w.offHi, j.offHi);
                }
            } else if (w.isBottom()) {
                EXPECT_TRUE(j.isBottom());
            }
            if (!(w == v))
                ++changes;
            v = w;
        }
        EXPECT_LE(changes, kTypeBoundMaxChanges) << "trial " << trial;
        worst = std::max(worst, changes);
    }
    // The climbs do reach the bound's territory, not just one step.
    EXPECT_GE(worst, 4);

    // Known-bits erosion on its own: an interval that already spans
    // its type cannot move, but each new constant could clear one
    // more known bit. The first change drops them all instead.
    for (TypeId t : types) {
        AbsVal v = clampToType(AbsVal::top(), m.types(), t, cfg);
        if (v.isTop())
            v = AbsVal::range(INT64_MIN / 4, INT64_MAX / 4);
        v.knownMask = ~0ull;
        v.knownVal = 0;
        int changes = 0;
        for (int bit = 0; bit < 62; ++bit) {
            int64_t c = int64_t{1} << bit;
            if (c > v.hi)
                break;
            AbsVal w = widenToType(v, AbsVal::constant(c), m.types(), t);
            if (!(w == v))
                ++changes;
            v = w;
        }
        EXPECT_LE(changes, kTypeBoundMaxChanges);
    }
}

//---------------------------------------------------------------------
// Inliner
//---------------------------------------------------------------------

TEST(Inliner, InlinesAndPreservesSemantics)
{
    const char *src =
        "u16 sq(u16 x) { return x * x; }"
        "u16 main() { u16 a = sq(5); u16 b = sq(6); return a + b; }";
    Module ref = compile(src);
    uint64_t expected = runMain(ref);
    Module m = compile(src);
    uint32_t n = inlineFunctions(m);
    EXPECT_GE(n, 2u);
    verifyOrDie(m, "inline");
    EXPECT_EQ(runMain(m), expected);
    EXPECT_EQ(m.findFunc("sq"), nullptr) << "fully inlined helper dies";
}

TEST(Inliner, RespectsNoInline)
{
    Module m = compile(
        "noinline u16 keep(u16 x) { return x + 1; }"
        "u16 main() { return keep(4); }");
    EXPECT_EQ(inlineFunctions(m), 0u);
    EXPECT_NE(m.findFunc("keep"), nullptr);
}

TEST(Inliner, SkipsRecursion)
{
    Module m = compile(
        "u16 f(u16 n) { if (n == 0) { return 1; } return n * f(n - 1); }"
        "u16 main() { return f(4); }");
    inlineFunctions(m);
    EXPECT_NE(m.findFunc("f"), nullptr);
    EXPECT_EQ(runMain(m), 24u);
}

TEST(Inliner, HandlesControlFlowInCallee)
{
    const char *src =
        "u16 clamp(u16 v) { if (v > 10) { return 10; } return v; }"
        "u16 main() { return clamp(3) + clamp(99); }";
    Module ref = compile(src);
    uint64_t expected = runMain(ref);
    Module m = compile(src);
    inlineFunctions(m);
    verifyOrDie(m, "inline");
    EXPECT_EQ(runMain(m), expected);
}

//---------------------------------------------------------------------
// Standalone passes
//---------------------------------------------------------------------

TEST(Passes, CopyPropRemovesMovChains)
{
    Module m = compile(
        "u16 main() { u16 a = 5; u16 b = a; u16 c = b; return c; }");
    Function &f = *m.findFunc("main");
    uint32_t n = localCopyProp(m, f);
    EXPECT_GT(n, 0u);
    removeDeadInstrs(m, f);
    EXPECT_EQ(runMain(m), 5u);
}

TEST(Passes, SimplifyCfgRemovesUnreachable)
{
    Module m = compile(
        "u16 main() { return 1; return 2; }");
    Function &f = *m.findFunc("main");
    size_t before = f.blocks.size();
    simplifyCfg(f);
    EXPECT_LE(f.blocks.size(), before);
    EXPECT_EQ(runMain(m), 1u);
}

TEST(Passes, AtomicOptimizationRemovesNested)
{
    Module m = compile(
        "u16 x;"
        "interrupt(TIMER0) void tick() { x++; }"
        "void main() { atomic { atomic { x = 2; } } }");
    analysis::CallGraph cg(m);
    analysis::PointsTo pts(m);
    analysis::ConcurrencyAnalysis conc(m, cg, pts);
    AtomicOptReport rep = optimizeAtomics(m, conc);
    EXPECT_GE(rep.nestedRemoved, 1u);
    // Still balanced: run it.
    Interp in(m);
    EXPECT_EQ(in.run("main").reason, StopReason::Returned);
}

TEST(Passes, AtomicsInsideHandlersRemoved)
{
    Module m = compile(
        "u16 x;"
        "interrupt(TIMER0) void tick() { atomic { x++; } }"
        "void main() { x = 0; }");
    analysis::CallGraph cg(m);
    analysis::PointsTo pts(m);
    analysis::ConcurrencyAnalysis conc(m, cg, pts);
    AtomicOptReport rep = optimizeAtomics(m, conc);
    EXPECT_GE(rep.handlerAtomicsRemoved, 1u);
    int atomicOps = 0;
    for (const auto &bb : m.findFunc("tick")->blocks) {
        for (const auto &in : bb.instrs) {
            if (in.op == Opcode::AtomicBegin ||
                in.op == Opcode::AtomicEnd)
                ++atomicOps;
        }
    }
    EXPECT_EQ(atomicOps, 0);
}

} // namespace
} // namespace stos
