/**
 * @file
 * Control-flow integrity suite (src/cfi/ + the backend shadow stack).
 * Covers: label-class computation and the SafetyReport counters, the
 * CFI column family (distinct names, distinct stage fingerprints, the
 * CfiOnly isolation column, stage sharing across cfi_overhead's
 * columns), behaviour transparency on clean apps
 * (identical uart output with and without CFI, byte-identical
 * counters on both interpreter cores), IR-interpreter agreement on
 * the forward-edge check, and the attack regression suite: corrupted
 * function pointers (PtrOverwrite) and smashed return linkage
 * (RetSmash) must trap with the distinguishable CFI trap kinds under
 * every CFI column — on both cores, byte-identically — and must
 * demonstrably misbehave (wedge or silent corruption) under Baseline.
 */
#include <gtest/gtest.h>

#include <set>

#include "core/experiment.h"
#include "core/pipeline.h"
#include "ir/interp.h"
#include "ir/printer.h"
#include "sim/fault.h"
#include "sim/machine.h"
#include "sim/stats.h"
#include "support/devmap.h"
#include "tinyos/tinyos.h"

namespace stos {
namespace {

using namespace stos::core;
using namespace stos::sim;

constexpr uint64_t kCycles = 2'000'000;

void
expectSame(const MoteSnapshot &a, const MoteSnapshot &b,
           const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.instructions, b.instructions) << label;
    EXPECT_EQ(a.traps, b.traps) << label;
    EXPECT_EQ(a.cfiTraps, b.cfiTraps) << label;
    EXPECT_EQ(a.uartLog, b.uartLog) << label;
    EXPECT_TRUE(a == b) << label << " (full snapshot)";
}

/** Build one attack app under one column. */
FullBuild
buildAttack(const std::string &name, ConfigId cfg)
{
    const auto &app = tinyos::attackAppByName(name);
    return buildApp(app, configFor(cfg, app.platform));
}

/** Run `img` on one core with the given fault events to kCycles. */
MoteSnapshot
runWithFaults(const backend::MProgram &img, ExecMode mode,
              const std::vector<FaultEvent> &events)
{
    Machine m(img, 1, mode);
    m.boot();
    m.setFaultEvents(events);
    m.runUntilCycle(kCycles);
    return snapshotOf(m);
}

//---------------------------------------------------------------------
// Column family and pass accounting
//---------------------------------------------------------------------

TEST(CfiColumns, FamilyIsDistinctAndFingerprintedSeparately)
{
    ASSERT_EQ(cfiConfigs().size(), 3u);
    auto columnKey = [](ConfigId id) {
        PipelineConfig cfg = configFor(id, "Mica2");
        return safetyFingerprint(cfg) + "|" + optFingerprint(cfg) +
               "|" + backendFingerprint(cfg);
    };
    std::set<std::string> names, keys, safetyPrints;
    for (ConfigId id : cfiConfigs()) {
        names.insert(configName(id));
        keys.insert(columnKey(id));
        safetyPrints.insert(safetyFingerprint(configFor(id, "Mica2")));
    }
    EXPECT_EQ(names.size(), 3u);
    // The full stage key must be distinct per column (SafeFlidCfi and
    // SafeFlidInlineCxpropCfi deliberately share a safety fingerprint
    // — one safety run serves both — and diverge at the opt stage).
    EXPECT_EQ(keys.size(), 3u)
        << "every CFI column must key the StageCache separately";
    // And no CFI column collides with a non-CFI column: the cfi bit
    // is part of the safety fingerprint.
    for (ConfigId id : {ConfigId::Baseline, ConfigId::SafeFlid,
                        ConfigId::SafeFlidInlineCxprop}) {
        EXPECT_EQ(keys.count(columnKey(id)), 0u) << configName(id);
        EXPECT_EQ(safetyPrints.count(
                      safetyFingerprint(configFor(id, "Mica2"))),
                  0u)
            << configName(id);
    }
    // CfiOnly isolates the control-flow checks from the memory checks.
    EXPECT_FALSE(configFor(ConfigId::CfiOnly, "Mica2").safety
                     .memoryChecks);
    EXPECT_TRUE(configFor(ConfigId::CfiOnly, "Mica2").safety.cfi);
}

TEST(CfiColumns, OverheadMatrixSharesOneSafetyRunPerFingerprint)
{
    // cfi_overhead's six columns over the whole corpus, build only.
    // They span 4 safety fingerprints per app (unsafe, Flid, Flid+CFI,
    // CFI-only): each inline+cXprop column reuses its FLID twin's
    // safety run. Every column is a distinct opt+backend chain.
    Experiment exp;
    exp.options().simulate = false;
    exp.addAllApps();
    exp.addConfigs({ConfigId::Baseline, ConfigId::SafeFlid,
                    ConfigId::SafeFlidCfi, ConfigId::SafeFlidInlineCxprop,
                    ConfigId::SafeFlidInlineCxpropCfi, ConfigId::CfiOnly});
    BuildReport rep = exp.run().builds;
    ASSERT_TRUE(rep.allOk());
    const size_t apps = rep.numApps, cells = rep.records.size();
    ASSERT_EQ(cells, 6 * apps);
    EXPECT_EQ(rep.stages[Stage::Safety].runs, 4 * apps);
    EXPECT_EQ(rep.stages[Stage::Safety].reuses, 2 * apps);
    EXPECT_EQ(rep.stages[Stage::Opt].runs, cells);
    EXPECT_EQ(rep.stages[Stage::Opt].reuses, 0u);
    EXPECT_EQ(rep.stages[Stage::Backend].runs, cells);
}

TEST(CfiPass, LabelsChecksAndReturnSitesAreReported)
{
    FullBuild b =
        buildAttack("AttackFnptrDispatch", ConfigId::SafeFlidCfi);
    const auto &rep = b.safetyReport;
    EXPECT_GE(rep.cfiClasses, 1u);
    EXPECT_GE(rep.cfiForwardChecks, 1u)
        << "the dispatch call must carry a forward-edge check";
    EXPECT_GE(rep.cfiReturnSites, 2u);
    // The ROM label table must survive into the final module.
    EXPECT_NE(ir::moduleToString(b.module).find("__cfi_labels"),
              std::string::npos);

    FullBuild plain =
        buildAttack("AttackFnptrDispatch", ConfigId::SafeFlid);
    EXPECT_EQ(plain.safetyReport.cfiClasses, 0u);
    EXPECT_EQ(plain.safetyReport.cfiForwardChecks, 0u);
    EXPECT_EQ(ir::moduleToString(plain.module).find("__cfi_labels"),
              std::string::npos);
}

TEST(CfiPass, CfiColumnsCostCodeSize)
{
    // The shadow pushes and label checks must be priced by the cost
    // model: a CFI build of the same app is strictly larger.
    BuildResult base =
        buildAttack("AttackRetChain", ConfigId::SafeFlid);
    BuildResult cfi =
        buildAttack("AttackRetChain", ConfigId::SafeFlidCfi);
    EXPECT_GT(cfi.codeBytes, base.codeBytes);
}

//---------------------------------------------------------------------
// Behaviour transparency on clean programs
//---------------------------------------------------------------------

TEST(CfiTransparency, CleanAppsRunIdenticallyUnderEveryCfiColumn)
{
    // A full-featured corpus app (timers, radio, tasks): CFI must not
    // change observable behaviour, must not trap, and both cores must
    // stay byte-identical.
    const auto &app = tinyos::appByName("CntToLedsAndRfm");
    BuildResult base =
        buildApp(app, configFor(ConfigId::Baseline, app.platform));
    Machine ref(base.image, 1, ExecMode::Threaded);
    ref.boot();
    ref.runUntilCycle(kCycles);

    for (ConfigId id : cfiConfigs()) {
        BuildResult b = buildApp(app, configFor(id, app.platform));
        Machine legacy(b.image, 1, ExecMode::Legacy);
        Machine thr(b.image, 1, ExecMode::Threaded);
        legacy.boot();
        thr.boot();
        legacy.runUntilCycle(kCycles);
        thr.runUntilCycle(kCycles);
        std::string label = configName(id);
        EXPECT_EQ(thr.traps(), 0u) << label;
        EXPECT_EQ(thr.cfiTraps(), 0u) << label;
        EXPECT_FALSE(thr.wedged()) << label;
        expectSame(snapshotOf(legacy), snapshotOf(thr), label);
        // Same externally visible behaviour as the unsafe baseline
        // (checks only add cycles, never change the uart stream).
        EXPECT_EQ(thr.devices().uartLog(), ref.devices().uartLog())
            << label;
    }
}

TEST(CfiTransparency, InterpreterAgreesOnForwardCheckedDispatch)
{
    // Bounded fnptr dispatch: the IR interpreter evaluates
    // chk_cfi_label with the same pass/fail semantics the machine
    // cores lower it to, so all three engines print the same stream.
    const char *kBounded = R"TC(
fnptr handler;
u16 acc;
void h1() { acc = (u16)(acc + 1); }
void h2() { acc = (u16)(acc + 7); }
u16 main() {
    u8 i = 0;
    while (i < 40) {
        if ((i & 1) == 0) { handler = h1; }
        else { handler = h2; }
        fnptr f = handler;
        f();
        stos_uart_put_u16(acc);
        i = (u8)(i + 1);
    }
    return 0;
}
)TC";
    for (ConfigId id : cfiConfigs()) {
        FullBuild b = buildSource("bounded_dispatch", kBounded,
                                  configFor(id, "Mica2"));
        std::string label = configName(id);

        ir::Module m = b.module.clone();
        ir::HwBus bus;
        ir::Interp interp(m, &bus);
        auto res = interp.run("main");
        ASSERT_EQ(res.reason, ir::StopReason::Returned)
            << label << ": " << res.detail;
        std::string interpUart;
        for (const auto &w : bus.writeLog())
            if (w.addr == dev::kRegUartData)
                interpUart.push_back(static_cast<char>(w.value));

        Machine legacy(b.image, 1, ExecMode::Legacy);
        Machine thr(b.image, 1, ExecMode::Threaded);
        legacy.boot();
        thr.boot();
        legacy.runUntilCycle(kCycles);
        thr.runUntilCycle(kCycles);
        ASSERT_TRUE(legacy.halted()) << label;
        EXPECT_EQ(legacy.traps(), 0u) << label;
        expectSame(snapshotOf(legacy), snapshotOf(thr), label);
        EXPECT_EQ(interpUart, legacy.devices().uartLog()) << label;
        EXPECT_FALSE(interpUart.empty()) << label;
    }
}

//---------------------------------------------------------------------
// Attack suite: corrupted function pointers
//---------------------------------------------------------------------

std::vector<FaultEvent>
ptrOverwriteAt(uint64_t at, uint64_t value)
{
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::PtrOverwrite;
    e.value = value;
    e.targetGlobal = "handler";
    return {e};
}

TEST(CfiAttack, CorruptedFnptrTrapsWithForwardKindUnderEveryCfiColumn)
{
    // 0xEE is far outside the function-id range: the label check's
    // bounds test fires. value 1 is a valid runtime id whose label
    // cannot match the dispatch class (id 1 is a runtime function,
    // never address-taken): the label comparison fires. Both must
    // trap, with kind 1, identically on both cores.
    for (ConfigId id : cfiConfigs()) {
        for (uint64_t bad : {uint64_t{0xEE}, uint64_t{1}}) {
            BuildResult b = buildAttack("AttackFnptrDispatch", id);
            auto events = ptrOverwriteAt(kCycles / 4, bad);
            MoteSnapshot legacy =
                runWithFaults(b.image, ExecMode::Legacy, events);
            MoteSnapshot thr =
                runWithFaults(b.image, ExecMode::Threaded, events);
            std::string label = std::string(configName(id)) +
                                " / val=" + std::to_string(bad);
            EXPECT_EQ(thr.cfiTraps, 1u) << label;
            EXPECT_EQ(thr.traps, 1u) << label;
            EXPECT_TRUE(thr.wedged) << label;
            ASSERT_FALSE(thr.trapLog.empty()) << label;
            EXPECT_EQ(thr.trapLog.front().kind, 1u)
                << label << ": forward CFI traps must be kind 1";
            EXPECT_EQ(thr.failedFlid, thr.trapLog.front().flid)
                << label;
            expectSame(legacy, thr, label);
        }
    }
}

TEST(CfiAttack, CorruptedFnptrMisbehavesSilentlyUnderBaseline)
{
    BuildResult b =
        buildAttack("AttackFnptrDispatch", ConfigId::Baseline);
    MoteSnapshot clean =
        runWithFaults(b.image, ExecMode::Threaded, {});
    MoteSnapshot attacked = runWithFaults(
        b.image, ExecMode::Threaded, ptrOverwriteAt(kCycles / 4, 0xEE));
    // No CFI machinery: nothing traps, the mote silently wedges (or
    // corrupts) instead of failing loudly.
    EXPECT_EQ(attacked.traps, 0u);
    EXPECT_EQ(attacked.cfiTraps, 0u);
    EXPECT_TRUE(attacked.wedged || !(attacked == clean))
        << "the attack must visibly derail the baseline build";
    EXPECT_FALSE(clean.wedged);
}

//---------------------------------------------------------------------
// Attack suite: smashed return linkage
//---------------------------------------------------------------------

std::vector<FaultEvent>
retSmashes(std::initializer_list<uint64_t> ats, uint64_t value)
{
    std::vector<FaultEvent> events;
    for (uint64_t at : ats) {
        FaultEvent e;
        e.at = at;
        e.kind = FaultKind::RetSmash;
        e.value = value;
        events.push_back(e);
    }
    return events;
}

TEST(CfiAttack, SmashedReturnTrapsWithReturnKindUnderEveryCfiColumn)
{
    for (ConfigId id : cfiConfigs()) {
        BuildResult b = buildAttack("AttackRetChain", id);
        // Three smashes spread over the run: AttackRetChain sits at
        // call depth >= 2 for almost every cycle, so the first one to
        // land below a live caller frame traps at the next return.
        auto events = retSmashes(
            {kCycles / 4, kCycles / 2, 3 * kCycles / 4}, 5);
        MoteSnapshot legacy =
            runWithFaults(b.image, ExecMode::Legacy, events);
        MoteSnapshot thr =
            runWithFaults(b.image, ExecMode::Threaded, events);
        std::string label = configName(id);
        EXPECT_GE(thr.cfiTraps, 1u) << label;
        EXPECT_TRUE(thr.wedged) << label;
        ASSERT_FALSE(thr.trapLog.empty()) << label;
        EXPECT_EQ(thr.trapLog.front().kind, 2u)
            << label << ": return CFI traps must be kind 2";
        expectSame(legacy, thr, label);
    }
}

TEST(CfiAttack, SmashedReturnMisbehavesSilentlyUnderBaseline)
{
    BuildResult b = buildAttack("AttackRetChain", ConfigId::Baseline);
    MoteSnapshot clean =
        runWithFaults(b.image, ExecMode::Threaded, {});
    MoteSnapshot attacked = runWithFaults(
        b.image, ExecMode::Threaded,
        retSmashes({kCycles / 4, kCycles / 2, 3 * kCycles / 4}, 5));
    EXPECT_EQ(attacked.cfiTraps, 0u);
    EXPECT_TRUE(attacked.wedged || attacked.halted ||
                !(attacked == clean))
        << "the smash must visibly derail the baseline build";
    EXPECT_FALSE(clean.wedged);
}

//---------------------------------------------------------------------
// Recovery and trap-log interaction
//---------------------------------------------------------------------

TEST(CfiAttack, CfiTrapKindSurvivesRebootOnTrap)
{
    // Under the reboot-on-trap policy a CFI trap must reboot the mote
    // like any safety trap, and the persistent bounded trap log must
    // keep the CFI kind across reboots, on both cores identically.
    BuildResult b =
        buildAttack("AttackFnptrDispatch", ConfigId::SafeFlidCfi);
    auto events = ptrOverwriteAt(kCycles / 4, 0xEE);
    auto run = [&](ExecMode mode) {
        Machine m(b.image, 1, mode);
        m.setRecoveryPolicy(RecoveryPolicy::RebootOnTrap);
        m.boot();
        m.setFaultEvents(events);
        m.runUntilCycle(kCycles);
        return snapshotOf(m);
    };
    MoteSnapshot legacy = run(ExecMode::Legacy);
    MoteSnapshot thr = run(ExecMode::Threaded);
    EXPECT_FALSE(thr.wedged);
    EXPECT_EQ(thr.cfiTraps, 1u)
        << "reboot clears the corrupted cell; exactly one trap";
    EXPECT_EQ(thr.reboots, 1u);
    ASSERT_FALSE(thr.trapLog.empty());
    EXPECT_EQ(thr.trapLog.front().kind, 1u);
    expectSame(legacy, thr, "reboot-on-cfi-trap");
}

} // namespace
} // namespace stos
