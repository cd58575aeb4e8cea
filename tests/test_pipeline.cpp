/**
 * @file
 * End-to-end pipeline tests: every benchmark app builds under every
 * configuration, safe builds execute correctly on the simulator, the
 * paper's qualitative relationships hold (code-size ordering, check
 * elimination ordering, RAM collapse with FLIDs), and safety actually
 * catches the bugs the unsafe build lets through.
 */
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "safety/flid.h"
#include "safety/runtime.h"
#include "sim/machine.h"

namespace stos {
namespace {

using namespace stos::core;
using namespace stos::tinyos;

TEST(Pipeline, AllAppsBuildInBaseline)
{
    for (const auto &app : allApps()) {
        PipelineConfig cfg = configFor(ConfigId::Baseline, app.platform);
        BuildResult r = buildApp(app, cfg);
        EXPECT_GT(r.codeBytes, 200u) << app.name;
        EXPECT_LT(r.codeBytes, 60000u) << app.name;
    }
}

TEST(Pipeline, AllAppsBuildSafeOptimized)
{
    for (const auto &app : allApps()) {
        PipelineConfig cfg =
            configFor(ConfigId::SafeFlidInlineCxprop, app.platform);
        BuildResult r = buildApp(app, cfg);
        EXPECT_GT(r.safetyReport.checksInserted, 0u) << app.name;
    }
}

TEST(Pipeline, BlinkRunsAndBlinksUnsafe)
{
    const auto &app = appByName("BlinkTask");
    BuildResult r =
        buildApp(app, configFor(ConfigId::Baseline, app.platform));
    sim::Machine m(r.image, 1);
    m.boot();
    m.runUntilCycle(7'372'800);  // one simulated second
    EXPECT_FALSE(m.halted());
    EXPECT_FALSE(m.wedged());
    EXPECT_GT(m.devices().ledWrites(), 5u);
    EXPECT_LT(m.dutyCycle(), 0.20);
}

TEST(Pipeline, BlinkRunsAndBlinksSafe)
{
    const auto &app = appByName("BlinkTask");
    BuildResult r = buildApp(
        app, configFor(ConfigId::SafeFlidInlineCxprop, app.platform));
    sim::Machine m(r.image, 1);
    m.boot();
    m.runUntilCycle(7'372'800);
    EXPECT_FALSE(m.wedged()) << "no check should fire, flid="
                             << m.failedFlid();
    EXPECT_GT(m.devices().ledWrites(), 5u);
}

TEST(Pipeline, SafeAndUnsafeBlinkBehaveIdentically)
{
    const auto &app = appByName("BlinkTask");
    BuildResult unsafe =
        buildApp(app, configFor(ConfigId::Baseline, app.platform));
    BuildResult safe =
        buildApp(app, configFor(ConfigId::SafeFlid, app.platform));
    sim::Machine mu(unsafe.image, 1), ms(safe.image, 1);
    mu.boot();
    ms.boot();
    mu.runUntilCycle(3'000'000);
    ms.runUntilCycle(3'000'000);
    EXPECT_EQ(mu.devices().ledWrites(), ms.devices().ledWrites());
    EXPECT_EQ(mu.devices().ledState(), ms.devices().ledState());
}

TEST(Pipeline, VerboseCostsMoreRamThanFlid)
{
    const auto &app = appByName("SenseToRfm");
    BuildResult verbose = buildApp(
        app, configFor(ConfigId::SafeVerboseRam, app.platform));
    BuildResult flid =
        buildApp(app, configFor(ConfigId::SafeFlid, app.platform));
    EXPECT_GT(verbose.ramBytes, flid.ramBytes);
}

TEST(Pipeline, VerboseRomMovesStringsOutOfRam)
{
    const auto &app = appByName("SenseToRfm");
    BuildResult ram = buildApp(
        app, configFor(ConfigId::SafeVerboseRam, app.platform));
    BuildResult rom = buildApp(
        app, configFor(ConfigId::SafeVerboseRom, app.platform));
    EXPECT_LT(rom.ramBytes, ram.ramBytes);
    EXPECT_GT(rom.romDataBytes, ram.romDataBytes);
}

TEST(Pipeline, CxpropShrinksSafeCode)
{
    const auto &app = appByName("Surge");
    BuildResult plain =
        buildApp(app, configFor(ConfigId::SafeFlid, app.platform));
    BuildResult opt = buildApp(
        app, configFor(ConfigId::SafeFlidInlineCxprop, app.platform));
    EXPECT_LT(opt.codeBytes, plain.codeBytes);
    EXPECT_LE(opt.ramBytes, plain.ramBytes);
}

TEST(Pipeline, CheckEliminationOrdering)
{
    // Figure 2's qualitative result: inline+cXprop eliminates at
    // least as many checks as cXprop alone, which beats plain GCC.
    const auto &app = appByName("Oscilloscope");
    auto survivors = [&](CheckStrategy s) {
        return buildApp(app, configForStrategy(s, app.platform))
            .survivingChecks;
    };
    uint32_t gcc = survivors(CheckStrategy::GccOnly);
    uint32_t ccured = survivors(CheckStrategy::CcuredOpt);
    uint32_t cx = survivors(CheckStrategy::CcuredOptCxprop);
    uint32_t inl = survivors(CheckStrategy::CcuredOptInlineCxprop);
    EXPECT_LE(ccured, gcc);
    EXPECT_LE(cx, ccured);
    EXPECT_LE(inl, cx);
    EXPECT_GT(gcc, 0u);
}

TEST(Pipeline, SafetyCatchesOutOfBoundsWrite)
{
    // The defining behaviour: an off-by-one that silently corrupts a
    // neighbour in unsafe code traps with a FLID in the safe build.
    const char *buggy = R"TC(
        u8 buf[4];
        u8 victim;
        u8 idx;
        task void smash() {
            u8* p = buf;
            u8 i = 0;
            while (i <= idx) {     // idx reaches 4: off by one
                p[i] = 7;
                i = (u8)(i + 1);
            }
            if (idx < 4) { idx = (u8)(idx + 1); }
            stos_leds_set(victim);   // keep `victim` linked
            post smash;
        }
        interrupt(TIMER0) void on_t() { post smash; }
        void main() {
            stos_timer0_start(64);
            stos_run_scheduler();
        }
    )TC";
    PipelineConfig safeCfg = configFor(ConfigId::SafeFlid, "Mica2");
    BuildResult safe = buildSource("buggy", buggy, safeCfg);
    sim::Machine ms(safe.image, 1);
    ms.boot();
    ms.runUntilCycle(4'000'000);
    EXPECT_TRUE(ms.wedged()) << "bounds check should have fired";
    EXPECT_NE(ms.failedFlid(), 0u);
    // The FLID decodes to a real source location.
    std::string msg = safety::decodeFlid(safe.flidTable, ms.failedFlid());
    EXPECT_NE(msg.find("buggy.tc"), std::string::npos) << msg;

    PipelineConfig unsafeCfg = configFor(ConfigId::Baseline, "Mica2");
    BuildResult un = buildSource("buggy", buggy, unsafeCfg);
    sim::Machine mu(un.image, 1);
    mu.boot();
    mu.runUntilCycle(4'000'000);
    EXPECT_FALSE(mu.wedged()) << "unsafe build corrupts silently";
    EXPECT_EQ(mu.readGlobal("victim", 1), 7u)
        << "neighbour should have been corrupted";
}

TEST(Pipeline, RadioAppsExchangePackets)
{
    const auto &app = appByName("RfmToLeds");
    BuildResult rx =
        buildApp(app, configFor(ConfigId::SafeFlid, app.platform));
    const auto &sender = appByName("CntToLedsAndRfm");
    BuildResult tx =
        buildApp(sender, configFor(ConfigId::Baseline, app.platform));
    sim::Network net;
    net.addMote(rx.image, 1);
    net.addMote(tx.image, 2);
    net.run(20'000'000);
    EXPECT_GT(net.mote(1).devices().packetsSent(), 3u);
    EXPECT_GT(net.mote(0).devices().packetsReceived(), 3u);
    EXPECT_GT(net.mote(0).devices().ledWrites(), 0u);
    EXPECT_FALSE(net.mote(0).wedged());
}

TEST(Pipeline, RuntimeFootprintCollapsesWhenTrimmed)
{
    // §2.3: naive runtime ~1.6KB RAM vs trimmed ~2 bytes.
    const char *minimal = R"TC(
        task void nothing() { }
        interrupt(TIMER0) void on_t() { post nothing; }
        void main() { stos_timer0_start(4096); stos_run_scheduler(); }
    )TC";
    PipelineConfig naive = configFor(ConfigId::SafeFlid, "Mica2");
    naive.safety.naiveRuntime = true;
    PipelineConfig trimmed = configFor(ConfigId::SafeFlidInlineCxprop,
                                       "Mica2");
    BuildResult big = buildSource("minimal", minimal, naive);
    BuildResult small = buildSource("minimal", minimal, trimmed);
    EXPECT_GT(big.ramBytes, 1000u);
    EXPECT_LT(small.ramBytes, big.ramBytes / 4);
    EXPECT_LT(small.codeBytes, big.codeBytes);
}

TEST(Pipeline, DutyCycleIsSane)
{
    Experiment exp;
    exp.options().seconds = 0.5;
    exp.addApp(appByName("BlinkTask")).addConfig(ConfigId::Baseline);
    ExperimentReport rep = exp.run();
    ASSERT_TRUE(rep.allOk());
    double duty = rep.sims.at(0, 0).outcome.dutyCycle;
    EXPECT_GT(duty, 0.0);
    EXPECT_LT(duty, 0.5) << "Blink should sleep most of the time";
}

} // namespace
} // namespace stos
