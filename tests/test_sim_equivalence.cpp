/**
 * @file
 * Exhaustive equivalence suite for the two interpreter cores: the
 * legacy reference interpreter and the direct-threaded
 * superinstruction core must be indistinguishable on every observable
 * counter — cycles, awake cycles, instructions executed, failed FLID,
 * UART log, LED writes, trap log, and radio/ADC statistics — across
 * every Figure-3 build configuration and every multi-mote example
 * network, under lockstep and lookahead network scheduling.
 */
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/pipeline.h"
#include "ir/interp.h"
#include "sim/decoded.h"
#include "sim/machine.h"
#include "sim/stats.h"
#include "support/devmap.h"

namespace stos {
namespace {

using namespace stos::core;
using namespace stos::sim;

/** ~0.27 simulated seconds at 7.37 MHz; long enough for timers,
 *  radio traffic, and several scheduler wakeups in every app. */
constexpr uint64_t kCycles = 2'000'000;

using MoteStats = MoteSnapshot;

MoteStats
statsOf(const Machine &m)
{
    return snapshotOf(m);
}

void
expectSame(const MoteStats &a, const MoteStats &b,
           const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.awakeCycles, b.awakeCycles) << label;
    EXPECT_EQ(a.instructions, b.instructions) << label;
    EXPECT_EQ(a.halted, b.halted) << label;
    EXPECT_EQ(a.wedged, b.wedged) << label;
    EXPECT_EQ(a.failedFlid, b.failedFlid) << label;
    EXPECT_EQ(a.uartLog, b.uartLog) << label;
    EXPECT_EQ(a.ledWrites, b.ledWrites) << label;
    EXPECT_EQ(a.packetsSent, b.packetsSent) << label;
    EXPECT_EQ(a.packetsReceived, b.packetsReceived) << label;
    EXPECT_EQ(a.adcConversions, b.adcConversions) << label;
    EXPECT_EQ(a.traps, b.traps) << label;
    EXPECT_EQ(a.reboots, b.reboots) << label;
    EXPECT_EQ(a.crashes, b.crashes) << label;
    EXPECT_EQ(a.downCycles, b.downCycles) << label;
    EXPECT_EQ(a.wedgedCycles, b.wedgedCycles) << label;
    EXPECT_EQ(a.trapLog.size(), b.trapLog.size()) << label;
    EXPECT_EQ(a.packetsDropped, b.packetsDropped) << label;
    EXPECT_EQ(a.packetsCorrupted, b.packetsCorrupted) << label;
    EXPECT_EQ(a.packetsDuplicated, b.packetsDuplicated) << label;
    EXPECT_TRUE(a == b) << label << " (full snapshot)";
}

/** The full matrix — every corpus app under Baseline, the Figure-3
 *  columns, and the CFI column family (whose label checks and shadow
 *  stack must also stay byte-identical across cores) — built once and
 *  shared by the tests below. */
const BuildReport &
matrix()
{
    static const BuildReport rep = [] {
        Experiment exp;
        exp.options().simulate = false;
        exp.addAllApps();
        exp.addConfig(ConfigId::Baseline);
        exp.addConfigs(figure3Configs());
        exp.addConfigs(cfiConfigs());
        return exp.run().builds;
    }();
    return rep;
}

TEST(SimEquivalence, EveryFigure3CellMatchesOnASingleMote)
{
    const BuildReport &rep = matrix();
    ASSERT_TRUE(rep.allOk());
    for (const BuildRecord &r : rep.records) {
        Machine legacy(r.result->image, 1, ExecMode::Legacy);
        Machine thr(r.result->image, 1, ExecMode::Threaded);
        legacy.boot();
        thr.boot();
        legacy.runUntilCycle(kCycles);
        thr.runUntilCycle(kCycles);
        expectSame(statsOf(legacy), statsOf(thr),
                   r.app + " / " + r.config + " [threaded]");
    }
}

/** Simulate `r` in its network context under the given scheduler and
 *  return the stats of every mote. */
std::vector<MoteStats>
runNetwork(const BuildRecord &r, const BuildReport &rep,
           const NetworkOptions &opts, uint64_t cycles)
{
    Network net(opts);
    net.addMote(r.result->image, 1);
    uint8_t nextId = 2;
    for (const auto &cname : r.companions) {
        const BuildRecord *comp =
            rep.find(cname, configName(ConfigId::Baseline));
        EXPECT_NE(comp, nullptr) << cname;
        net.addMote(comp->result->image, nextId++);
    }
    net.run(cycles);
    std::vector<MoteStats> out;
    for (size_t i = 0; i < net.size(); ++i)
        out.push_back(statsOf(net.mote(i)));
    return out;
}

TEST(SimEquivalence, EveryMultiMoteNetworkMatchesAcrossSchedulers)
{
    const BuildReport &rep = matrix();
    ASSERT_TRUE(rep.allOk());
    size_t networks = 0;
    for (const BuildRecord &r : rep.records) {
        if (r.companions.empty())
            continue;
        ++networks;
        // Legacy core, fixed-quantum lockstep: the reference.
        auto legacy = runNetwork(
            r, rep, {ExecMode::Legacy, /*lookahead=*/false}, kCycles);
        // Threaded core under both schedulers.
        auto thrLockstep = runNetwork(
            r, rep, {ExecMode::Threaded, /*lookahead=*/false}, kCycles);
        auto thrLookahead = runNetwork(
            r, rep, {ExecMode::Threaded, /*lookahead=*/true}, kCycles);
        ASSERT_EQ(legacy.size(), thrLockstep.size());
        ASSERT_EQ(legacy.size(), thrLookahead.size());
        for (size_t i = 0; i < legacy.size(); ++i) {
            std::string label = r.app + " / " + r.config + " / mote " +
                                std::to_string(i);
            expectSame(legacy[i], thrLockstep[i],
                       label + " [threaded lockstep]");
            expectSame(legacy[i], thrLookahead[i],
                       label + " [threaded lookahead]");
        }
    }
    EXPECT_GE(networks, 8u)
        << "the registry should provide several multi-mote contexts";
}

TEST(SimEquivalence, SharedDecodeMatchesPerMoteDecode)
{
    const auto &app = tinyos::appByName("CntToLedsAndRfm");
    BuildResult build =
        buildApp(app, configFor(ConfigId::SafeFlid, app.platform));
    auto decode = std::make_shared<const DecodedProgram>(build.image);

    Network shared({ExecMode::Threaded, true});
    shared.addMote(decode, 1);
    shared.addMote(decode, 2);
    shared.run(kCycles);

    Network owned({ExecMode::Threaded, true});
    owned.addMote(build.image, 1);
    owned.addMote(build.image, 2);
    owned.run(kCycles);

    for (size_t i = 0; i < 2; ++i)
        expectSame(statsOf(shared.mote(i)), statsOf(owned.mote(i)),
                   "mote " + std::to_string(i));
}

TEST(SimEquivalence, FailingProgramWedgesIdenticallyWithSameFlid)
{
    // An out-of-bounds store trips a dynamic check; the machine must
    // reach the failure stub and wedge with the same FLID on both
    // cores (the fail path exercises Call-to-stub resolution, Lea of
    // the check tag, and the wedge self-loop detection).
    const char *kBad =
        "u8 buf[4];"
        "void main() {"
        "  u16 i = 0;"
        "  while (i < 10) { buf[i] = 1; i++; }"
        "}";
    BuildResult build = buildSource(
        "oob", kBad, configFor(ConfigId::SafeFlid, "Mica2"));
    Machine legacy(build.image, 1, ExecMode::Legacy);
    Machine thr(build.image, 1, ExecMode::Threaded);
    legacy.boot();
    thr.boot();
    legacy.runUntilCycle(500'000);
    thr.runUntilCycle(500'000);
    EXPECT_TRUE(thr.wedged());
    EXPECT_NE(thr.failedFlid(), 0u);
    expectSame(statsOf(legacy), statsOf(thr), "oob [threaded]");
}

/**
 * Width-sweep arithmetic equivalence: division, remainder, and shifts
 * over every integer width and the nasty operand corners — divisor
 * zero, INT_MIN / -1, shift counts at and past the operand width —
 * must produce identical UART streams from the IR interpreter, the
 * legacy core, and the threaded core, in unsafe, safe, and
 * safe+optimized builds. This pins the unified total-division
 * semantics (x/0 == 0, x%0 == 0, INT_MIN/-1 wraps) across all three
 * engines and the constant folder.
 */
const char *kArithSweep = R"TC(
i16 sa[6] = {-32768, -32767, -7, -1, 0, 32767};
i16 sb[6] = {-1, 0, 1, -7, 3, -32768};
u16 ua[5] = {0, 1, 7, 4660, 65535};
u16 ub[5] = {0, 1, 2, 10, 65535};
i32 wa[6] = {-2147483648, -2147483647, -513, -1, 0, 2147483647};
i32 wb[6] = {-1, 0, 1, -513, 3, -2147483648};
u32 va[5] = {0, 1, 513, 65537, 4294967295};
u32 vb[5] = {0, 1, 2, 65537, 4294967295};
u8 sh[9] = {0, 1, 7, 15, 16, 31, 32, 63, 70};
void put32(u32 v) {
    stos_uart_put_u16((u16)(v >> 16));
    stos_uart_put_u16((u16)v);
}
u16 main() {
    u8 i = 0;
    u8 j = 0;
    while (i < 6) {
        j = 0;
        while (j < 6) {
            stos_uart_put_u16((u16)(sa[i] / sb[j]));
            stos_uart_put_u16((u16)(sa[i] % sb[j]));
            put32((u32)(wa[i] / wb[j]));
            put32((u32)(wa[i] % wb[j]));
            j = (u8)(j + 1);
        }
        i = (u8)(i + 1);
    }
    i = 0;
    while (i < 5) {
        j = 0;
        while (j < 5) {
            stos_uart_put_u16((u16)(ua[i] / ub[j]));
            stos_uart_put_u16((u16)(ua[i] % ub[j]));
            put32(va[i] / vb[j]);
            put32(va[i] % vb[j]);
            j = (u8)(j + 1);
        }
        i = (u8)(i + 1);
    }
    i = 0;
    while (i < 6) {
        j = 0;
        while (j < 9) {
            stos_uart_put_u16((u16)(sa[i] << sh[j]));
            stos_uart_put_u16((u16)(sa[i] >> sh[j]));
            put32((u32)(wa[i] << sh[j]));
            put32((u32)(wa[i] >> sh[j]));
            if (i < 5) {
                stos_uart_put_u16((u16)(ua[i] << sh[j]));
                stos_uart_put_u16((u16)(ua[i] >> sh[j]));
                put32(va[i] << sh[j]);
                put32(va[i] >> sh[j]);
            }
            j = (u8)(j + 1);
        }
        i = (u8)(i + 1);
    }
    return 0;
}
)TC";

TEST(SimEquivalence, WidthSweepArithmeticAgreesAcrossAllEngines)
{
    for (ConfigId cfg : {ConfigId::Baseline, ConfigId::SafeFlid,
                         ConfigId::SafeFlidInlineCxprop}) {
        FullBuild build = buildSource("arith_sweep", kArithSweep,
                                      configFor(cfg, "Mica2"));
        std::string label = std::string("arith_sweep / ") +
                            configName(cfg);

        ir::Module m = build.module.clone();
        ir::HwBus bus;
        ir::InterpOptions iopts;
        iopts.stepLimit = 50'000'000;
        ir::Interp interp(m, &bus, iopts);
        auto res = interp.run("main");
        ASSERT_EQ(res.reason, ir::StopReason::Returned)
            << label << ": " << res.detail;
        std::string interpUart;
        for (const auto &w : bus.writeLog())
            if (w.addr == dev::kRegUartData)
                interpUart.push_back(static_cast<char>(w.value));

        Machine legacy(build.image, 1, ExecMode::Legacy);
        Machine thr(build.image, 1, ExecMode::Threaded);
        legacy.boot();
        thr.boot();
        legacy.runUntilCycle(50'000'000);
        thr.runUntilCycle(50'000'000);
        ASSERT_TRUE(legacy.halted()) << label;
        ASSERT_FALSE(legacy.wedged()) << label;
        expectSame(statsOf(legacy), statsOf(thr),
                   label + " [threaded]");
        EXPECT_EQ(interpUart, legacy.devices().uartLog()) << label;
        EXPECT_FALSE(interpUart.empty()) << label;
    }
}

/** The minimized div-by-zero divergence the fuzzer's first audit
 *  found: interp used to trap where both machine cores returned 0. */
TEST(SimEquivalence, DivByZeroProducesZeroOnEveryEngine)
{
    const char *kDiv0 =
        "u16 z;"
        "u16 main() {"
        "  stos_uart_put_u16((u16)(123 / z));"
        "  stos_uart_put_u16((u16)(123 % z));"
        "  return 0;"
        "}";
    FullBuild build = buildSource(
        "div0", kDiv0, configFor(ConfigId::Baseline, "Mica2"));

    ir::Module m = build.module.clone();
    ir::HwBus bus;
    ir::Interp interp(m, &bus);
    auto r = interp.run("main");
    ASSERT_EQ(r.reason, ir::StopReason::Returned) << r.detail;
    std::string interpUart;
    for (const auto &w : bus.writeLog())
        if (w.addr == dev::kRegUartData)
            interpUart.push_back(static_cast<char>(w.value));

    Machine legacy(build.image, 1, ExecMode::Legacy);
    Machine thr(build.image, 1, ExecMode::Threaded);
    legacy.boot();
    thr.boot();
    legacy.runUntilCycle(1'000'000);
    thr.runUntilCycle(1'000'000);
    ASSERT_TRUE(legacy.halted());
    expectSame(statsOf(legacy), statsOf(thr), "div0 [threaded]");
    EXPECT_EQ(interpUart, legacy.devices().uartLog());
}

TEST(SimEquivalence, LookaheadNetworkClampsToRequestedCycles)
{
    // The lookahead scheduler must land every mote exactly on the
    // requested cycle, including durations that are not multiples of
    // any window size, and keep doing so across consecutive runs.
    const auto &app = tinyos::appByName("CntToLedsAndRfm");
    BuildResult build =
        buildApp(app, configFor(ConfigId::Baseline, app.platform));
    Network net({ExecMode::Threaded, true});
    net.addMote(build.image, 1);
    net.addMote(build.image, 2);
    net.addMote(build.image, 3);
    uint64_t n = 123'457;  // prime-ish: no window divides it
    net.run(n);
    for (size_t i = 0; i < net.size(); ++i)
        EXPECT_EQ(net.mote(i).cycles(), n);
    net.run(100);
    for (size_t i = 0; i < net.size(); ++i)
        EXPECT_EQ(net.mote(i).cycles(), n + 100);
}

} // namespace
} // namespace stos
