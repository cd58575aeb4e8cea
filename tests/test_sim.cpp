/**
 * @file
 * Simulator tests: machine execution, device models, interrupt
 * dispatch, sleep/duty accounting, and the multi-mote radio network.
 */
#include <gtest/gtest.h>

#include "backend/backend.h"
#include "core/experiment.h"
#include "frontend/frontend.h"
#include "sim/machine.h"
#include "sim/stats.h"
#include "support/devmap.h"

namespace stos {
namespace {

using namespace stos::ir;
using namespace stos::backend;
using namespace stos::sim;

MProgram
buildProgram(const std::string &src)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC(
        {{"lib.tc", tinyos::libSource()}, {"t.tc", src}}, diags, sm);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    return compileToTarget(m, TargetInfo::mica2());
}

TEST(Machine, ComputesArithmetic)
{
    MProgram p = buildProgram(
        "u16 result;"
        "void main() {"
        "  u16 s = 0;"
        "  for (u16 i = 1; i <= 10; i++) { s += i; }"
        "  result = s;"
        "  stos_uart_put_u16(result);"
        "}");
    Machine m(p, 1);
    m.boot();
    m.runUntilCycle(1'000'000);
    EXPECT_TRUE(m.halted());
    EXPECT_EQ(m.readGlobal("result", 2), 55u);
    EXPECT_EQ(m.devices().uartLog(), "55");
}

TEST(Machine, TimerInterruptFiresPeriodically)
{
    MProgram p = buildProgram(
        "u16 ticks;"
        "interrupt(TIMER0) void t() { ticks = ticks + 1; }"
        "void main() { stos_timer0_start(100); stos_run_scheduler(); }");
    Machine m(p, 1);
    m.boot();
    // Period 100 * 256 cycles = 25600 cycles per tick.
    m.runUntilCycle(256'000);
    uint64_t ticks = m.readGlobal("ticks", 2);
    EXPECT_GE(ticks, 8u);
    EXPECT_LE(ticks, 11u);
}

TEST(Machine, SleepAccountsDutyCycle)
{
    MProgram p = buildProgram(
        "interrupt(TIMER0) void t() { }"
        "void main() { stos_timer0_start(4096); stos_run_scheduler(); }");
    Machine m(p, 1);
    m.boot();
    m.runUntilCycle(7'372'800);
    EXPECT_LT(m.dutyCycle(), 0.05) << "idle app must sleep >95%";
    EXPECT_GT(m.dutyCycle(), 0.0);
}

TEST(Machine, AdcProducesDeterministicReadings)
{
    MProgram p = buildProgram(
        "u16 reading;"
        "interrupt(ADC) void done() { reading = stos_adc_data(); }"
        "interrupt(TIMER0) void t() { stos_adc_start(0); }"
        "void main() { stos_timer0_start(64); stos_run_scheduler(); }");
    Machine m(p, 1);
    m.boot();
    m.runUntilCycle(2'000'000);
    EXPECT_GT(m.devices().adcConversions(), 10u);
    uint64_t r = m.readGlobal("reading", 2);
    EXPECT_GT(r, 0u);
    EXPECT_LT(r, 1024u);
}

TEST(Machine, UartCapturesOutput)
{
    MProgram p = buildProgram(
        "void main() { stos_uart_puts(\"hello mote\"); }");
    Machine m(p, 1);
    m.boot();
    m.runUntilCycle(100'000);
    EXPECT_EQ(m.devices().uartLog(), "hello mote");
}

TEST(Machine, WedgesInFailureHandler)
{
    MProgram p = buildProgram(
        "void main() { while (true) { } }");
    Machine m(p, 1);
    m.boot();
    m.runUntilCycle(100'000);
    // An empty busy loop collapses to a self-jump: detected as wedged,
    // time accounted as awake.
    EXPECT_TRUE(m.wedged() || !m.halted());
    EXPECT_GT(m.dutyCycle(), 0.9);
}

TEST(Machine, AdaptiveHorizonBatchesBusyWaitPolling)
{
    // A busy-wait polling loop: every iteration reads a device
    // register (In), but nothing ever changes the device schedule.
    // The legacy core polls the device hub before every instruction;
    // the threaded core re-aims its event horizon only when the hub's
    // schedule version moved, so the whole loop batches under one
    // horizon. The observable run must be identical either way — the
    // consultation count is the only permitted difference.
    MProgram p = buildProgram(
        "u16 sink;"
        "void main() {"
        "  u16 i = 0;"
        "  while (i < 5000) { sink = stos_adc_data(); i = i + 1; }"
        "  stos_uart_put_u16(sink);"
        "}");
    Machine ref(p, 1, ExecMode::Legacy);
    Machine thr(p, 1, ExecMode::Threaded);
    ref.boot();
    thr.boot();
    ref.runUntilCycle(10'000'000);
    thr.runUntilCycle(10'000'000);
    EXPECT_TRUE(ref.halted());
    EXPECT_EQ(snapshotOf(ref), snapshotOf(thr));
    // 5000 polls: the legacy core consults the hub at least once per
    // step, the threaded core only at horizon boundaries.
    EXPECT_LT(thr.devices().hubConsultations(),
              ref.devices().hubConsultations());
    EXPECT_GT(ref.devices().hubConsultations(), 5000u);
    EXPECT_LT(thr.devices().hubConsultations(), 100u);
}

TEST(Machine, DefaultCoreIsThreaded)
{
    // The fast path is the default everywhere a core can be left
    // unspecified, and a decoded image always runs on it.
    MProgram p = buildProgram("void main() { }");
    EXPECT_EQ(Machine(p).mode(), ExecMode::Threaded);
    EXPECT_EQ(Machine(std::make_shared<const DecodedProgram>(p)).mode(),
              ExecMode::Threaded);
    EXPECT_EQ(NetworkOptions{}.mode, ExecMode::Threaded);
}

TEST(Network, BroadcastReachesAllMotes)
{
    MProgram sender = buildProgram(
        "u8 msg[2];"
        "task void send() { msg[0] = 42; stos_radio_send(255, msg, 1); }"
        "interrupt(TIMER0) void t() { post send; }"
        "void main() { stos_timer0_start(2048); stos_run_scheduler(); }");
    MProgram receiver = buildProgram(
        "u8 buf[4]; u16 got;"
        "interrupt(RADIO_RX) void rx() {"
        "  u8 n = stos_radio_recv(buf, 4);"
        "  if (n > 0 && buf[0] == 42) { got = got + 1; }"
        "}"
        "void main() { stos_radio_enable_rx(); stos_run_scheduler(); }");
    Network net;
    net.addMote(sender, 1);
    net.addMote(receiver, 2);
    net.addMote(receiver, 3);
    net.run(8'000'000);
    EXPECT_GT(net.mote(0).devices().packetsSent(), 5u);
    EXPECT_GT(net.mote(1).readGlobal("got", 2), 3u);
    EXPECT_GT(net.mote(2).readGlobal("got", 2), 3u);
}

TEST(Network, UnicastFiltersByDestination)
{
    MProgram sender = buildProgram(
        "u8 msg[2];"
        "task void send() { msg[0] = 7; stos_radio_send(2, msg, 1); }"
        "interrupt(TIMER0) void t() { post send; }"
        "void main() { stos_timer0_start(2048); stos_run_scheduler(); }");
    MProgram receiver = buildProgram(
        "u8 buf[4]; u16 got;"
        "interrupt(RADIO_RX) void rx() {"
        "  if (stos_radio_recv(buf, 4) > 0) { got = got + 1; }"
        "}"
        "void main() { stos_radio_enable_rx(); stos_run_scheduler(); }");
    Network net;
    net.addMote(sender, 1);
    net.addMote(receiver, 2);  // addressed
    net.addMote(receiver, 3);  // bystander
    net.run(8'000'000);
    EXPECT_GT(net.mote(1).readGlobal("got", 2), 0u);
    EXPECT_EQ(net.mote(2).readGlobal("got", 2), 0u);
}

TEST(Network, RadioTransmissionTakesTime)
{
    MProgram sender = buildProgram(
        "u8 msg[8];"
        "u16 txdone;"
        "interrupt(RADIO_TX) void tx() { txdone = txdone + 1; }"
        "task void send() { stos_radio_send(255, msg, 8); }"
        "interrupt(TIMER0) void t() { post send; }"
        "void main() { stos_timer0_start(4096); stos_run_scheduler(); }");
    Network net;
    net.addMote(sender, 1);
    net.run(3'000'000);
    // 8 bytes * 3000 cycles = 24000 cycles airtime per packet; with a
    // ~1M-cycle timer period only a couple of packets fit.
    uint64_t done = net.mote(0).readGlobal("txdone", 2);
    EXPECT_GT(done, 0u);
    EXPECT_LT(done, 10u);
}

TEST(Machine, InterruptsRespectAtomicSections)
{
    MProgram p = buildProgram(
        "u16 ticks; u16 snapA; u16 snapB; u16 pad;"
        "interrupt(TIMER0) void t() { ticks = ticks + 1; }"
        "void main() {"
        "  stos_timer0_start(4);"      // very fast: 1024 cycles
        "  u16 k = 0;"
        "  while (k < 50) {"
        "    atomic {"
        "      snapA = ticks;"
        "      u16 j = 0;"
        "      while (j < 100) { pad += j; j++; }"
        "      snapB = ticks;"
        "    }"
        "    if (snapA != snapB) { pad = 9999; k = 50; }"
        "    k++;"
        "  }"
        "}");
    Machine m(p, 1);
    m.boot();
    m.runUntilCycle(4'000'000);
    EXPECT_NE(m.readGlobal("pad", 2), 9999u)
        << "an interrupt fired inside an atomic section";
    EXPECT_GT(m.readGlobal("ticks", 2), 0u)
        << "interrupts must still fire outside atomics";
}

TEST(Network, RunClampsFinalQuantumToRequestedCycles)
{
    // An idle app sleeps between timer ticks, so after run(n) the
    // mote's clock must sit exactly at n — not rounded up to the next
    // scheduling quantum (the pre-fix behaviour inflated every
    // duty-cycle measurement whose duration was not a multiple of
    // Network::kQuantum).
    MProgram p = buildProgram(
        "interrupt(TIMER0) void t() { }"
        "void main() { stos_timer0_start(4096); stos_run_scheduler(); }");
    Network net;
    net.addMote(p, 1);
    uint64_t n = 100'000;  // 100000 % 256 = 160
    ASSERT_NE(n % Network::kQuantum, 0u);
    net.run(n);
    EXPECT_EQ(net.mote(0).cycles(), n);
    // Consecutive runs continue from the current clock and clamp too.
    net.run(100);
    EXPECT_EQ(net.mote(0).cycles(), n + 100);
}

TEST(Pipeline2, DutyCycleOrderingAcrossConfigs)
{
    // Safe-unoptimized must not be faster than safe-optimized.
    using namespace stos::core;
    Experiment exp;
    exp.options().seconds = 0.5;
    exp.addApp(tinyos::appByName("Oscilloscope"))
        .addConfig(ConfigId::SafeFlid)
        .addConfig(ConfigId::SafeFlidInlineCxprop);
    ExperimentReport rep = exp.run();
    ASSERT_TRUE(rep.allOk());
    double dPlain = rep.sims.at(0, 0).outcome.dutyCycle;
    double dOpt = rep.sims.at(0, 1).outcome.dutyCycle;
    EXPECT_LE(dOpt, dPlain * 1.05);
}

} // namespace
} // namespace stos
