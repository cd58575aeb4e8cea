/**
 * @file
 * Fault-injection determinism suite (sim/fault.h). The contract under
 * test: a fault campaign is a pure function of its seed — the same
 * FaultOptions produce byte-identical MoteSnapshots on the legacy
 * core under lockstep scheduling and the threaded core under
 * lookahead scheduling; different seeds produce
 * different outcomes; reboots preserve the persistent counters and
 * the bounded trap log; radio loss/corruption/duplication rates land
 * inside statistical bounds; early-exit and the wall-clock watchdog
 * degrade gracefully without changing results.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.h"
#include "core/pipeline.h"
#include "sim/decoded.h"
#include "sim/fault.h"
#include "sim/machine.h"
#include "sim/stats.h"

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
    EXPECT_EQ(a.reboots, b.reboots) << label;
    EXPECT_EQ(a.crashes, b.crashes) << label;
    EXPECT_EQ(a.uartLog, b.uartLog) << label;
    EXPECT_TRUE(a == b) << label << " (full snapshot)";
}

TEST(FaultPlan, DeterministicAndSeedSensitive)
{
    FaultOptions fo;
    fo.seed = 7;
    fo.memFlips = 5;
    fo.regFlips = 3;
    fo.crashes = 2;
    auto a = scheduleFaults(fo, 1, 0, kCycles);
    auto b = scheduleFaults(fo, 1, 0, kCycles);
    ASSERT_EQ(a.size(), 10u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].bit, b[i].bit);
    }
    // Sorted by cycle, and past the boot-grace span.
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a[i - 1].at, a[i].at);
    for (const auto &e : a)
        EXPECT_GT(e.at, kCycles / 16);
    // A different seed (or node) reshuffles the schedule.
    fo.seed = 8;
    auto c = scheduleFaults(fo, 1, 0, kCycles);
    bool differs = false;
    for (size_t i = 0; i < c.size(); ++i)
        differs = differs || c[i].at != a[i].at || c[i].addr != a[i].addr;
    EXPECT_TRUE(differs);
}

TEST(FaultPlan, SpecParserAcceptsAndRejects)
{
    FaultOptions fo;
    std::string err;
    ASSERT_TRUE(parseFaultSpec(
        "mem=8,reg=4,crash=1,loss=0.1,corrupt=0.05,dup=0.02", &fo,
        &err))
        << err;
    EXPECT_EQ(fo.memFlips, 8u);
    EXPECT_EQ(fo.regFlips, 4u);
    EXPECT_EQ(fo.crashes, 1u);
    EXPECT_DOUBLE_EQ(fo.radioLoss, 0.1);
    EXPECT_DOUBLE_EQ(fo.radioCorrupt, 0.05);
    EXPECT_DOUBLE_EQ(fo.radioDup, 0.02);
    EXPECT_TRUE(fo.injectsState());
    EXPECT_TRUE(fo.faultsRadio());
    FaultOptions bad;
    EXPECT_FALSE(parseFaultSpec("mem=x", &bad, &err));
    EXPECT_FALSE(parseFaultSpec("loss=1.5", &bad, &err));
    EXPECT_FALSE(parseFaultSpec("bogus=1", &bad, &err));
    RecoveryPolicy p;
    EXPECT_TRUE(parseRecoveryPolicy("reboot-on-trap", &p));
    EXPECT_EQ(p, RecoveryPolicy::RebootOnTrap);
    EXPECT_FALSE(parseRecoveryPolicy("explode", &p));
    // Attack-shaped keys (CFI attack suite).
    FaultOptions atk;
    ASSERT_TRUE(parseFaultSpec("ptr=1,ret=2,val=238,target=handler",
                               &atk, &err))
        << err;
    EXPECT_EQ(atk.ptrOverwrites, 1u);
    EXPECT_EQ(atk.retSmashes, 2u);
    EXPECT_EQ(atk.attackValue, 238u);
    EXPECT_EQ(atk.attackGlobal, "handler");
    EXPECT_TRUE(atk.injectsState());
}

/** Run CntToLedsAndRfm as a 2-mote network under `opts`, return every
 *  mote's snapshot. */
std::vector<MoteSnapshot>
runFaulted(const backend::MProgram &img, NetworkOptions opts,
           uint64_t cycles = kCycles)
{
    Network net(opts);
    net.addMote(img, 1);
    net.addMote(img, 2);
    net.run(cycles);
    std::vector<MoteSnapshot> out;
    for (size_t i = 0; i < net.size(); ++i)
        out.push_back(snapshotOf(net.mote(i)));
    return out;
}

const backend::MProgram &
radioImage()
{
    static const BuildResult build = buildApp(
        tinyos::appByName("CntToLedsAndRfm"),
        configFor(ConfigId::SafeFlid, "Mica2"));
    return build.image;
}

TEST(FaultDeterminism, StateFaultsEquivalentAcrossCoresAndSchedulers)
{
    FaultOptions fo;
    fo.seed = 42;
    fo.memFlips = 6;
    fo.regFlips = 3;
    fo.crashes = 1;
    fo.recovery = RecoveryPolicy::RebootOnTrap;

    NetworkOptions legacy{ExecMode::Legacy, false};
    legacy.faults = fo;
    NetworkOptions threaded{ExecMode::Threaded, true};
    threaded.faults = fo;

    auto a = runFaulted(radioImage(), legacy);
    auto b = runFaulted(radioImage(), threaded);
    ASSERT_EQ(a.size(), b.size());
    bool anyFault = false;
    for (size_t i = 0; i < a.size(); ++i) {
        std::string label = "mote " + std::to_string(i);
        expectSame(a[i], b[i], label + " [legacy vs threaded]");
        anyFault = anyFault || a[i].crashes > 0 || a[i].traps > 0 ||
                   a[i].reboots > 0;
    }
    // The scheduled crash must actually have landed on node 1.
    EXPECT_GE(a[0].crashes, 1u);
    EXPECT_TRUE(anyFault);
}

TEST(FaultDeterminism, RadioFaultsEquivalentAcrossSchedulers)
{
    FaultOptions fo;
    fo.seed = 9;
    fo.radioLoss = 0.3;
    fo.radioCorrupt = 0.2;
    fo.radioDup = 0.2;

    NetworkOptions legacy{ExecMode::Legacy, false};
    legacy.faults = fo;
    NetworkOptions threaded{ExecMode::Threaded, true};
    threaded.faults = fo;

    auto a = runFaulted(radioImage(), legacy);
    auto b = runFaulted(radioImage(), threaded);
    uint32_t touched = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        std::string label = "mote " + std::to_string(i);
        expectSame(a[i], b[i], label + " [legacy vs threaded]");
        touched += a[i].packetsDropped + a[i].packetsCorrupted +
                   a[i].packetsDuplicated;
    }
    EXPECT_GT(touched, 0u);
}

TEST(FaultDeterminism, DifferentSeedsProduceDifferentOutcomes)
{
    FaultOptions fo;
    fo.memFlips = 8;
    fo.regFlips = 4;
    fo.recovery = RecoveryPolicy::RebootOnTrap;

    fo.seed = 42;
    NetworkOptions o1{ExecMode::Threaded, true};
    o1.faults = fo;
    auto a = runFaulted(radioImage(), o1);

    fo.seed = 43;
    NetworkOptions o2{ExecMode::Threaded, true};
    o2.faults = fo;
    auto b = runFaulted(radioImage(), o2);

    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i)
        differs = differs || !(a[i] == b[i]);
    EXPECT_TRUE(differs)
        << "seeds 42 and 43 produced byte-identical networks";
}

/** Prints one '.' per scheduler pass, then walks off the end of a
 *  buffer: safe builds trap on a deterministic cycle, forever. */
const char *kTrapLoop = R"TC(
u8 buf[4];
u8 n;
task void poke() {
    stos_uart_put(46);
    n = (u8)(n + 1);
    buf[n + 6] = 1;
    post poke;
}
void main() {
    post poke;
    stos_run_scheduler();
}
)TC";

TEST(FaultRecovery, RebootOnTrapPreservesCountersAndLog)
{
    BuildResult build = buildSource(
        "traploop", kTrapLoop, configFor(ConfigId::SafeFlid, "Mica2"));
    for (ExecMode mode : {ExecMode::Legacy, ExecMode::Threaded}) {
        Machine m(build.image, 1, mode);
        m.setRecoveryPolicy(RecoveryPolicy::RebootOnTrap);
        m.boot();
        m.runUntilCycle(kCycles);
        std::string label =
            mode == ExecMode::Legacy ? "legacy" : "threaded";
        // Every trap rebooted the mote, the counters accumulated.
        EXPECT_FALSE(m.wedged()) << label;
        EXPECT_GE(m.traps(), 2u) << label;
        EXPECT_EQ(m.traps(), m.reboots()) << label;
        EXPECT_GE(m.downCycles(),
                  (m.reboots() - 1) * kRebootLatencyCycles)
            << label;
        // Re-traps almost immediately after each reboot: the mote is
        // down most of the run, but never permanently.
        EXPECT_LT(m.availability(), 1.0) << label;
        EXPECT_GT(m.availability(), 0.0) << label;
        // The bounded log: first entry backs failedFlid, capacity 8.
        ASSERT_FALSE(m.trapLog().empty()) << label;
        EXPECT_EQ(m.failedFlid(), m.trapLog().front().flid) << label;
        EXPECT_NE(m.failedFlid(), 0u) << label;
        EXPECT_LE(m.trapLog().size(), kMaxTrapLog) << label;
        // Each reboot reprinted the pre-trap dots: more output than a
        // single run to the wedge.
        EXPECT_GE(m.devices().uartLog().size(), 2u) << label;
        for (char ch : m.devices().uartLog())
            EXPECT_EQ(ch, '.') << label;
    }
    // And both cores agree byte-for-byte.
    Machine a(build.image, 1, ExecMode::Legacy);
    Machine b(build.image, 1, ExecMode::Threaded);
    a.setRecoveryPolicy(RecoveryPolicy::RebootOnTrap);
    b.setRecoveryPolicy(RecoveryPolicy::RebootOnTrap);
    a.boot();
    b.boot();
    a.runUntilCycle(kCycles);
    b.runUntilCycle(kCycles);
    expectSame(snapshotOf(a), snapshotOf(b), "traploop");
    EXPECT_EQ(a.trapLog().size(), b.trapLog().size());
    for (size_t i = 0; i < a.trapLog().size(); ++i)
        EXPECT_TRUE(a.trapLog()[i] == b.trapLog()[i]) << i;
}

TEST(FaultRecovery, WedgePolicyMatchesLegacyBehaviour)
{
    BuildResult build = buildSource(
        "traploop", kTrapLoop, configFor(ConfigId::SafeFlid, "Mica2"));
    Machine m(build.image, 1, ExecMode::Threaded);
    m.boot();  // default policy: Wedge
    m.runUntilCycle(kCycles);
    EXPECT_TRUE(m.wedged());
    EXPECT_EQ(m.traps(), 1u);
    EXPECT_EQ(m.reboots(), 0u);
    EXPECT_EQ(m.cycles(), kCycles);
    EXPECT_GT(m.wedgedCycles(), 0u);
    EXPECT_LT(m.availability(), 1.0);
}

TEST(FaultRecovery, RebootOnWedgeRecovers)
{
    BuildResult build = buildSource(
        "traploop", kTrapLoop, configFor(ConfigId::SafeFlid, "Mica2"));
    for (ExecMode mode : {ExecMode::Legacy, ExecMode::Threaded}) {
        Machine m(build.image, 1, mode);
        m.setRecoveryPolicy(RecoveryPolicy::RebootOnWedge);
        m.boot();
        m.runUntilCycle(kCycles);
        std::string label =
            mode == ExecMode::Legacy ? "legacy" : "threaded";
        EXPECT_GE(m.reboots(), 2u) << label;
        EXPECT_GE(m.traps(), 2u) << label;
        EXPECT_LT(m.availability(), 1.0) << label;
    }
}

TEST(FaultRecovery, CrashRevivesAWedgedMote)
{
    // Wedge policy + a scheduled crash after the trap: the power
    // glitch must reboot the wedged mote and execution must resume
    // (more instructions than the wedge-only run).
    BuildResult build = buildSource(
        "traploop", kTrapLoop, configFor(ConfigId::SafeFlid, "Mica2"));
    Machine wedgeOnly(build.image, 1, ExecMode::Threaded);
    wedgeOnly.boot();
    wedgeOnly.runUntilCycle(kCycles);
    ASSERT_TRUE(wedgeOnly.wedged());

    for (ExecMode mode : {ExecMode::Legacy, ExecMode::Threaded}) {
        Machine m(build.image, 1, mode);
        m.boot();
        m.setFaultEvents({{kCycles / 2, FaultKind::Crash, 0, 0, 0, {}}});
        m.runUntilCycle(kCycles);
        std::string label =
            mode == ExecMode::Legacy ? "legacy" : "threaded";
        EXPECT_EQ(m.crashes(), 1u) << label;
        EXPECT_EQ(m.reboots(), 1u) << label;
        EXPECT_GT(m.instructionsExecuted(),
                  wedgeOnly.instructionsExecuted())
            << label;
    }
}

TEST(FaultRadio, LossRateWithinStatisticalBounds)
{
    FaultOptions fo;
    fo.seed = 5;
    fo.radioLoss = 0.5;
    NetworkOptions o{ExecMode::Threaded, true};
    o.faults = fo;
    auto stats = runFaulted(radioImage(), o, 8'000'000);
    uint32_t dropped = 0, received = 0;
    for (const auto &s : stats) {
        dropped += s.packetsDropped;
        received += s.packetsReceived;
    }
    ASSERT_GT(dropped + received, 10u)
        << "workload sent too few packets to measure a rate";
    double rate = static_cast<double>(dropped) /
                  static_cast<double>(dropped + received);
    EXPECT_GT(rate, 0.2);
    EXPECT_LT(rate, 0.8);
}

TEST(FaultRadio, CorruptAndDupCountersMove)
{
    NetworkOptions clean{ExecMode::Threaded, true};
    auto base = runFaulted(radioImage(), clean, 4'000'000);

    FaultOptions fo;
    fo.radioCorrupt = 1.0;
    NetworkOptions o1{ExecMode::Threaded, true};
    o1.faults = fo;
    auto corrupted = runFaulted(radioImage(), o1, 4'000'000);
    uint32_t corruptCount = 0;
    for (const auto &s : corrupted)
        corruptCount += s.packetsCorrupted;
    EXPECT_GT(corruptCount, 0u);

    FaultOptions fd;
    fd.radioDup = 1.0;
    NetworkOptions o2{ExecMode::Threaded, true};
    o2.faults = fd;
    auto duped = runFaulted(radioImage(), o2, 4'000'000);
    uint32_t dupCount = 0, dupRecv = 0, baseRecv = 0;
    for (size_t i = 0; i < duped.size(); ++i) {
        dupCount += duped[i].packetsDuplicated;
        dupRecv += duped[i].packetsReceived;
        baseRecv += base[i].packetsReceived;
    }
    EXPECT_GT(dupCount, 0u);
    EXPECT_GT(dupRecv, baseRecv);
}

TEST(EarlyExit, IdenticalStatsWithFewerWindows)
{
    // Two motes that both trap and wedge early: with early-exit the
    // network takes one final fast-forward instead of thousands of
    // idle lockstep quanta — and every counter stays identical.
    BuildResult build = buildSource(
        "traploop", kTrapLoop, configFor(ConfigId::SafeFlid, "Mica2"));
    auto runWith = [&](bool earlyExit) {
        NetworkOptions o{ExecMode::Legacy, false};
        o.earlyExit = earlyExit;
        Network net(o);
        net.addMote(build.image, 1);
        net.addMote(build.image, 2);
        net.run(kCycles);
        std::vector<MoteSnapshot> snaps;
        for (size_t i = 0; i < net.size(); ++i)
            snaps.push_back(snapshotOf(net.mote(i)));
        return std::make_pair(snaps, net.windows());
    };
    auto [fast, fastWindows] = runWith(true);
    auto [slow, slowWindows] = runWith(false);
    ASSERT_EQ(fast.size(), slow.size());
    for (size_t i = 0; i < fast.size(); ++i)
        expectSame(fast[i], slow[i], "mote " + std::to_string(i));
    EXPECT_LT(fastWindows, slowWindows / 4)
        << "early-exit should skip most idle lockstep windows";
}

TEST(Watchdog, MarksRunawayCellFailedInsteadOfHanging)
{
    // An impossibly tight wall-clock limit on a long simulation: the
    // cell must come back failed with the watchdog diagnostic, and
    // the other cells of the matrix must be unaffected.
    Experiment exp;
    exp.options().jobs = 1;
    exp.options().seconds = 30.0;  // ~221M cycles: plenty to trip it
    exp.options().cellTimeout = 1e-4;
    exp.addApp(tinyos::appByName("BlinkTask"));
    exp.addConfig(ConfigId::Baseline);
    ExperimentReport rep = exp.run();
    ASSERT_TRUE(rep.simulated);
    const SimRecord &r = rep.sims.at(0, 0);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
}

TEST(Watchdog, GenerousLimitChangesNothing)
{
    FaultOptions fo;
    fo.memFlips = 4;
    fo.recovery = RecoveryPolicy::RebootOnTrap;
    NetworkOptions plain{ExecMode::Threaded, true};
    plain.faults = fo;
    auto a = runFaulted(radioImage(), plain);
    // 1e13 and 1e300 ms put the deadline past what the steady clock
    // can hold; such a limit is no deadline, not one in the past.
    for (double limitMs : {60'000.0, 1e13, 1e300}) {
        NetworkOptions guarded = plain;
        guarded.wallLimitMs = limitMs;
        auto b = runFaulted(radioImage(), guarded);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            expectSame(a[i], b[i], "limit " + std::to_string(limitMs) +
                                       " ms, mote " + std::to_string(i));
    }
}

TEST(FaultCompanions, CompanionsFaultedOnlyOnRequest)
{
    FaultOptions fo;
    fo.seed = 9;
    fo.memFlips = 6;
    fo.regFlips = 3;
    fo.crashes = 2;
    fo.recovery = RecoveryPolicy::RebootOnTrap;

    NetworkOptions solo{ExecMode::Threaded, true};
    solo.faults = fo;
    NetworkOptions both = solo;
    both.faults.faultCompanions = true;

    auto soloRun = runFaulted(radioImage(), solo);
    auto bothRun = runFaulted(radioImage(), both);
    ASSERT_EQ(soloRun.size(), 2u);
    ASSERT_EQ(bothRun.size(), 2u);

    // Node 1 carries the campaign either way; by default the
    // companion keeps running untouched so the workload keeps a live
    // peer (no state faults, so nothing to trap, crash, or recover).
    EXPECT_GE(soloRun[0].crashes, 1u);
    EXPECT_EQ(soloRun[1].crashes, 0u);
    EXPECT_EQ(soloRun[1].traps, 0u);
    EXPECT_EQ(soloRun[1].reboots, 0u);

    // With faultCompanions the companion gets its own node-mixed
    // schedule — and the whole 2-mote campaign stays deterministic
    // across cores and schedulers.
    EXPECT_GE(bothRun[1].crashes, 1u);
    NetworkOptions legacy{ExecMode::Legacy, false};
    legacy.faults = both.faults;
    auto l = runFaulted(radioImage(), legacy);
    for (size_t i = 0; i < bothRun.size(); ++i) {
        std::string label = "mote " + std::to_string(i);
        expectSame(l[i], bothRun[i], label + " [legacy vs threaded]");
    }
}

TEST(CfiTrapLog, CfiTrapsFlowThroughLogRebootAndEmitters)
{
    // A corrupted-fnptr campaign against the attack victim under a
    // CFI column: the trap must land in the bounded trap log with the
    // forward CFI kind, survive reboot-on-trap, and surface in the
    // CSV/JSON report emitters.
    Experiment exp;
    exp.options().seconds = 0.25;
    exp.options().faults.ptrOverwrites = 1;
    exp.options().faults.attackGlobal = "handler";
    exp.options().faults.attackValue = 0xEE;
    exp.options().faults.recovery = RecoveryPolicy::RebootOnTrap;
    exp.addApp(tinyos::attackAppByName("AttackFnptrDispatch"));
    exp.addConfig(ConfigId::SafeFlidCfi);
    ExperimentReport rep = exp.run();
    ASSERT_TRUE(rep.allOk());

    const SimRecord &r = rep.sims.at(0, 0);
    EXPECT_EQ(r.outcome.cfiTraps, 1u);
    EXPECT_GE(r.outcome.reboots, 1u);
    EXPECT_FALSE(r.outcome.wedged)
        << "reboot-on-trap must recover from a CFI trap";
    ASSERT_FALSE(r.outcome.trapLog.empty());
    EXPECT_EQ(r.outcome.trapLog.front().kind,
              backend::kTrapKindCfiForward);

    std::ostringstream csv;
    rep.sims.emitCsv(csv);
    EXPECT_NE(csv.str().find("cfi_traps"), std::string::npos);
    std::ostringstream js;
    rep.sims.emitJson(js);
    EXPECT_NE(js.str().find("\"cfi_traps\": 1"), std::string::npos);
    EXPECT_NE(js.str().find("\"kind\": 1"), std::string::npos);

    // The serial/parallel gate covers the attacked cell too.
    std::string why;
    EXPECT_TRUE(exp.verifySerialEquivalence(rep, &why)) << why;
}

TEST(FaultedExperiment, SerialEquivalenceGateCoversFaults)
{
    // Two campaigns over the same cells: state flips with radio loss
    // and corruption, and fault_resilience's default campaign (20
    // memory and 8 register flips), which is the one that traps.
    FaultOptions mixed;
    mixed.seed = 11;
    mixed.memFlips = 6;
    mixed.regFlips = 3;
    mixed.radioLoss = 0.2;
    mixed.radioCorrupt = 0.1;
    FaultOptions resilience;
    resilience.memFlips = 20;
    resilience.regFlips = 8;
    uint64_t traps = 0;
    for (FaultOptions faults : {mixed, resilience}) {
        faults.recovery = RecoveryPolicy::RebootOnTrap;
        Experiment exp;
        exp.options().jobs = 2;
        exp.options().seconds = 0.25;
        exp.options().faults = faults;
        exp.addApp(tinyos::appByName("CntToLedsAndRfm"));
        exp.addApp(tinyos::appByName("GenericBase"));
        exp.addConfig(ConfigId::Baseline);
        exp.addConfig(ConfigId::SafeFlid);
        ExperimentReport rep = exp.run();
        ASSERT_TRUE(rep.allOk());
        std::string why;
        EXPECT_TRUE(exp.verifySerialEquivalence(rep, &why)) << why;

        // The recovery counters every faulted record must keep sane.
        for (const SimRecord &r : rep.sims.records) {
            const SimOutcome &o = r.outcome;
            const std::string cell = r.app + " / " + r.config;
            EXPECT_GE(o.availability, 0.0) << cell;
            EXPECT_LE(o.availability, 1.0) << cell;
            EXPECT_LE(o.trapLog.size(), kMaxTrapLog) << cell;
            if (!o.trapLog.empty()) {
                EXPECT_EQ(o.failedFlid, o.trapLog.front().flid) << cell;
            }
            traps += o.traps;
        }
    }
    EXPECT_GT(traps, 0u) << "no campaign injected a trap anywhere";
}

} // namespace
} // namespace stos
