/**
 * @file
 * Simulation-matrix tests over the Experiment facade: StageCache
 * companion-entry memoization (each companion built exactly once per
 * platform, concurrent lookups race-free, persistent across runs),
 * parallel-vs-serial and threaded-vs-legacy SimReport equivalence
 * across every Figure-3 configuration, matrix shape/ordering, failure
 * isolation, and the CSV/JSON report emitters on real matrix output
 * (tests/golden/reports/ pins their exact bytes).
 */
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "core/experiment.h"
#include "support/util.h"

namespace stos {
namespace {

using namespace stos::core;
using namespace stos::tinyos;

constexpr double kSimSeconds = 0.1;

/** Simulate an already-built matrix over a fresh companion cache. */
SimReport
runSim(const BuildReport &builds, unsigned jobs = 0)
{
    Experiment e;
    e.options().jobs = jobs;
    e.options().seconds = kSimSeconds;
    StageCache cache;
    return e.simulateBuilds(builds, cache);
}

/** Rows with and without companions, columns that change the image. */
Experiment
smallMatrix()
{
    Experiment e;
    e.options().seconds = kSimSeconds;
    e.addApp(appByName("BlinkTask"));     // no companions
    e.addApp(appByName("Ident"));         // companion: CntToLedsAndRfm
    e.addApp(appByName("Surge"));         // companions: Surge, GenericBase
    e.addConfig(ConfigId::Baseline);
    e.addConfig(ConfigId::SafeFlid);
    return e;
}

BuildReport
smallBuilds()
{
    Experiment e = smallMatrix();
    e.options().simulate = false;
    return e.run().builds;
}

/** The companion decode's firmware, identified by address. */
const backend::MProgram *
companionFirmware(StageCache &cache, const std::string &name,
                  const std::string &platform)
{
    return &cache.companionDecode(name, platform)->program();
}

TEST(StageCacheCompanions, BuildsEachKeyExactlyOnceUnderContention)
{
    StageCache cache;
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const sim::DecodedProgram>> decodes(
        kThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&cache, &decodes, t] {
            decodes[t] =
                cache.companionDecode("CntToLedsAndRfm", "Mica2");
        });
    }
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(cache.companionBuilds(), 1u);
    EXPECT_EQ(cache.companionHits(), kThreads - 1);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(decodes[t].get(), decodes[0].get())
            << "all callers must share one immutable decode";
}

TEST(StageCacheCompanions, DistinctPlatformsAreDistinctEntries)
{
    StageCache cache;
    auto mica = companionFirmware(cache, "BlinkTask", "Mica2");
    auto telos = companionFirmware(cache, "BlinkTask", "TelosB");
    EXPECT_EQ(cache.companionBuilds(), 2u);
    EXPECT_NE(mica, telos);
    // Second lookups hit the memo.
    EXPECT_EQ(companionFirmware(cache, "BlinkTask", "Mica2"), mica);
    EXPECT_EQ(companionFirmware(cache, "BlinkTask", "TelosB"), telos);
    EXPECT_EQ(cache.companionBuilds(), 2u);
    EXPECT_EQ(cache.companionHits(), 2u);
}

TEST(StageCacheCompanions, FailuresAreCachedAndRethrown)
{
    StageCache cache;
    EXPECT_THROW(cache.companionDecode("NoSuchApp", "Mica2"),
                 std::exception);
    EXPECT_THROW(cache.companionDecode("NoSuchApp", "Mica2"),
                 std::exception);
    EXPECT_EQ(cache.companionBuilds(), 1u)
        << "the failed build must be memoized";
}

TEST(SimMatrix, MatrixShapeOrderingAndCompanionAccounting)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds, 4);

    ASSERT_EQ(rep.numApps, 3u);
    ASSERT_EQ(rep.numConfigs, 2u);
    ASSERT_EQ(rep.records.size(), 6u);
    EXPECT_TRUE(rep.allOk());
    const char *apps[] = {"BlinkTask", "Ident", "Surge"};
    for (size_t a = 0; a < 3; ++a) {
        for (size_t c = 0; c < 2; ++c) {
            const SimRecord &r = rep.at(a, c);
            EXPECT_EQ(r.app, apps[a]);
            EXPECT_EQ(r.appIndex, a);
            EXPECT_EQ(r.configIndex, c);
            EXPECT_GT(r.outcome.totalCycles, 0u);
        }
    }
    // Three distinct companion images (CntToLedsAndRfm, Surge,
    // GenericBase — all Mica2), each compiled exactly once even
    // though Ident and Surge each simulate in two configurations.
    EXPECT_EQ(rep.companionBuilds, 3u);
    // Ident contributes 2 companion requests, Surge 4; 6 total minus
    // the 3 builds leaves 3 memo hits.
    EXPECT_EQ(rep.companionReuses, 3u);
    EXPECT_NE(rep.find("Surge", configName(ConfigId::SafeFlid)), nullptr);
    EXPECT_EQ(rep.find("Surge", "nonsense"), nullptr);
}

TEST(SimMatrix, ParallelMatchesSerialAcrossEveryFigure3Config)
{
    // One companion-free and one companion-heavy app across the full
    // Figure-3 column set (baseline + C1..C7).
    Experiment e;
    e.options().jobs = 4;
    e.options().seconds = kSimSeconds;
    e.addApp(appByName("Oscilloscope"));
    e.addApp(appByName("Surge"));
    e.addConfig(ConfigId::Baseline);
    e.addConfigs(figure3Configs());
    ExperimentReport fast = e.run();
    ASSERT_TRUE(fast.allOk());
    const SimReport &parallel = fast.sims;
    EXPECT_EQ(parallel.companionBuilds, 2u);  // Surge + GenericBase

    // The reference rebuilds every companion per cell.
    const SimReport serial = e.runSerialReference().sims;
    EXPECT_EQ(serial.jobsUsed, 1u);
    EXPECT_EQ(serial.companionBuilds, 0u);
    EXPECT_EQ(serial.companionReuses, 0u);

    ASSERT_EQ(serial.records.size(), parallel.records.size());
    for (size_t i = 0; i < serial.records.size(); ++i) {
        std::string why;
        EXPECT_TRUE(SimDriver::recordsEquivalent(
            serial.records[i], parallel.records[i], &why))
            << why;
    }
    std::string why;
    EXPECT_TRUE(SimDriver::reportsEquivalent(serial, parallel, &why))
        << why;
}

TEST(SimMatrix, DeterministicUnderAnyJobCount)
{
    BuildReport builds = smallBuilds();
    SimReport baseline = runSim(builds, 1);
    for (unsigned jobs : {2u, 3u, 8u}) {
        SimReport rep = runSim(builds, jobs);
        std::string why;
        EXPECT_TRUE(SimDriver::reportsEquivalent(baseline, rep, &why))
            << "jobs=" << jobs << ": " << why;
    }
}

TEST(SimMatrix, CustomRowsOutsideTheRegistrySimulate)
{
    // Benches add rows not present in tinyos::allApps() (e.g.
    // runtime_overhead's "minimal" app). The companion list rides on
    // the BuildRecord, so such rows must simulate — alone or with
    // registry companions.
    const char *kIdle =
        "interrupt(TIMER0) void t() { }"
        "void main() { stos_timer0_start(4096); stos_run_scheduler(); }";
    Experiment b;
    b.options().simulate = false;
    b.addApp({"custom_alone", "Mica2", kIdle, {}, "test", {}});
    b.addApp({"custom_ctx", "Mica2", kIdle, {"CntToLedsAndRfm"}, "test", {}});
    b.addConfig(ConfigId::Baseline);
    BuildReport builds = b.run().builds;
    ASSERT_TRUE(builds.allOk());

    SimReport rep = runSim(builds);
    ASSERT_TRUE(rep.allOk())
        << rep.at(0, 0).error << rep.at(1, 0).error;
    EXPECT_EQ(rep.companionBuilds, 1u);
    EXPECT_LT(rep.at(0, 0).outcome.dutyCycle, 0.05);
}

TEST(SimMatrix, FailedBuildCellsBecomeFailedSimRecords)
{
    Experiment b;
    b.options().jobs = 2;
    b.options().simulate = false;
    b.addApp(appByName("BlinkTask"));
    b.addApp({"Broken", "Mica2", "void main( {", {}, "test", {}});
    b.addConfig(ConfigId::Baseline);
    BuildReport builds = b.run().builds;
    ASSERT_FALSE(builds.allOk());

    SimReport rep = runSim(builds);
    ASSERT_EQ(rep.records.size(), 2u);
    EXPECT_TRUE(rep.at(0, 0).ok);
    EXPECT_FALSE(rep.at(1, 0).ok);
    EXPECT_NE(rep.at(1, 0).error.find("build failed"),
              std::string::npos);
    EXPECT_FALSE(rep.allOk());
}

TEST(SimMatrix, EmptyBuildReportIsEmptySimReport)
{
    BuildReport builds;
    SimReport rep = runSim(builds);
    EXPECT_EQ(rep.records.size(), 0u);
    EXPECT_TRUE(rep.allOk());
}

TEST(SimMatrix, OutcomeFieldsAreConsistent)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);
    for (const auto &r : rep.records) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_LE(r.outcome.awakeCycles, r.outcome.totalCycles);
        EXPECT_GT(r.outcome.instructions, 0u);
        EXPECT_NEAR(r.outcome.dutyCycle,
                    static_cast<double>(r.outcome.awakeCycles) /
                        static_cast<double>(r.outcome.totalCycles),
                    1e-12);
        EXPECT_FALSE(r.outcome.wedged) << r.app << "/" << r.config;
    }
}

TEST(StageCacheCompanions, PersistAcrossSimulationRuns)
{
    // The serial equivalence gates re-run the same matrix; with a
    // caller-owned cache the second run must not rebuild a single
    // companion (ROADMAP follow-on).
    BuildReport builds = smallBuilds();
    StageCache cache;
    Experiment e;
    e.options().seconds = kSimSeconds;

    SimReport first = e.simulateBuilds(builds, cache);
    EXPECT_EQ(first.companionBuilds, 3u);
    SimReport second = e.simulateBuilds(builds, cache);
    EXPECT_EQ(second.companionBuilds, 0u)
        << "persistent cache must serve every companion";
    EXPECT_EQ(second.companionReuses, 6u);

    std::string why;
    EXPECT_TRUE(SimDriver::reportsEquivalent(first, second, &why))
        << why;
}

TEST(StageCacheCompanions, DecodedImageSharesTheCompiledFirmware)
{
    StageCache cache;
    auto decoded = cache.companionDecode("CntToLedsAndRfm", "Mica2");
    ASSERT_NE(decoded, nullptr);
    const auto &app = appByName("CntToLedsAndRfm");
    auto build =
        cache.build(app, configFor(ConfigId::Baseline, app.platform));
    EXPECT_EQ(&decoded->program(), &build->image)
        << "the decode must wrap the cached image, not a copy";
    EXPECT_EQ(cache.companionBuilds(), 1u);
    // Decode requests hit the same memo entry.
    EXPECT_EQ(cache.companionDecode("CntToLedsAndRfm", "Mica2").get(),
              decoded.get());
}

TEST(SimMatrix, LegacyModeMatchesThreadedCellForCell)
{
    // The acceptance gate of the threaded core at the matrix level:
    // the legacy reference interpreter under lockstep scheduling and
    // the direct-threaded core with lookahead windows must agree on
    // every cell, uart log included.
    Experiment e = smallMatrix();
    e.options().jobs = 2;
    ExperimentReport thr = e.run();
    ASSERT_TRUE(thr.allOk());

    std::string why;
    EXPECT_TRUE(e.verifySerialEquivalence(thr, &why)) << why;
}

TEST(SimReport, JoinedCsvMergesStaticAndDynamicColumns)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    std::ostringstream os;
    rep.joinCsv(builds, os);
    std::istringstream in(os.str());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_NE(header.find("code_bytes"), std::string::npos);
    EXPECT_NE(header.find("duty_cycle"), std::string::npos);
    EXPECT_NE(header.find("surviving_checks"), std::string::npos);
    size_t rows = 0;
    std::string line;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, rep.records.size());
    EXPECT_NE(os.str().find("\"safe, FLIDs\""), std::string::npos);
}

TEST(SimReport, JoinedJsonRoundTripsStructure)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    std::ostringstream os;
    rep.joinJson(builds, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"kind\": \"joined_report\""),
              std::string::npos);
    EXPECT_NE(json.find("\"code_bytes\":"), std::string::npos);
    EXPECT_NE(json.find("\"duty_cycle\":"), std::string::npos);
    size_t open = 0, close = 0;
    for (char c : json) {
        open += c == '{';
        close += c == '}';
    }
    EXPECT_EQ(open, close);
}

TEST(SimEquivalence, OutcomesCompareExactlyNotAsPrinted)
{
    SimRecord a;
    a.app = "BlinkTask";
    a.config = "baseline";
    a.ok = true;
    a.outcome.dutyCycle = 0.25;
    a.outcome.uartLog = "ok";
    std::string why;
    ASSERT_TRUE(SimDriver::recordsEquivalent(a, a, &why)) << why;

    // The report prints ratios to 9 digits; the gate must not.
    SimRecord b = a;
    b.outcome.dutyCycle += 1e-12;
    EXPECT_FALSE(SimDriver::recordsEquivalent(a, b, &why));
    EXPECT_NE(why.find("BlinkTask/baseline"), std::string::npos) << why;

    b = a;
    b.outcome.availability -= 1e-12;
    EXPECT_FALSE(SimDriver::recordsEquivalent(a, b, &why));

    b = a;
    b.outcome.uartLog = "no";
    EXPECT_FALSE(SimDriver::recordsEquivalent(a, b, &why));
    EXPECT_NE(why.find("uartLog"), std::string::npos) << why;
}

TEST(SimReport, JoinRejectsAMismatchedBuildReport)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    Experiment b;
    b.options().simulate = false;
    b.addApp(appByName("BlinkTask"));
    b.addConfig(ConfigId::Baseline);
    BuildReport other = b.run().builds;

    std::ostringstream os;
    EXPECT_THROW(rep.joinCsv(other, os), FatalError);
    EXPECT_THROW(rep.joinJson(other, os), FatalError);
}

TEST(SimReport, CsvHasHeaderOneRowPerCellAndQuotedLabels)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    std::ostringstream os;
    rep.emitCsv(os);
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.substr(0, 4), "app,");
    EXPECT_NE(line.find("duty_cycle"), std::string::npos);
    size_t rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, rep.records.size());
    // Config labels contain commas and must be quoted.
    EXPECT_NE(os.str().find("\"safe, FLIDs\""), std::string::npos);
}

TEST(SimReport, JsonRoundTripsStructure)
{
    BuildReport builds = smallBuilds();
    SimReport rep = runSim(builds);

    std::ostringstream os;
    rep.emitJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"kind\": \"sim_report\""), std::string::npos);
    EXPECT_NE(json.find("\"num_apps\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"duty_cycle\":"), std::string::npos);
    size_t open = 0, close = 0, records = 0;
    for (char c : json) {
        open += c == '{';
        close += c == '}';
    }
    EXPECT_EQ(open, close);
    size_t pos = 0;
    while ((pos = json.find("\"app\":", pos)) != std::string::npos) {
        ++records;
        pos += 6;
    }
    EXPECT_EQ(records, rep.records.size());
}

} // namespace
} // namespace stos
