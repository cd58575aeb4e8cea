/**
 * @file
 * Build-matrix tests over the Experiment facade: matrix shape and
 * deterministic ordering under any thread count, parallel-vs-serial
 * result equivalence, frontend memoization accounting, failure
 * isolation, the canned Figure-2/3 matrices, the build-equivalence
 * gate itself, and the BuildReport emitters on real matrix output
 * (tests/golden/reports/ pins their exact bytes).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/experiment.h"
#include "core/pool.h"

namespace stos {
namespace {

using namespace stos::core;
using namespace stos::tinyos;

/** A small matrix that still exercises safety + cXprop + backend. */
Experiment
smallExperiment(unsigned jobs)
{
    Experiment e;
    e.options().jobs = jobs;
    e.options().simulate = false;
    e.addApp(appByName("BlinkTask"));
    e.addApp(appByName("SenseToRfm"));
    e.addApp(appByName("CntToLedsAndRfm"));
    e.addConfig(ConfigId::Baseline);
    e.addConfig(ConfigId::SafeFlid);
    e.addConfig(ConfigId::SafeFlidInlineCxprop);
    return e;
}

TEST(BuildMatrix, MatrixShapeAndOrdering)
{
    BuildReport rep = smallExperiment(4).run().builds;
    ASSERT_EQ(rep.numApps, 3u);
    ASSERT_EQ(rep.numConfigs, 3u);
    ASSERT_EQ(rep.records.size(), 9u);
    EXPECT_TRUE(rep.allOk());
    // App-major, config-minor, independent of scheduling.
    const char *apps[] = {"BlinkTask", "SenseToRfm", "CntToLedsAndRfm"};
    for (size_t a = 0; a < 3; ++a) {
        for (size_t c = 0; c < 3; ++c) {
            const BuildRecord &r = rep.at(a, c);
            EXPECT_EQ(r.app, apps[a]);
            EXPECT_EQ(r.appIndex, a);
            EXPECT_EQ(r.configIndex, c);
            EXPECT_EQ(&r, &rep.records[a * 3 + c]);
        }
    }
    EXPECT_EQ(rep.at(0, 0).config, configName(ConfigId::Baseline));
    EXPECT_EQ(rep.at(0, 2).config,
              configName(ConfigId::SafeFlidInlineCxprop));
    EXPECT_NE(rep.find("SenseToRfm", configName(ConfigId::SafeFlid)),
              nullptr);
    EXPECT_EQ(rep.find("SenseToRfm", "nonsense"), nullptr);
}

TEST(BuildMatrix, ParallelMatchesSerial)
{
    // The cold serial reference re-parses every cell from source.
    BuildReport serial = smallExperiment(4).runSerialReference().builds;
    BuildReport parallel = smallExperiment(4).run().builds;
    EXPECT_EQ(serial.jobsUsed, 1u);

    ASSERT_EQ(serial.records.size(), parallel.records.size());
    for (size_t i = 0; i < serial.records.size(); ++i) {
        std::string why;
        EXPECT_TRUE(BuildDriver::recordsEquivalent(
            serial.records[i], parallel.records[i], &why))
            << why;
    }
}

TEST(BuildMatrix, FrontendMemoizationCounts)
{
    BuildReport rep = smallExperiment(4).run().builds;
    EXPECT_EQ(rep.stages[Stage::Frontend].runs, rep.numApps);
    EXPECT_EQ(rep.stages[Stage::Frontend].reuses,
              rep.records.size() - rep.numApps);
    size_t reusedRecords = 0;
    for (const auto &r : rep.records)
        reusedRecords += r.reused[Stage::Frontend] ? 1 : 0;
    EXPECT_EQ(reusedRecords, rep.stages[Stage::Frontend].reuses);

    BuildReport cold = smallExperiment(4).runSerialReference().builds;
    EXPECT_EQ(cold.stages[Stage::Frontend].runs, cold.records.size());
    EXPECT_EQ(cold.stages[Stage::Frontend].reuses, 0u);
}

TEST(BuildMatrix, DeterministicUnderAnyJobCount)
{
    BuildReport baseline = smallExperiment(1).run().builds;
    for (unsigned jobs : {2u, 3u, 8u}) {
        BuildReport rep = smallExperiment(jobs).run().builds;
        ASSERT_EQ(rep.records.size(), baseline.records.size());
        for (size_t i = 0; i < rep.records.size(); ++i) {
            std::string why;
            EXPECT_TRUE(BuildDriver::recordsEquivalent(
                baseline.records[i], rep.records[i], &why))
                << "jobs=" << jobs << ": " << why;
        }
    }
}

TEST(BuildEquivalence, EveryReportFieldAndTheImageAreCompared)
{
    const auto &app = appByName("BlinkTask");
    const BuildResult base = buildApp(
        app, configFor(ConfigId::SafeFlidInlineCxprop, app.platform));
    std::string why;
    ASSERT_TRUE(BuildDriver::resultsEquivalent(base, base, &why)) << why;

    using Mutation = std::pair<const char *, void (*)(BuildResult &)>;
    const Mutation mutations[] = {
        {"instrsConstFolded",
         [](BuildResult &r) { ++r.cxpropReport.instrsConstFolded; }},
        {"branchesFolded",
         [](BuildResult &r) { ++r.cxpropReport.branchesFolded; }},
        {"copiesPropagated",
         [](BuildResult &r) { ++r.cxpropReport.copiesPropagated; }},
        {"deadInstrsRemoved",
         [](BuildResult &r) { ++r.cxpropReport.deadInstrsRemoved; }},
        {"deadStoresRemoved",
         [](BuildResult &r) { ++r.cxpropReport.deadStoresRemoved; }},
        {"deadGlobalsRemoved",
         [](BuildResult &r) { ++r.cxpropReport.deadGlobalsRemoved; }},
        {"deadFuncsRemoved",
         [](BuildResult &r) { ++r.cxpropReport.deadFuncsRemoved; }},
        {"staticallySafeAccesses",
         [](BuildResult &r) {
             ++r.safetyReport.staticallySafeAccesses;
         }},
        {"kindHistogram",
         [](BuildResult &r) { ++r.safetyReport.kindHistogram["SAFE"]; }},
        {"cfiClasses", [](BuildResult &r) { ++r.safetyReport.cfiClasses; }},
        {"cfiForwardChecks",
         [](BuildResult &r) { ++r.safetyReport.cfiForwardChecks; }},
        {"cfiReturnSites",
         [](BuildResult &r) { ++r.safetyReport.cfiReturnSites; }},
        {"irDigest", [](BuildResult &r) { ++r.irDigest; }},
        {"flidTable line",
         [](BuildResult &r) { ++r.flidTable.at(0).line; }},
        {"image immediate",
         [](BuildResult &r) {
             r.image.funcs.at(r.image.entry).blocks.at(0).instrs.at(0)
                 .imm ^= 1;
         }},
    };
    for (const auto &[field, mutate] : mutations) {
        BuildResult changed = base;
        mutate(changed);
        EXPECT_FALSE(BuildDriver::resultsEquivalent(base, changed, &why))
            << field << " is not compared";
        EXPECT_FALSE(why.empty()) << field;
        why.clear();
    }
}

TEST(BuildMatrix, FailuresAreIsolated)
{
    Experiment e;
    e.options().jobs = 4;
    e.options().simulate = false;
    e.addApp(appByName("BlinkTask"));
    e.addApp({"Broken", "Mica2", "void main( {", {}, "test", {}});
    e.addConfig(ConfigId::Baseline);
    e.addConfig(ConfigId::SafeFlid);
    BuildReport rep = e.run().builds;
    ASSERT_EQ(rep.records.size(), 4u);
    EXPECT_TRUE(rep.at(0, 0).ok);
    EXPECT_TRUE(rep.at(0, 1).ok);
    EXPECT_FALSE(rep.at(1, 0).ok);
    EXPECT_FALSE(rep.at(1, 1).ok);
    EXPECT_FALSE(rep.at(1, 0).error.empty());
    EXPECT_FALSE(rep.allOk());
}

TEST(RunOnPool, WorkerExceptionsRethrowOnTheCallerNotTerminate)
{
    // Regression: an exception escaping fn on a worker thread used to
    // unwind the std::thread and call std::terminate. The pool must
    // capture the first exception, join every worker, and rethrow on
    // the calling thread — under any job count, including a lone
    // calling-thread executor.
    for (unsigned jobs : {1u, 4u}) {
        std::atomic<size_t> ran{0};
        EXPECT_THROW(
            core::runOnPool(jobs, 64,
                            [&](size_t k) {
                                if (k == 3)
                                    throw std::runtime_error("cell 3");
                                // Jobs outlast the unwinding of job
                                // 3's exception, so trivial jobs
                                // cannot drain the queue before the
                                // failing worker flags the batch.
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(5));
                                ran.fetch_add(1);
                            }),
            std::runtime_error)
            << "jobs=" << jobs;
        // Job 3 fails in the first wave (the counter hands out 0..3
        // first), and each worker may run at most one more job before
        // observing the failure flag — far below the 60 jobs a
        // drain-everything regression would complete.
        EXPECT_LT(ran.load(), 32u)
            << "workers must stop claiming jobs after a failure";
    }
    // The rethrown exception is the worker's own.
    try {
        core::runOnPool(2, 8, [](size_t) {
            throw std::runtime_error("boom");
        });
        FAIL() << "expected the worker exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(RunOnPool, CompletesEveryJobWhenNothingThrows)
{
    std::atomic<size_t> sum{0};
    core::runOnPool(4, 100, [&](size_t k) { sum.fetch_add(k); });
    EXPECT_EQ(sum.load(), 99u * 100u / 2u);
}

TEST(RunOnPool, RunsJobsConcurrently)
{
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "needs two hardware threads";
    // Each job waits for the other to arrive, so a fan-out that ran
    // them one after the other would time out on the first.
    std::mutex mu;
    std::condition_variable cv;
    unsigned arrived = 0, met = 0;
    core::runOnPool(2, 2, [&](size_t) {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        if (cv.wait_for(lock, std::chrono::seconds(10),
                        [&] { return arrived == 2; }))
            ++met;
    });
    EXPECT_EQ(met, 2u);
}

TEST(RunOnPool, ExecutorsCappedAtHardwareThreads)
{
    // jobs_used reports the executors that really ran: never more
    // than the machine's hardware threads, however many were asked
    // for.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = core::resolveJobs(64, 1000);
    EXPECT_LE(jobs, hw);
    std::mutex mu;
    std::set<std::thread::id> executors;
    core::runOnPool(64, 1000, [&](size_t) {
        // Long enough that every executor started claims a job, so
        // an uncapped fan-out would show more thread ids.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        std::lock_guard<std::mutex> lock(mu);
        executors.insert(std::this_thread::get_id());
    });
    EXPECT_LE(executors.size(), jobs);
}

TEST(BuildMatrix, EmptyMatrixIsEmptyReport)
{
    Experiment e;
    e.options().simulate = false;
    BuildReport rep = e.run().builds;
    EXPECT_EQ(rep.records.size(), 0u);
    EXPECT_TRUE(rep.allOk());
}

TEST(BuildMatrix, CustomColumnsDriveAblation)
{
    Experiment e;
    e.options().jobs = 2;
    e.options().simulate = false;
    e.addApp(appByName("BlinkTask"));
    e.addCustom("no-atomic-opt", [](const std::string &platform) {
        PipelineConfig cfg =
            configFor(ConfigId::SafeFlidInlineCxprop, platform);
        cfg.cxprop.optimizeAtomics = false;
        return cfg;
    });
    e.addConfig(ConfigId::SafeFlidInlineCxprop);
    BuildReport rep = e.run().builds;
    ASSERT_TRUE(rep.allOk());
    EXPECT_EQ(rep.at(0, 0).config, "no-atomic-opt");
    EXPECT_EQ(rep.at(0, 0).result->cxpropReport.atomicsRemoved, 0u);
}

TEST(BuildMatrix, Figure3MatrixCoversEveryCell)
{
    Experiment e;
    e.options().simulate = false;
    e.addAllApps();
    e.addConfig(ConfigId::Baseline);
    e.addConfigs(figure3Configs());
    BuildReport rep = e.run().builds;
    EXPECT_EQ(rep.numApps, tinyos::allApps().size());
    EXPECT_EQ(rep.numConfigs, 1 + figure3Configs().size());
    ASSERT_TRUE(rep.allOk());
    EXPECT_EQ(rep.stages[Stage::Frontend].runs, rep.numApps);
    // Column 0 is the unsafe baseline every figure normalizes to.
    for (size_t a = 0; a < rep.numApps; ++a) {
        EXPECT_EQ(rep.at(a, 0).config, configName(ConfigId::Baseline));
        EXPECT_GT(rep.at(a, 0).result->codeBytes, 0u);
    }
}

TEST(BuildReport, CsvHasHeaderOneRowPerCellAndQuotedLabels)
{
    BuildReport rep = smallExperiment(2).run().builds;
    std::ostringstream os;
    rep.emitCsv(os);
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.substr(0, 4), "app,");
    EXPECT_NE(line.find("code_bytes"), std::string::npos);
    size_t rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, rep.records.size());
    // Config labels contain commas and must be RFC-4180 quoted.
    EXPECT_NE(os.str().find("\"safe, FLIDs\""), std::string::npos);
}

TEST(BuildReport, JsonEmissionIsBalancedAndComplete)
{
    BuildReport rep = smallExperiment(2).run().builds;
    std::ostringstream os;
    rep.emitJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"kind\": \"build_report\""),
              std::string::npos);
    EXPECT_NE(json.find("\"code_bytes\":"), std::string::npos);
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

TEST(BuildReport, FailedCellsEmitWithEscapedErrors)
{
    Experiment e;
    e.options().simulate = false;
    e.addApp({"Broken", "Mica2", "void main( {\n\"quote\"", {}, "test", {}});
    e.addConfig(ConfigId::Baseline);
    BuildReport rep = e.run().builds;
    ASSERT_FALSE(rep.allOk());
    ASSERT_NE(rep.at(0, 0).error.find('\n'), std::string::npos)
        << "fixture must produce a multi-line error";
    std::ostringstream csv, json;
    rep.emitCsv(csv);
    rep.emitJson(json);
    // The raw newline must be escaped in JSON ("\n" as two chars) and
    // quoted in CSV, so neither format gains stray physical lines.
    EXPECT_NE(json.str().find("\\n"), std::string::npos);
    EXPECT_NE(csv.str().find('"'), std::string::npos);
    size_t rows = 0;
    bool inQuotes = false;
    for (char c : csv.str()) {
        if (c == '"')
            inQuotes = !inQuotes;
        else if (c == '\n' && !inQuotes)
            ++rows;
    }
    EXPECT_EQ(rows, rep.records.size() + 1) << "header + one row/cell";
}

TEST(BuildMatrix, Figure2MatrixChecksMonotone)
{
    Experiment e;
    e.options().simulate = false;
    e.addAllApps();
    e.addStrategies({CheckStrategy::GccOnly, CheckStrategy::CcuredOpt,
                     CheckStrategy::CcuredOptCxprop,
                     CheckStrategy::CcuredOptInlineCxprop});
    BuildReport rep = e.run().builds;
    EXPECT_EQ(rep.numConfigs, 4u);
    ASSERT_TRUE(rep.allOk());
    // Surviving checks must not increase as strategies strengthen.
    for (size_t a = 0; a < rep.numApps; ++a) {
        uint32_t prev = ~0u;
        for (size_t c = 0; c < rep.numConfigs; ++c) {
            uint32_t survive = rep.at(a, c).result->survivingChecks;
            EXPECT_LE(survive, prev)
                << rep.at(a, c).app << " strategy " << c;
            prev = survive;
        }
    }
}

} // namespace
} // namespace stos
