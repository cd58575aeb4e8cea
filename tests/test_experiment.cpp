/**
 * @file
 * Experiment facade tests: combined report shape, equivalence of the
 * combined run() with the explicit buildMatrix + simulateBuilds
 * two-step (cell-for-cell, joined emission included), build-only
 * mode, the serial-reference gate, and companion firmware aliasing
 * the matrix's Baseline column through the shared StageCache.
 */
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "core/experiment.h"
#include "support/util.h"

namespace stos {
namespace {

using namespace stos::core;
using namespace stos::tinyos;

constexpr double kSimSeconds = 0.05;

ExperimentOptions
fastOptions(bool simulate = true)
{
    ExperimentOptions o;
    o.seconds = kSimSeconds;
    o.simulate = simulate;
    return o;
}

/** Drop the two wall-time columns (nondeterministic) of a joined
 *  CSV so emissions from different runs compare equal. */
std::string
stripCsvTimings(const std::string &s)
{
    std::istringstream in(s);
    std::string line, out;
    while (std::getline(in, line)) {
        size_t p1 = line.find_last_of(',');
        size_t p2 = line.find_last_of(',', p1 - 1);
        out += line.substr(0, p2) + "\n";
    }
    return out;
}

/** Ditto for the joined JSON's build_millis/sim_millis fields. */
std::string
stripJsonTimings(const std::string &s)
{
    std::istringstream in(s);
    std::string line, out;
    while (std::getline(in, line)) {
        size_t j = line.find(", \"build_millis\":");
        if (j != std::string::npos) {
            size_t end = line.find_last_of('}');
            line = line.substr(0, j) + line.substr(end);
        }
        out += line + "\n";
    }
    return out;
}

/** Rows with and without companions, columns that change the image. */
Experiment
smallExperiment(ExperimentOptions opts)
{
    Experiment exp(opts);
    exp.addApp(appByName("BlinkTask"));   // no companions
    exp.addApp(appByName("Ident"));       // companion: CntToLedsAndRfm
    exp.addConfig(ConfigId::Baseline);
    exp.addConfig(ConfigId::SafeFlid);
    return exp;
}

TEST(Experiment, RowSelectorsMirrorTheRegistry)
{
    // The facade's corpus selector must declare exactly what the
    // registry reports (the registry's own shape is test_apps').
    Experiment full{ExperimentOptions{}};
    full.addAllApps();
    EXPECT_EQ(full.numApps(), tinyos::allApps().size());
}

TEST(Experiment, CombinedReportCoversBuildAndSimPhases)
{
    Experiment exp = smallExperiment(fastOptions());
    ExperimentReport rep = exp.run();
    ASSERT_TRUE(rep.simulated);
    ASSERT_TRUE(rep.allOk()) << rep.summary();
    EXPECT_EQ(rep.builds.numApps, 2u);
    EXPECT_EQ(rep.builds.numConfigs, 2u);
    EXPECT_EQ(rep.sims.records.size(), rep.builds.records.size());
    for (size_t i = 0; i < rep.builds.records.size(); ++i) {
        EXPECT_EQ(rep.builds.records[i].app, rep.sims.records[i].app);
        EXPECT_EQ(rep.builds.records[i].config,
                  rep.sims.records[i].config);
    }
    EXPECT_NE(rep.summary().find("build:"), std::string::npos);
    EXPECT_NE(rep.summary().find("sim:"), std::string::npos);
}

TEST(Experiment, MatchesTheExplicitTwoStepCellForCell)
{
    // The combined run() must reproduce what the explicit two-step —
    // buildMatrix over a caller cache, then simulateBuilds over the
    // same cache — produces, cell-for-cell, including the joined
    // CSV/JSON emission the benches used to assemble by hand.
    StageCache cache;
    Experiment twoStep = smallExperiment(fastOptions());
    BuildReport builds = twoStep.buildMatrix(cache);
    ASSERT_TRUE(builds.allOk());
    SimReport sims = twoStep.simulateBuilds(builds, cache);
    ASSERT_TRUE(sims.allOk());

    Experiment exp = smallExperiment(fastOptions());
    ExperimentReport rep = exp.run();
    ASSERT_TRUE(rep.allOk());

    ASSERT_EQ(builds.records.size(), rep.builds.records.size());
    for (size_t i = 0; i < builds.records.size(); ++i) {
        std::string why;
        EXPECT_TRUE(BuildDriver::recordsEquivalent(
            builds.records[i], rep.builds.records[i], &why))
            << why;
    }
    std::string why;
    EXPECT_TRUE(SimDriver::reportsEquivalent(sims, rep.sims, &why))
        << why;

    std::ostringstream fromFacade, fromDrivers;
    rep.emitJoinedCsv(fromFacade);
    sims.joinCsv(builds, fromDrivers);
    EXPECT_EQ(stripCsvTimings(fromFacade.str()),
              stripCsvTimings(fromDrivers.str()));

    std::ostringstream jsonFacade, jsonDrivers;
    rep.emitJoinedJson(jsonFacade);
    sims.joinJson(builds, jsonDrivers);
    EXPECT_EQ(stripJsonTimings(jsonFacade.str()),
              stripJsonTimings(jsonDrivers.str()));
}

TEST(Experiment, BuildOnlyModeSkipsTheSimPhase)
{
    Experiment exp = smallExperiment(fastOptions(/*simulate=*/false));
    ExperimentReport rep = exp.run();
    EXPECT_FALSE(rep.simulated);
    EXPECT_TRUE(rep.allOk());
    EXPECT_EQ(rep.sims.records.size(), 0u);

    std::ostringstream os;
    rep.emitJson(os);
    EXPECT_NE(os.str().find("\"kind\": \"build_report\""),
              std::string::npos);
    std::ostringstream joined;
    EXPECT_THROW(rep.emitJoinedCsv(joined), FatalError);
    EXPECT_THROW(rep.emitJoinedJson(joined), FatalError);
}

TEST(Experiment, SerialReferenceGateHolds)
{
    Experiment exp = smallExperiment(fastOptions());
    ExperimentReport rep = exp.run();
    ASSERT_TRUE(rep.allOk());
    std::string why;
    EXPECT_TRUE(exp.verifySerialEquivalence(rep, &why)) << why;
}

TEST(Experiment, UnsimulableDurationFailsEachCellWithADiagnostic)
{
    // A duration whose cycle count overflows must fail each cell
    // with a diagnostic, not report it simulated at a 0% duty cycle.
    ExperimentOptions opts = fastOptions();
    opts.seconds = std::numeric_limits<double>::infinity();
    Experiment exp = smallExperiment(opts);
    ExperimentReport rep = exp.run();
    EXPECT_TRUE(rep.builds.allOk());
    ASSERT_FALSE(rep.sims.records.empty());
    for (const SimRecord &r : rep.sims.records) {
        EXPECT_FALSE(r.ok) << r.app << " / " << r.config;
        EXPECT_NE(r.error.find("cannot simulate inf seconds"),
                  std::string::npos)
            << r.error;
    }
}

TEST(Experiment, ReportsEquivalentDetectsDivergence)
{
    Experiment exp = smallExperiment(fastOptions());
    ExperimentReport a = exp.run();

    Experiment other(fastOptions());
    other.addApp(appByName("BlinkTask"));
    other.addConfig(ConfigId::Baseline);
    ExperimentReport b = other.run();

    std::string why;
    EXPECT_FALSE(Experiment::reportsEquivalent(a, b, &why));
    EXPECT_FALSE(why.empty());
}

TEST(Experiment, CompanionFirmwareAliasesTheMatrixBaselineColumn)
{
    // Ident's context companion (CntToLedsAndRfm) is itself a matrix
    // row with a Baseline column: the sim phase must reuse that cell
    // through the shared cache instead of compiling a bespoke
    // companion image.
    StageCache cache;
    Experiment exp(fastOptions());
    exp.addApp(appByName("Ident"));
    exp.addApp(appByName("CntToLedsAndRfm"));
    exp.addConfig(ConfigId::Baseline);
    ExperimentReport rep = exp.run(cache);
    ASSERT_TRUE(rep.allOk()) << rep.summary();

    EXPECT_EQ(cache.stats().backend.executed, 2u)
        << "companion must not trigger a third backend run";
    EXPECT_EQ(rep.sims.companionBuilds, 1u)
        << "one companion entry materialized (aliasing the matrix)";
}

TEST(Experiment, PersistentCacheMakesRepeatRunsFree)
{
    StageCache cache;
    Experiment exp = smallExperiment(fastOptions());
    ExperimentReport first = exp.run(cache);
    ASSERT_TRUE(first.allOk());
    ExperimentReport second = exp.run(cache);
    ASSERT_TRUE(second.allOk());
    EXPECT_EQ(second.builds.stages[Stage::Backend].runs, 0u);
    EXPECT_EQ(second.sims.companionBuilds, 0u);
    std::string why;
    EXPECT_TRUE(Experiment::reportsEquivalent(first, second, &why))
        << why;
}

TEST(Experiment, StageSharingIsObservableInTheCombinedRun)
{
    // One app across C4/C5/C6: exactly one safety run, three cells.
    Experiment exp(fastOptions());
    exp.addApp(appByName("BlinkTask"));
    exp.addConfigs({ConfigId::SafeFlid, ConfigId::SafeFlidCxprop,
                    ConfigId::SafeFlidInlineCxprop});
    ExperimentReport rep = exp.run();
    ASSERT_TRUE(rep.allOk());
    EXPECT_EQ(rep.builds.stages[Stage::Safety].runs, 1u);
    EXPECT_EQ(rep.builds.stages[Stage::Safety].reuses, 2u);
    EXPECT_EQ(rep.builds.stages[Stage::Frontend].runs, 1u);
}

} // namespace
} // namespace stos
