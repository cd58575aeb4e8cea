/**
 * @file
 * Property-style parameterized sweeps across the whole benchmark
 * suite: every app, under every safe configuration, must (a) build,
 * (b) verify, and (c) behave observably identically to its unsafe
 * baseline on the simulator — safety and optimization are allowed to
 * change cost, never behaviour.
 */
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "ir/verifier.h"
#include "sim/machine.h"

namespace stos {
namespace {

using namespace stos::core;
using namespace stos::tinyos;

struct Observation {
    uint32_t ledWrites = 0;
    uint8_t ledState = 0;
    uint32_t packetsSent = 0;
    std::string uart;
    bool wedged = false;

    bool
    operator==(const Observation &) const = default;
};

Observation
observe(const backend::MProgram &img, uint64_t cycles)
{
    sim::Machine m(img, 1);
    m.boot();
    m.runUntilCycle(cycles);
    Observation o;
    o.ledWrites = m.devices().ledWrites();
    o.ledState = m.devices().ledState();
    o.packetsSent = m.devices().packetsSent();
    o.uart = m.devices().uartLog();
    o.wedged = m.wedged();
    return o;
}

class EveryApp : public ::testing::TestWithParam<std::string> {};

/** Every registry app's name — the suite sweeps the whole corpus, so
 *  a newly registered app is property-tested with no edit here. */
std::vector<std::string>
allAppNames()
{
    std::vector<std::string> names;
    for (const auto &app : allApps())
        names.push_back(app.name);
    return names;
}

TEST_P(EveryApp, BuildsUnderAllConfigurations)
{
    const auto &app = appByName(GetParam());
    BuildResult base =
        buildApp(app, configFor(ConfigId::Baseline, app.platform));
    for (ConfigId id : figure3Configs()) {
        FullBuild r = buildApp(app, configFor(id, app.platform));
        auto problems = ir::verifyModule(r.module);
        EXPECT_TRUE(problems.empty())
            << configName(id) << ": "
            << (problems.empty() ? "" : problems[0]);
        EXPECT_GT(r.codeBytes, 0u);
        // Safety never shrinks RAM below the unsafe baseline's data.
        if (id != ConfigId::UnsafeInlineCxprop &&
            id != ConfigId::SafeFlidCxprop &&
            id != ConfigId::SafeFlidInlineCxprop) {
            EXPECT_GE(r.ramBytes, base.ramBytes) << configName(id);
        }
    }
}

TEST_P(EveryApp, SafeBuildBehavesLikeUnsafe)
{
    const auto &app = appByName(GetParam());
    if (!app.companions.empty())
        GTEST_SKIP() << "needs network context; covered elsewhere";
    const uint64_t cycles = 3'000'000;
    Observation base = observe(
        buildApp(app, configFor(ConfigId::Baseline, app.platform)).image,
        cycles);
    for (ConfigId id :
         {ConfigId::SafeFlid, ConfigId::SafeFlidInlineCxprop}) {
        Observation safe =
            observe(buildApp(app, configFor(id, app.platform)).image,
                    cycles);
        EXPECT_FALSE(safe.wedged)
            << app.name << " faulted under " << configName(id);
        EXPECT_EQ(safe.ledWrites, base.ledWrites)
            << app.name << " under " << configName(id);
        EXPECT_EQ(safe.ledState, base.ledState)
            << app.name << " under " << configName(id);
        EXPECT_EQ(safe.packetsSent, base.packetsSent)
            << app.name << " under " << configName(id);
        EXPECT_EQ(safe.uart, base.uart)
            << app.name << " under " << configName(id);
    }
}

TEST_P(EveryApp, ChecksSurviveMonotonically)
{
    const auto &app = appByName(GetParam());
    auto survivors = [&](CheckStrategy s) {
        return buildApp(app, configForStrategy(s, app.platform))
            .survivingChecks;
    };
    uint32_t gcc = survivors(CheckStrategy::GccOnly);
    uint32_t ccured = survivors(CheckStrategy::CcuredOpt);
    uint32_t cx = survivors(CheckStrategy::CcuredOptCxprop);
    uint32_t inl = survivors(CheckStrategy::CcuredOptInlineCxprop);
    EXPECT_LE(ccured, gcc) << app.name;
    EXPECT_LE(cx, ccured) << app.name;
    EXPECT_LE(inl, cx) << app.name;
}

TEST_P(EveryApp, OptimizedSafeCodeIsNotBigger)
{
    const auto &app = appByName(GetParam());
    BuildResult plain =
        buildApp(app, configFor(ConfigId::SafeFlid, app.platform));
    BuildResult opt = buildApp(
        app, configFor(ConfigId::SafeFlidInlineCxprop, app.platform));
    EXPECT_LE(opt.codeBytes, plain.codeBytes) << app.name;
    EXPECT_LE(opt.ramBytes, plain.ramBytes) << app.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, EveryApp, ::testing::ValuesIn(allAppNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace stos
