/**
 * @file
 * BenchCli command-line parsing: numeric flags accept whole
 * non-negative decimals (and, for the cell timeout, finite
 * non-negative seconds; for SAFE_TINYOS_SIM_SECONDS, seconds above 0
 * whose cycle count fits); anything else prints a diagnostic and the
 * usage line and exits with status 2 instead of silently turning into
 * "all cores", a wrapped job count, a disabled watchdog or a figure
 * of zeros. And
 * --cache-dir binds run() to an artifact store, so a repeat run over
 * a warmed directory executes no pipeline stage.
 */
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "../bench/bench_util.h"

namespace stos {
namespace {

using bench::BenchCli;

/** Parse `args` as the command line of a bench called "bench". */
BenchCli
parse(std::initializer_list<const char *> args)
{
    std::vector<std::string> store = {"bench"};
    store.insert(store.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (auto &s : store)
        argv.push_back(s.data());
    return BenchCli::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchCli, AcceptsWellFormedNumbers)
{
    BenchCli cli = parse({"--jobs", "3", "--fault-seed",
                          "18446744073709551615", "--cell-timeout",
                          "2.5"});
    EXPECT_EQ(cli.jobs, 3u);
    EXPECT_EQ(cli.faults.seed, 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(cli.cellTimeout, 2.5);
    EXPECT_EQ(parse({"--jobs", "0", "--cell-timeout", "0"}).jobs, 0u);
    EXPECT_DOUBLE_EQ(parse({"--cell-timeout", ".5"}).cellTimeout, 0.5);
    EXPECT_DOUBLE_EQ(parse({"--cell-timeout", "1e-3"}).cellTimeout, 1e-3);
}

TEST(BenchCliDeathTest, RejectsMalformedJobs)
{
    for (const char *bad : {"x", "-1", "", "4x", "+2", " 3",
                            "4294967296", "1e3"}) {
        EXPECT_EXIT(parse({"--jobs", bad}), ::testing::ExitedWithCode(2),
                    "--jobs needs .*usage:")
            << "'" << bad << "'";
    }
}

TEST(BenchCliDeathTest, RejectsMalformedCellTimeout)
{
    for (const char *bad : {"abc", "-1", "", "1.5s", "inf", "nan",
                            "1e999", " 2", "2 ", "+2", "0x10"}) {
        EXPECT_EXIT(parse({"--cell-timeout", bad}),
                    ::testing::ExitedWithCode(2),
                    "--cell-timeout needs .*usage:")
            << "'" << bad << "'";
    }
}

TEST(BenchCliDeathTest, RejectsMalformedFaultSeed)
{
    for (const char *bad : {"seed", "-5", "", "12abc",
                            "18446744073709551616"}) {
        EXPECT_EXIT(parse({"--fault-seed", bad}),
                    ::testing::ExitedWithCode(2),
                    "--fault-seed needs .*usage:")
            << "'" << bad << "'";
    }
}

TEST(BenchCliDeathTest, RejectsMalformedSimSeconds)
{
    // A duration that is not a plain decimal above 0, or whose cycle
    // count overflows (inf, 1e30), is a usage error, not a figure of
    // zeros or a silent fall-back to the default.
    for (const char *bad : {"inf", "1e30", "abc", "0", "-1", "nan",
                            "1e999", " 2"}) {
        ::setenv("SAFE_TINYOS_SIM_SECONDS", bad, 1);
        EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2),
                    "SAFE_TINYOS_SIM_SECONDS needs .*usage:")
            << "'" << bad << "'";
    }
    ::setenv("SAFE_TINYOS_SIM_SECONDS", "0.25", 1);
    EXPECT_DOUBLE_EQ(parse({}).seconds, 0.25);
    ::unsetenv("SAFE_TINYOS_SIM_SECONDS");
    EXPECT_DOUBLE_EQ(parse({}).seconds, 3.0);
}

TEST(BenchCli, CacheDirServesARepeatRunWithoutExecutingAStage)
{
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() /
         ("stos-benchcli-cache-" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    const BenchCli cli = parse({"--cache-dir", dir.c_str()});
    auto run = [&] {
        core::Experiment exp(cli.options(/*simulate=*/false));
        exp.addApp(tinyos::appByName("BlinkTask"));
        exp.addConfig(core::ConfigId::Baseline);
        exp.addConfig(core::ConfigId::SafeFlid);
        core::ExperimentReport rep;
        EXPECT_EQ(cli.run(exp, rep), 0);
        return rep.builds;
    };
    using core::Stage;
    core::BuildReport cold = run();
    EXPECT_EQ(cold.stages[Stage::Backend].runs, cold.records.size());
    core::BuildReport warm = run();
    for (Stage s : core::kStages)
        EXPECT_EQ(warm.stages[s].runs, 0u)
            << "a warmed --cache-dir must serve the repeat run entirely";
    EXPECT_EQ(warm.stages[Stage::Backend].diskHits, warm.records.size());
    fs::remove_all(dir);
}

} // namespace
} // namespace stos
