/**
 * @file
 * Toolchain throughput benchmarks. Two modes:
 *
 *   pipeline_speed              google-benchmark microbenchmarks of
 *                               the frontend, full pipeline, driver
 *                               matrix, and simulator.
 *   pipeline_speed --matrix [J] the stage-graph gate: build the full
 *                               Figure-3 matrix memoized+parallel,
 *                               require stage executions == distinct
 *                               content keys (the stage-cache win),
 *                               then rebuild cold+serial and require
 *                               cell-for-cell byte-identity,
 *                               reporting the speedup. Prints
 *                               the summed cXprop fixpoint counters
 *                               and fails if fewer than 30% of the
 *                               function analyses were skipped.
 *   pipeline_speed --matrix [J] --cache-dir DIR
 *                               the artifact-store gate: run the same
 *                               matrix cold into DIR, re-run it warm
 *                               (must execute ZERO stages — every
 *                               build loads from disk — with
 *                               cell-for-cell equivalent results),
 *                               then corrupt one artifact and require
 *                               it to degrade to a miss with exactly
 *                               one correct rebuild.
 *   pipeline_speed --stages DIR [--json PATH]
 *                               the per-stage probe: build the same
 *                               matrix serially, one execution per
 *                               distinct stage key, timing frontend,
 *                               safety, opt, backend and the store
 *                               write-back (cold) and then the store
 *                               load of every build (warm). Prints
 *                               one JSON object (to PATH if given).
 *
 * These are not a paper figure; they keep the whole-program approach
 * honest ("small system size means whole-program optimization is
 * feasible", §1) and gate the stage graph's reuse and speedup.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "core/experiment.h"
#include "core/stagecache.h"
#include "frontend/frontend.h"
#include "sim/machine.h"
#include "support/binio.h"
#include "support/util.h"

using namespace stos;
using namespace stos::core;

namespace {

void
BM_FrontendSurge(benchmark::State &state)
{
    const auto &app = tinyos::appByName("Surge");
    for (auto _ : state) {
        SourceManager sm;
        DiagnosticEngine diags(&sm);
        auto m = frontend::compileTinyC(
            {{"lib.tc", tinyos::libSource()}, {"app.tc", app.source}},
            diags, sm);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_FrontendSurge);

void
BM_FullPipelineBlink(benchmark::State &state)
{
    const auto &app = tinyos::appByName("BlinkTask");
    PipelineConfig cfg =
        configFor(ConfigId::SafeFlidInlineCxprop, app.platform);
    for (auto _ : state) {
        BuildResult r = buildApp(app, cfg);
        benchmark::DoNotOptimize(r.codeBytes);
    }
}
BENCHMARK(BM_FullPipelineBlink);

void
BM_FullPipelineSurge(benchmark::State &state)
{
    const auto &app = tinyos::appByName("Surge");
    PipelineConfig cfg =
        configFor(ConfigId::SafeFlidInlineCxprop, app.platform);
    for (auto _ : state) {
        BuildResult r = buildApp(app, cfg);
        benchmark::DoNotOptimize(r.codeBytes);
    }
}
BENCHMARK(BM_FullPipelineSurge);

/** The Figure-3 matrix as a build-only Experiment. */
Experiment
figure3Experiment(ExperimentOptions opts)
{
    opts.simulate = false;
    Experiment exp(opts);
    exp.addAllApps();
    exp.addConfig(ConfigId::Baseline);
    exp.addConfigs(figure3Configs());
    return exp;
}

void
BM_Figure3MatrixSerial(benchmark::State &state)
{
    Experiment exp = figure3Experiment({});
    for (auto _ : state) {
        BuildReport rep = exp.runSerialReference().builds;
        benchmark::DoNotOptimize(rep.records.size());
    }
}
BENCHMARK(BM_Figure3MatrixSerial)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
BM_Figure3MatrixParallel(benchmark::State &state)
{
    ExperimentOptions opts;  // jobs = hardware concurrency, memoized
    for (auto _ : state) {
        BuildReport rep = figure3Experiment(opts).run().builds;
        benchmark::DoNotOptimize(rep.records.size());
    }
}
BENCHMARK(BM_Figure3MatrixParallel)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    const auto &app = tinyos::appByName("BlinkTask");
    BuildResult r =
        buildApp(app, configFor(ConfigId::Baseline, app.platform));
    for (auto _ : state) {
        sim::Machine m(r.image, 1);
        m.boot();
        m.runUntilCycle(1'000'000);
        benchmark::DoNotOptimize(m.cycles());
    }
    state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_SimulatorThroughput);

/** Distinct content keys the Figure-3 matrix spans, per stage. */
struct MatrixKeys {
    std::set<std::string> app, safety, opt, build;
};

MatrixKeys
figure3Keys()
{
    MatrixKeys keys;
    std::vector<ConfigId> columns{ConfigId::Baseline};
    for (ConfigId id : figure3Configs())
        columns.push_back(id);
    for (const auto &app : tinyos::allApps()) {
        keys.app.insert(StageCache::appKey(app));
        for (ConfigId id : columns) {
            PipelineConfig cfg = configFor(id, app.platform);
            keys.safety.insert(StageCache::safetyKey(app, cfg));
            keys.opt.insert(StageCache::optKey(app, cfg));
            keys.build.insert(StageCache::buildKey(app, cfg));
        }
    }
    return keys;
}

/** cXprop fixpoint counters summed over the cells that run cXprop. */
struct CxpropTotals {
    uint64_t runs = 0, rounds = 0, fixpointRounds = 0;
    uint64_t funcAnalyses = 0, funcAnalysesSkipped = 0, blockVisits = 0;

    void
    add(const opt::CxpropReport &r)
    {
        if (r.rounds == 0)
            return;
        ++runs;
        rounds += r.rounds;
        fixpointRounds += r.fixpointRounds;
        funcAnalyses += r.funcAnalyses;
        funcAnalysesSkipped += r.funcAnalysesSkipped;
        blockVisits += r.blockVisits;
    }

    double
    skipRatio() const
    {
        return funcAnalyses ? static_cast<double>(funcAnalysesSkipped) /
                                  static_cast<double>(funcAnalyses)
                            : 0.0;
    }
};

/**
 * The skip ratio is a deterministic function of the corpus and the
 * analysis, so a fixed floor cannot flake: falling below it means the
 * incremental fixpoint stopped skipping clean functions.
 */
constexpr double kMinCxpropSkipRatio = 0.3;

/** Print the summed counters; false if the skip ratio is too low. */
bool
checkCxpropCounters(const BuildReport &rep)
{
    CxpropTotals t;
    for (const auto &r : rep.records) {
        if (r.ok)
            t.add(r.result->cxpropReport);
    }
    printf("cXprop counters over %llu runs: %llu rounds, %llu fixpoint "
           "rounds, %llu function analyses (%llu skipped, %.1f%%), "
           "%llu block visits\n",
           static_cast<unsigned long long>(t.runs),
           static_cast<unsigned long long>(t.rounds),
           static_cast<unsigned long long>(t.fixpointRounds),
           static_cast<unsigned long long>(t.funcAnalyses),
           static_cast<unsigned long long>(t.funcAnalysesSkipped),
           100.0 * t.skipRatio(),
           static_cast<unsigned long long>(t.blockVisits));
    if (t.skipRatio() < kMinCxpropSkipRatio) {
        fprintf(stderr,
                "FAIL: cXprop skipped %.1f%% of function analyses, "
                "below the %.0f%% floor\n",
                100.0 * t.skipRatio(), 100.0 * kMinCxpropSkipRatio);
        return false;
    }
    return true;
}

int
runMatrixComparison(unsigned jobs)
{
    ExperimentOptions opts;
    opts.jobs = jobs;  // 0 = let the pool pick
    Experiment exp = figure3Experiment(opts);

    printf("Figure-3 matrix, parallel stage-graph build "
           "(StageCache memoized)...\n");
    ExperimentReport par = exp.run();
    printf("  %s\n", par.builds.summary().c_str());
    if (!par.allOk()) {
        fprintf(stderr, "builds failed\n");
        return 1;
    }

    // The stage-cache win is gated, not just printed: executions of
    // each stage must equal the number of distinct content keys the
    // matrix spans (C4/C5/C6 share one safety run per app,
    // Baseline/C7 share the unsafe pass-through), never the cell
    // count.
    MatrixKeys keys = figure3Keys();
    const auto &appKeys = keys.app;
    const auto &safetyKeys = keys.safety;
    const auto &optKeys = keys.opt;
    const auto &buildKeys = keys.build;
    const size_t cells = par.builds.records.size();
    printf("stage-cache win: %zu cells -> %zu parses, %zu safety "
           "runs, %zu opt runs, %zu backend runs "
           "(%zu post-frontend stage reuses)\n",
           cells, par.builds.frontendParses, par.builds.safetyRuns,
           par.builds.optRuns, par.builds.backendRuns,
           par.builds.stageReuses());
    if (par.builds.frontendParses != appKeys.size() ||
        par.builds.safetyRuns != safetyKeys.size() ||
        par.builds.optRuns != optKeys.size() ||
        par.builds.backendRuns != buildKeys.size()) {
        fprintf(stderr,
                "FAIL: stage executions do not match the distinct "
                "content keys (expected %zu/%zu/%zu/%zu)\n",
                appKeys.size(), safetyKeys.size(), optKeys.size(),
                buildKeys.size());
        return 1;
    }
    if (par.builds.safetyRuns >= cells) {
        fprintf(stderr,
                "FAIL: no safety-stage sharing (%zu runs for %zu "
                "cells)\n",
                par.builds.safetyRuns, cells);
        return 1;
    }
    if (!checkCxpropCounters(par.builds))
        return 1;

    printf("Figure-3 matrix, cold serial compilation "
           "(1 job, no memoization)...\n");
    ExperimentReport serial = exp.runSerialReference();
    printf("  %s\n", serial.builds.summary().c_str());
    if (!serial.allOk()) {
        fprintf(stderr, "serial builds failed\n");
        return 1;
    }

    std::string why;
    bool identical = Experiment::reportsEquivalent(serial, par, &why);
    if (!identical)
        fprintf(stderr, "MISMATCH: %s\n", why.c_str());
    double speedup = par.builds.wallMillis > 0
                         ? serial.builds.wallMillis /
                               par.builds.wallMillis
                         : 0.0;
    printf("\nresults identical: %s   speedup: %.2fx "
           "(%u hardware threads)\n",
           identical ? "YES" : "NO", speedup,
           std::thread::hardware_concurrency());
    return identical ? 0 : 1;
}

/**
 * The artifact-store gate: cold run warms DIR, warm run must execute
 * zero stages with equivalent results, and a deliberately corrupted
 * artifact must degrade to a miss with exactly one correct rebuild.
 */
int
runCacheGate(unsigned jobs, const std::string &dir)
{
    ExperimentOptions opts;
    opts.jobs = jobs;
    opts.cache.dir = dir;
    Experiment exp = figure3Experiment(opts);
    MatrixKeys keys = figure3Keys();

    printf("Figure-3 matrix, cold run into artifact store %s...\n",
           dir.c_str());
    ExperimentReport cold = exp.run();
    printf("  %s\n", cold.builds.summary().c_str());
    if (!cold.allOk()) {
        fprintf(stderr, "cold builds failed\n");
        return 1;
    }
    if (!checkCxpropCounters(cold.builds))
        return 1;

    printf("Figure-3 matrix, warm re-run from the store...\n");
    ExperimentReport warm = exp.run();
    printf("  %s\n", warm.builds.summary().c_str());
    if (!warm.allOk()) {
        fprintf(stderr, "warm builds failed\n");
        return 1;
    }
    if (warm.builds.frontendParses != 0 ||
        warm.builds.safetyRuns != 0 || warm.builds.optRuns != 0 ||
        warm.builds.backendRuns != 0) {
        fprintf(stderr,
                "FAIL: warm run executed stages "
                "(%zu/%zu/%zu/%zu) — expected all zero\n",
                warm.builds.frontendParses, warm.builds.safetyRuns,
                warm.builds.optRuns, warm.builds.backendRuns);
        return 1;
    }
    // A warmed store serves each distinct build from its single
    // backend artifact; upstream stages are never even requested.
    if (warm.builds.backendDiskHits != keys.build.size()) {
        fprintf(stderr,
                "FAIL: expected %zu backend disk hits, saw %zu\n",
                keys.build.size(), warm.builds.backendDiskHits);
        return 1;
    }
    std::string why;
    if (!Experiment::reportsEquivalent(cold, warm, &why)) {
        fprintf(stderr, "FAIL: warm run differs from cold: %s\n",
                why.c_str());
        return 1;
    }
    printf("cold %.0f ms -> warm %.0f ms (%.1fx), zero stages "
           "executed, %zu disk hits\n",
           cold.builds.wallMillis, warm.builds.wallMillis,
           warm.builds.wallMillis > 0
               ? cold.builds.wallMillis / warm.builds.wallMillis
               : 0.0,
           warm.builds.diskHits());

    // Corruption gate: truncate one backend artifact; the next run
    // must treat it as a miss and rebuild exactly that one cell —
    // correctly — while everything else still disk-hits.
    ArtifactStore store(CacheOptions{dir});
    const auto &app0 = tinyos::allApps().front();
    PipelineConfig cfg0 = configFor(ConfigId::Baseline, app0.platform);
    std::string victim =
        store.pathFor(Stage::Backend, StageCache::buildKey(app0, cfg0));
    std::error_code ec;
    auto fullSize = std::filesystem::file_size(victim, ec);
    if (ec) {
        fprintf(stderr, "FAIL: cannot stat artifact %s: %s\n",
                victim.c_str(), ec.message().c_str());
        return 1;
    }
    std::filesystem::resize_file(victim, fullSize / 2, ec);
    printf("truncated %s (%llu -> %llu bytes)...\n", victim.c_str(),
           static_cast<unsigned long long>(fullSize),
           static_cast<unsigned long long>(fullSize / 2));

    ExperimentReport fixed = exp.run();
    printf("  %s\n", fixed.builds.summary().c_str());
    if (!fixed.allOk()) {
        fprintf(stderr, "post-corruption builds failed\n");
        return 1;
    }
    if (fixed.builds.backendRuns != 1 || fixed.builds.optRuns != 0 ||
        fixed.builds.safetyRuns != 0 ||
        fixed.builds.frontendParses != 0) {
        fprintf(stderr,
                "FAIL: corruption should cost exactly one backend "
                "rebuild, saw %zu/%zu/%zu/%zu stage runs\n",
                fixed.builds.frontendParses, fixed.builds.safetyRuns,
                fixed.builds.optRuns, fixed.builds.backendRuns);
        return 1;
    }
    if (!Experiment::reportsEquivalent(cold, fixed, &why)) {
        fprintf(stderr,
                "FAIL: post-corruption rebuild differs from cold: "
                "%s\n",
                why.c_str());
        return 1;
    }
    printf("\ncorrupted artifact degraded to a miss; one backend "
           "rebuild, results identical: YES\n");
    return 0;
}

double
millisSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * The per-stage probe (see the file comment). Serial and one process,
 * so each figure is the time of that layer alone.
 */
int
runStageProbe(const std::string &dir, const std::string &jsonPath)
{
    using Clock = std::chrono::steady_clock;
    std::filesystem::remove_all(dir);
    double feMs = 0, safetyMs = 0, optMs = 0, backendMs = 0;
    double storeMs = 0, loadMs = 0;
    CxpropTotals cx;
    std::vector<std::string> buildKeys;
    {
        ArtifactStore store(CacheOptions{dir});
        auto put = [&](Stage stage, const std::string &key,
                       const auto &product) {
            auto t0 = Clock::now();
            support::BinWriter w;
            product.serialize(w);
            store.store(stage, key, w.data());
            storeMs += millisSince(t0);
        };
        std::vector<ConfigId> columns{ConfigId::Baseline};
        for (ConfigId id : figure3Configs())
            columns.push_back(id);
        for (const auto &app : tinyos::allApps()) {
            auto t0 = Clock::now();
            FrontendProduct fe = runFrontend(app.name, app.source);
            feMs += millisSince(t0);
            put(Stage::Frontend, StageCache::appKey(app), fe);
            std::map<std::string, SafetyProduct> safeties;
            std::map<std::string, OptProduct> opts;
            for (ConfigId id : columns) {
                PipelineConfig cfg = configFor(id, app.platform);
                std::string sk = StageCache::safetyKey(app, cfg);
                if (!safeties.count(sk)) {
                    t0 = Clock::now();
                    safeties[sk] = runSafetyStage(
                        fe.module.clone(), fe.sourceManager.get(), cfg);
                    safetyMs += millisSince(t0);
                    put(Stage::Safety, sk, safeties[sk]);
                }
                std::string ok = StageCache::optKey(app, cfg);
                if (!opts.count(ok)) {
                    t0 = Clock::now();
                    opts[ok] = runOptStage(safeties[sk], cfg);
                    optMs += millisSince(t0);
                    put(Stage::Opt, ok, opts[ok]);
                    cx.add(opts[ok].report);
                }
                std::string bk = StageCache::buildKey(app, cfg);
                if (std::find(buildKeys.begin(), buildKeys.end(), bk) ==
                    buildKeys.end()) {
                    t0 = Clock::now();
                    BuildResult r = runBackendStage(opts[ok], cfg);
                    backendMs += millisSince(t0);
                    put(Stage::Backend, bk, r);
                    buildKeys.push_back(bk);
                }
            }
        }
    }
    {
        ArtifactStore store(CacheOptions{dir});
        for (const auto &bk : buildKeys) {
            auto t0 = Clock::now();
            std::string blob;
            if (!store.load(Stage::Backend, bk, &blob)) {
                fprintf(stderr, "FAIL: warm load missed %s\n",
                        bk.c_str());
                return 1;
            }
            support::BinReader r(blob);
            BuildResult b = BuildResult::deserialize(r);
            loadMs += millisSince(t0);
            benchmark::DoNotOptimize(b.codeBytes);
        }
    }
    std::filesystem::remove_all(dir);

    std::string json = strfmt(
        "{\"matrix\": \"%zu apps x 8 Figure-3 columns, serial\", "
        "\"cold\": {\"frontend_ms\": %.1f, \"safety_ms\": %.1f, "
        "\"opt_ms\": %.1f, \"backend_ms\": %.1f, "
        "\"store_write_ms\": %.1f, \"total_ms\": %.1f}, "
        "\"warm\": {\"builds\": %zu, \"store_load_ms\": %.1f, "
        "\"total_ms\": %.1f}, "
        "\"cxprop\": {\"runs\": %llu, \"rounds\": %llu, "
        "\"fixpoint_rounds\": %llu, \"func_analyses\": %llu, "
        "\"func_analyses_skipped\": %llu, \"block_visits\": %llu}}\n",
        tinyos::allApps().size(), feMs, safetyMs, optMs, backendMs,
        storeMs, feMs + safetyMs + optMs + backendMs + storeMs,
        buildKeys.size(), loadMs, loadMs,
        static_cast<unsigned long long>(cx.runs),
        static_cast<unsigned long long>(cx.rounds),
        static_cast<unsigned long long>(cx.fixpointRounds),
        static_cast<unsigned long long>(cx.funcAnalyses),
        static_cast<unsigned long long>(cx.funcAnalysesSkipped),
        static_cast<unsigned long long>(cx.blockVisits));
    printf("%s", json.c_str());
    if (!jsonPath.empty())
        std::ofstream(jsonPath) << json;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool matrix = false;
    unsigned jobs = 0;
    std::string cacheDir, stagesDir, jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--matrix") == 0) {
            matrix = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                jobs = static_cast<unsigned>(std::atoi(argv[i + 1]));
        } else if (std::strcmp(argv[i], "--cache-dir") == 0 &&
                   i + 1 < argc) {
            cacheDir = argv[++i];
        } else if (std::strcmp(argv[i], "--stages") == 0 &&
                   i + 1 < argc) {
            stagesDir = argv[++i];
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            jsonPath = argv[++i];
        }
    }
    if (!stagesDir.empty())
        return runStageProbe(stagesDir, jsonPath);
    if (matrix)
        return cacheDir.empty() ? runMatrixComparison(jobs)
                                : runCacheGate(jobs, cacheDir);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
