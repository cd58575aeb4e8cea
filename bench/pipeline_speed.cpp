/**
 * @file
 * The per-stage probe of the toolchain:
 *
 *   pipeline_speed --stages DIR [--json PATH]
 *
 * builds the Figure-3 matrix (every app under Baseline and C1-C7)
 * serially, one execution per distinct stage key, timing frontend,
 * safety, opt, backend and the artifact-store write-back of every
 * build into DIR (cold; like StageCache, it persists only backend
 * products), then the store load of every build (warm). It prints one
 * JSON object, also written to PATH if given, with the summed cXprop
 * fixpoint counters. Serial and one process, so each figure is the
 * time of that layer alone.
 *
 * This is not a paper figure; it keeps the whole-program approach
 * honest ("small system size means whole-program optimization is
 * feasible", §1). The stage-sharing, store and cXprop skip-ratio gates
 * on the same matrix live in test_stagecache.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include "core/experiment.h"
#include "core/stagecache.h"
#include "support/binio.h"
#include "support/util.h"

using namespace stos;
using namespace stos::core;

namespace {

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
};

/** The per-stage probe (see the file comment). */
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
        std::vector<ConfigId> columns{ConfigId::Baseline};
        for (ConfigId id : figure3Configs())
            columns.push_back(id);
        for (const auto &app : tinyos::allApps()) {
            auto t0 = Clock::now();
            FrontendProduct fe = runFrontend(app.name, app.source);
            feMs += millisSince(t0);
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
                }
                std::string ok = StageCache::optKey(app, cfg);
                if (!opts.count(ok)) {
                    t0 = Clock::now();
                    opts[ok] = runOptStage(safeties[sk], cfg);
                    optMs += millisSince(t0);
                    cx.add(opts[ok].report);
                }
                std::string bk = StageCache::buildKey(app, cfg);
                if (std::find(buildKeys.begin(), buildKeys.end(), bk) ==
                    buildKeys.end()) {
                    t0 = Clock::now();
                    BuildResult r = runBackendStage(opts[ok], cfg);
                    backendMs += millisSince(t0);
                    t0 = Clock::now();
                    support::BinWriter w;
                    r.serialize(w);
                    store.store(Stage::Backend, bk, w.data());
                    storeMs += millisSince(t0);
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
            BuildResult::deserialize(r);
            loadMs += millisSince(t0);
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
    auto usage = [&] {
        fprintf(stderr, "usage: %s --stages DIR [--json PATH]\n",
                argv[0]);
        return 2;
    };
    std::string stagesDir, jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stages") == 0 && i + 1 < argc)
            stagesDir = argv[++i];
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else
            return usage();
    }
    if (stagesDir.empty())
        return usage();
    return runStageProbe(stagesDir, jsonPath);
}
