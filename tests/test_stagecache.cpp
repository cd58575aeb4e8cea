/**
 * @file
 * StageCache tests: the per-stage serving contract (StageHits flags
 * and counter deltas when a request is executed, reused or served
 * from the store), exactly-once stage execution under concurrent
 * requests, failure caching and rethrow, fingerprint sensitivity
 * (changing only CxpropOptions must NOT invalidate the safety stage;
 * changing SafetyConfig must), companion entries aliasing the
 * matrix's Baseline cells, and on the full Figure-3 matrix: cached vs
 * cold byte-identity, the cXprop skip-ratio floor, a store holding
 * only builds, and a warm and a truncated-artifact run over it; a
 * build served from the store decodes a trap's FLID like a cold one.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <filesystem>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/stagecache.h"
#include "safety/flid.h"

namespace stos {
namespace {

namespace fs = std::filesystem;
using namespace stos::core;
using namespace stos::tinyos;

/** The full Figure-3 build matrix as a build-only Experiment. */
Experiment
figure3Matrix()
{
    Experiment exp;
    exp.options().simulate = false;
    exp.addAllApps();
    exp.addConfig(ConfigId::Baseline);
    exp.addConfigs(figure3Configs());
    return exp;
}

/** Request `stage`'s product of (app, cfg) from `cache`. */
void
request(StageCache &cache, Stage stage, const AppInfo &app,
        const PipelineConfig &cfg, StageHits *hits)
{
    switch (stage) {
      case Stage::Frontend: cache.frontend(app, hits); break;
      case Stage::Safety: cache.safety(app, cfg, hits); break;
      case Stage::Opt: cache.opt(app, cfg, hits); break;
      case Stage::Backend: cache.build(app, cfg, hits); break;
    }
}

/** One stage's counters as {executed, reused, diskHits}. */
using Counts = std::array<size_t, 3>;
/** Every stage's counters, indexed by Stage. */
using AllCounts = std::array<Counts, 4>;

AllCounts
counts(const StageCacheStats &s)
{
    AllCounts out;
    const StageStats *per[] = {&s.frontend, &s.safety, &s.opt,
                               &s.backend};
    for (size_t i = 0; i < 4; ++i)
        out[i] = {per[i]->executed, per[i]->reused, per[i]->diskHits};
    return out;
}

TEST(StageCache, ServingContractPerStageAndWay)
{
    // The serving contract, stage by stage: a request is served
    // exactly one way, the StageHits flags mark the served prefix of
    // the chain, and the counters move by exactly that request. Only
    // builds are persisted, so only the backend row has a DiskHit.
    enum Way {
        Cold,     ///< executed with every upstream stage
        Reused,   ///< served from the in-memory memo
        DiskHit,  ///< served from the store
    };
    enum Counter { Exec, Reuse, Disk };
    const auto &app = appByName("BlinkTask");
    const std::pair<Stage, ConfigId> rows[] = {
        {Stage::Frontend, ConfigId::SafeFlidCxprop},
        {Stage::Safety, ConfigId::SafeFlidCxprop},
        {Stage::Safety, ConfigId::Baseline},  // unsafe pass-through
        {Stage::Opt, ConfigId::SafeFlidCxprop},
        {Stage::Backend, ConfigId::SafeFlidCxprop},
    };
    for (const auto &[stage, config] : rows) {
        const size_t s = static_cast<size_t>(stage);
        const PipelineConfig cfg = configFor(config, app.platform);
        const std::string label =
            std::string(stageName(stage)) + "/" + configName(config);
        const fs::path dir =
            fs::temp_directory_path() /
            ("stos-stagecache-contract-" + std::to_string(::getpid()));
        fs::remove_all(dir);
        ArtifactStore store(CacheOptions{dir.string()});

        auto serve = [&](StageCache &cache, Way way) {
            AllCounts before = counts(cache.stats());
            StageHits hits;
            request(cache, stage, app, cfg, &hits);
            AllCounts delta = counts(cache.stats());
            for (size_t i = 0; i < 4; ++i)
                for (size_t k = 0; k < 3; ++k)
                    delta[i][k] -= before[i][k];

            AllCounts wantDelta{};
            std::array<bool, 4> wantFlags{};
            for (size_t i = 0; i <= s; ++i)
                wantFlags[i] = way == Reused || way == DiskHit;
            switch (way) {
              case Cold:
                for (size_t i = 0; i <= s; ++i)
                    wantDelta[i][Exec] = 1;
                break;
              case Reused: wantDelta[s][Reuse] = 1; break;
              case DiskHit: wantDelta[s][Disk] = 1; break;
            }
            EXPECT_EQ(hits.each, wantFlags) << label << " way " << way;
            EXPECT_EQ(delta, wantDelta) << label << " way " << way;
        };

        const bool persisted = stage == Stage::Backend;
        {
            StageCache cache(&store);  // empty store
            serve(cache, Cold);
            serve(cache, Reused);
        }
        EXPECT_EQ(store.stats().writes, persisted ? 1u : 0u) << label;
        {
            StageCache cache(&store);  // warmed store
            serve(cache, persisted ? DiskHit : Cold);
            serve(cache, Reused);
        }
        if (persisted) {
            ASSERT_TRUE(fs::remove(
                store.pathFor(stage, StageCache::buildKey(app, cfg))))
                << label;
            {
                StageCache cache(&store);  // the build's artifact removed
                serve(cache, Cold);
                serve(cache, Reused);
            }
            {
                StageCache cache(&store);  // the rebuild wrote it back
                serve(cache, DiskHit);
            }
        }
        fs::remove_all(dir);
    }
}

TEST(StageCache, ExecutesEachStageExactlyOnceUnderContention)
{
    StageCache cache;
    const auto &app = appByName("BlinkTask");
    PipelineConfig cfg =
        configFor(ConfigId::SafeFlidInlineCxprop, app.platform);
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const BuildResult>> results(kThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            results[t] = cache.build(app, cfg);
        });
    }
    for (auto &t : pool)
        t.join();

    StageCacheStats s = cache.stats();
    EXPECT_EQ(s.frontend.executed, 1u);
    EXPECT_EQ(s.safety.executed, 1u);
    EXPECT_EQ(s.opt.executed, 1u);
    EXPECT_EQ(s.backend.executed, 1u);
    EXPECT_EQ(s.backend.reused, kThreads - 1);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(results[t].get(), results[0].get())
            << "all requesters must share one immutable product";
}

TEST(StageCache, FailuresAreCachedAndRethrownAtEveryLevel)
{
    StageCache cache;
    tinyos::AppInfo broken{"Broken", "Mica2", "void main( {", {}, "test", {}};
    PipelineConfig cfg = configFor(ConfigId::Baseline, broken.platform);
    EXPECT_THROW(cache.build(broken, cfg), std::exception);
    EXPECT_THROW(cache.build(broken, cfg), std::exception);
    EXPECT_THROW(cache.frontend(broken), std::exception);
    StageCacheStats s = cache.stats();
    EXPECT_EQ(s.frontend.executed, 1u)
        << "the failed parse must be memoized, not retried";
    EXPECT_EQ(s.backend.executed, 1u);
    EXPECT_EQ(s.backend.reused, 1u);
}

TEST(StageCache, SafetyFingerprintIgnoresCxpropOptions)
{
    const auto &app = appByName("BlinkTask");
    PipelineConfig c4 = configFor(ConfigId::SafeFlid, app.platform);
    PipelineConfig c5 =
        configFor(ConfigId::SafeFlidCxprop, app.platform);
    PipelineConfig c6 =
        configFor(ConfigId::SafeFlidInlineCxprop, app.platform);

    // C4/C5/C6 share the FLID safety transform: one safety key.
    EXPECT_EQ(StageCache::safetyKey(app, c4),
              StageCache::safetyKey(app, c5));
    EXPECT_EQ(StageCache::safetyKey(app, c4),
              StageCache::safetyKey(app, c6));
    // ...but distinct opt keys where cXprop options differ.
    EXPECT_NE(StageCache::optKey(app, c5), StageCache::optKey(app, c6));

    // Tweaking only CxpropOptions must not invalidate the safety
    // stage; tweaking SafetyConfig must.
    PipelineConfig cxTweak = c6;
    cxTweak.cxprop.domains.knownBits = false;
    EXPECT_EQ(StageCache::safetyKey(app, c6),
              StageCache::safetyKey(app, cxTweak));
    EXPECT_NE(StageCache::optKey(app, c6),
              StageCache::optKey(app, cxTweak));

    PipelineConfig safetyTweak = c6;
    safetyTweak.safety.errorMode = safety::ErrorMode::Terse;
    EXPECT_NE(StageCache::safetyKey(app, c6),
              StageCache::safetyKey(app, safetyTweak));

    // Baseline/C7 share the unsafe pass-through.
    PipelineConfig base = configFor(ConfigId::Baseline, app.platform);
    PipelineConfig c7 =
        configFor(ConfigId::UnsafeInlineCxprop, app.platform);
    EXPECT_EQ(StageCache::safetyKey(app, base),
              StageCache::safetyKey(app, c7));

    // The platform only enters at the backend stage.
    PipelineConfig telos = c4;
    telos.platform = "TelosB";
    EXPECT_EQ(StageCache::optKey(app, c4),
              StageCache::optKey(app, telos));
    EXPECT_NE(StageCache::buildKey(app, c4),
              StageCache::buildKey(app, telos));
}

TEST(StageCache, SharedFingerprintsShareOneExecution)
{
    StageCache cache;
    const auto &app = appByName("BlinkTask");
    PipelineConfig c4 = configFor(ConfigId::SafeFlid, app.platform);
    PipelineConfig c5 =
        configFor(ConfigId::SafeFlidCxprop, app.platform);
    PipelineConfig c6 =
        configFor(ConfigId::SafeFlidInlineCxprop, app.platform);

    auto r4 = cache.build(app, c4);
    auto r5 = cache.build(app, c5);
    auto r6 = cache.build(app, c6);
    ASSERT_NE(r4, nullptr);
    ASSERT_NE(r5, nullptr);
    ASSERT_NE(r6, nullptr);

    StageCacheStats s = cache.stats();
    EXPECT_EQ(s.frontend.executed, 1u);
    EXPECT_EQ(s.safety.executed, 1u)
        << "C4/C5/C6 must share one safety run";
    EXPECT_EQ(s.opt.executed, 3u);
    EXPECT_EQ(s.backend.executed, 3u);
    // The shared safety product is one object, not three equal ones.
    EXPECT_EQ(cache.safety(app, c4).get(), cache.safety(app, c6).get());

    // A different safety config forces a new safety run.
    PipelineConfig c1 =
        configFor(ConfigId::SafeVerboseRam, app.platform);
    cache.build(app, c1);
    EXPECT_EQ(cache.stats().safety.executed, 2u);
    EXPECT_EQ(cache.stats().frontend.executed, 1u);
}

TEST(StageCache, CompanionAliasesTheMatrixBaselineCell)
{
    StageCache cache;
    const auto &app = appByName("CntToLedsAndRfm");
    PipelineConfig base = configFor(ConfigId::Baseline, app.platform);
    auto cell = cache.build(app, base);
    size_t builds = cache.stats().backend.executed;

    bool builtHere = false;
    auto decoded =
        cache.companionDecode(app.name, app.platform, &builtHere);
    EXPECT_TRUE(builtHere);
    EXPECT_EQ(cache.stats().backend.executed, builds)
        << "the companion must reuse the matrix's Baseline build";
    EXPECT_EQ(&decoded->program(), &cell->image)
        << "the companion decode must wrap the cached BuildResult";
    EXPECT_EQ(cache.companionDecode(app.name, app.platform), decoded);
    EXPECT_EQ(cache.companionBuilds(), 1u);
    EXPECT_EQ(cache.companionHits(), 1u);
}

/** Executions of each stage in `b`, indexed by Stage. */
std::array<size_t, 4>
stageRuns(const BuildReport &b)
{
    std::array<size_t, 4> runs;
    for (Stage s : kStages)
        runs[static_cast<size_t>(s)] = b.stages[s].runs;
    return runs;
}

TEST(StageCache, Figure3CachedMatchesColdByteForByte)
{
    // The acceptance gate of the whole redesign: on the full Figure-3
    // matrix, safety executions equal the number of distinct
    // (app, safety-fingerprint) pairs — 5 error-mode variants per app,
    // not 8 cells — while every cached BuildResult stays
    // byte-identical to a cold per-cell compile. The cached run
    // writes a fresh artifact store holding one build per distinct
    // build key and nothing else, which must then serve a warm run
    // without executing a stage, and turn a truncated artifact into
    // exactly one correct rebuild from source.
    const fs::path dir =
        fs::temp_directory_path() /
        ("stos-stagecache-figure3-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    Experiment exp = figure3Matrix();
    // Each run binds a fresh store and cache to the one directory, as
    // a separate process would.
    ArtifactStoreStats storeStats;  // the last run's store counters
    auto runOverStore = [&] {
        ArtifactStore store(CacheOptions{dir.string()});
        StageCache cache(&store);
        ExperimentReport rep = exp.run(cache);
        storeStats = store.stats();
        return rep;
    };
    ExperimentReport cachedRep = runOverStore();
    ExperimentReport cold = exp.runSerialReference();
    const BuildReport &cached = cachedRep.builds;

    ASSERT_TRUE(cached.allOk());
    ASSERT_TRUE(cold.allOk());
    const size_t apps = cached.numApps, cells = cached.records.size();
    EXPECT_EQ(cached.stages[Stage::Frontend].runs, apps);
    EXPECT_EQ(cached.stages[Stage::Frontend].reuses, cells - apps);
    EXPECT_EQ(cached.stages[Stage::Safety].runs, 5 * apps)
        << "unsafe + VerboseRam + VerboseRom + Terse + Flid per app";
    EXPECT_EQ(cached.stages[Stage::Safety].reuses, 3 * apps)
        << "C5/C6 reuse C4's safety run; C7 reuses Baseline's";
    EXPECT_EQ(cached.stages[Stage::Opt].runs, cells)
        << "every Figure-3 column has a distinct opt fingerprint chain";
    EXPECT_EQ(cached.stages[Stage::Opt].reuses, 0u);
    EXPECT_EQ(cached.stages[Stage::Backend].runs, cells);
    EXPECT_EQ(cached.stages[Stage::Backend].reuses, 0u);
    std::string why;
    EXPECT_TRUE(Experiment::reportsEquivalent(cold, cachedRep, &why))
        << why;

    // Only builds are persisted: one artifact per distinct build key.
    std::set<std::string> buildKeys;
    for (const auto &app : exp.apps())
        for (const auto &spec : exp.configs())
            buildKeys.insert(
                StageCache::buildKey(app, spec.make(app.platform)));
    EXPECT_EQ(storeStats.writes, buildKeys.size());
    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        EXPECT_TRUE(name.rfind("backend-", 0) == 0 &&
                    entry.path().extension() == ".art")
            << name;
        ++files;
    }
    EXPECT_EQ(files, buildKeys.size());

    // The incremental cXprop fixpoint must keep skipping functions
    // whose inputs did not change. The ratio is a deterministic
    // function of the corpus and the analysis, so a fixed floor
    // cannot flake.
    uint64_t analyses = 0, skipped = 0;
    for (const auto &r : cached.records) {
        const opt::CxpropReport &cx = r.result->cxpropReport;
        if (cx.rounds > 0) {
            analyses += cx.funcAnalyses;
            skipped += cx.funcAnalysesSkipped;
        }
    }
    ASSERT_GT(analyses, 0u);
    EXPECT_GE(static_cast<double>(skipped) / static_cast<double>(analyses),
              0.3)
        << skipped << " of " << analyses << " function analyses skipped";

    // Warm: every cell loads its backend artifact; no stage runs.
    ExperimentReport warm = runOverStore();
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(stageRuns(warm.builds), (std::array<size_t, 4>{}));
    EXPECT_EQ(warm.builds.stages[Stage::Backend].diskHits, cells);
    EXPECT_TRUE(Experiment::reportsEquivalent(cold, warm, &why)) << why;

    // The store detects a truncated backend artifact, and the cell
    // degrades to a miss: one rebuild from source, nothing else.
    ArtifactStore store(CacheOptions{dir.string()});
    const AppInfo &app0 = allApps().front();
    const std::string victim = store.pathFor(
        Stage::Backend,
        StageCache::buildKey(app0,
                             configFor(ConfigId::Baseline, app0.platform)));
    fs::resize_file(victim, fs::file_size(victim) / 2);
    StageCache cache(&store);
    ExperimentReport rebuilt = exp.run(cache);
    ASSERT_TRUE(rebuilt.allOk());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(stageRuns(rebuilt.builds),
              (std::array<size_t, 4>{1, 1, 1, 1}));
    EXPECT_TRUE(Experiment::reportsEquivalent(cold, rebuilt, &why))
        << why;
    fs::remove_all(dir);
}

TEST(StageCache, WarmBuildDecodesATrapLikeAColdBuild)
{
    // The stored build carries the FLID table, so a build served from
    // the store decodes a trap's FLID to the source location a cold
    // buildApp of the same cell names.
    const AppInfo app{"buggy", "Mica2", R"TC(
        u8 buf[4];
        u8 idx;
        task void smash() {
            u8 i = 0;
            while (i <= idx) {     // idx reaches 4: off by one
                buf[i] = 7;
                i = (u8)(i + 1);
            }
            if (idx < 4) { idx = (u8)(idx + 1); }
            post smash;
        }
        interrupt(TIMER0) void on_t() { post smash; }
        void main() {
            stos_timer0_start(64);
            stos_run_scheduler();
        }
    )TC", {}, "test", {}};
    const PipelineConfig cfg = configFor(ConfigId::SafeFlid, app.platform);
    const fs::path dir =
        fs::temp_directory_path() /
        ("stos-stagecache-flid-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    ArtifactStore store(CacheOptions{dir.string()});
    StageCache(&store).build(app, cfg);
    StageCache warmCache(&store);
    auto warm = warmCache.build(app, cfg);
    ASSERT_EQ(warmCache.stats().backend.diskHits, 1u);

    sim::Machine mote(warm->image, 1);
    mote.boot();
    mote.runUntilCycle(4'000'000);
    ASSERT_TRUE(mote.wedged()) << "the bounds check should have fired";
    const uint32_t flid = mote.failedFlid();
    ASSERT_NE(flid, 0u);

    const FullBuild cold = buildApp(app, cfg);
    const std::string msg = safety::decodeFlid(warm->flidTable, flid);
    EXPECT_EQ(msg, safety::decodeFlid(cold.flidTable, flid));
    EXPECT_EQ(msg.rfind("buggy.tc:", 0), 0u) << msg;
    fs::remove_all(dir);
}

TEST(StageCache, PersistentCacheServesARepeatRunEntirely)
{
    StageCache cache;
    Experiment exp;
    exp.options().simulate = false;
    exp.addApp(appByName("BlinkTask"));
    exp.addApp(appByName("SenseToRfm"));
    exp.addConfig(ConfigId::Baseline);
    exp.addConfig(ConfigId::SafeFlid);

    BuildReport first = exp.buildMatrix(cache);
    ASSERT_TRUE(first.allOk());
    EXPECT_EQ(first.stages[Stage::Backend].runs, first.records.size());

    BuildReport second = exp.buildMatrix(cache);
    ASSERT_TRUE(second.allOk());
    for (Stage s : kStages)
        EXPECT_EQ(second.stages[s].runs, 0u)
            << "a repeat run over one cache must rebuild nothing";
    EXPECT_EQ(second.stages[Stage::Backend].reuses, second.records.size());
    for (size_t i = 0; i < first.records.size(); ++i) {
        std::string why;
        EXPECT_TRUE(BuildDriver::recordsEquivalent(
            first.records[i], second.records[i], &why))
            << why;
    }
}

TEST(StageCache, ContentKeyedAppsDoNotCollideOnName)
{
    StageCache cache;
    tinyos::AppInfo a{"same", "Mica2",
                      "void main() { stos_run_scheduler(); }", {},
                      "test", {}};
    tinyos::AppInfo b{"same", "Mica2",
                      "task void t() { } void main() { post t; "
                      "stos_run_scheduler(); }",
                      {}, "test", {}};
    EXPECT_NE(StageCache::appKey(a), StageCache::appKey(b));
    PipelineConfig cfg = configFor(ConfigId::Baseline, "Mica2");
    auto ra = cache.build(a, cfg);
    auto rb = cache.build(b, cfg);
    EXPECT_EQ(cache.stats().frontend.executed, 2u);
    EXPECT_NE(ra.get(), rb.get());
}

TEST(StageCache, FrontendKeyIsSensitiveToTheLibrarySource)
{
    // The frontend parses library + app together, so the appKey must
    // fingerprint both inputs: an edit to the shared TinyOS library
    // has to miss the cache, not silently serve the pre-edit product
    // (the bug: only the app source was hashed).
    const auto &app = appByName("BlinkTask");
    EXPECT_EQ(StageCache::appKey(app),
              StageCache::appKey(app, tinyos::libSource()));
    std::string editedLib =
        tinyos::libSource() + "\nu8 __lib_extra;\n";
    EXPECT_NE(StageCache::appKey(app),
              StageCache::appKey(app, editedLib))
        << "a library edit must change the frontend content key";
    // The whole downstream chain inherits the miss.
    PipelineConfig cfg =
        configFor(ConfigId::SafeFlidInlineCxprop, app.platform);
    EXPECT_NE(StageCache::appKey(app, editedLib) + "|" +
                  safetyFingerprint(cfg),
              StageCache::safetyKey(app, cfg));
}

TEST(BuildReport, SummaryAndEmittersSurfaceStageCounters)
{
    Experiment exp;
    exp.options().simulate = false;
    exp.addApp(appByName("BlinkTask"));
    exp.addConfig(ConfigId::SafeFlid);
    exp.addConfig(ConfigId::SafeFlidCxprop);
    BuildReport rep = exp.run().builds;
    ASSERT_TRUE(rep.allOk());
    EXPECT_EQ(rep.stages[Stage::Safety].runs, 1u);
    EXPECT_EQ(rep.stages[Stage::Safety].reuses, 1u);

    EXPECT_NE(rep.summary().find("safety 1/1"), std::string::npos)
        << rep.summary();

    std::ostringstream json;
    rep.emitJson(json);
    EXPECT_NE(json.str().find("\"safety_runs\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"stage_reuses\":"), std::string::npos);
    EXPECT_NE(json.str().find("\"safety_reused\": true"),
              std::string::npos);

    std::ostringstream csv;
    rep.emitCsv(csv);
    std::istringstream in(csv.str());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_NE(header.find("safety_reused"), std::string::npos);
    EXPECT_NE(header.find("opt_reused"), std::string::npos);
}

} // namespace
} // namespace stos
