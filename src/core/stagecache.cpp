/**
 * @file
 * StageCache implementation. Every stage runs through one memo body:
 * resolve the entry under the map mutex, then run the stage at most
 * once via the entry's once_flag (concurrent requesters block on the
 * first execution and share the product; failures are cached and
 * rethrown). A stage body requests its upstream product through the
 * cache, so chains nest strictly downstream -> upstream and can never
 * deadlock. Counters are relaxed atomics — they are statistics, not
 * synchronization.
 *
 * With a backing ArtifactStore attached, the backend body — and only
 * it — first consults the store: a disk hit materializes the build
 * without running any stage (counted as a diskHit, never as
 * executed), and a freshly built product is written back. The
 * frontend, safety and opt products are memoized in memory only: a
 * run reads back nothing but whole builds, so a backend miss
 * (including a corrupt artifact) rebuilds its cell from source.
 * Failures are never persisted, so a failing stage re-runs (and
 * rethrows) per process.
 */
#include "core/stagecache.h"

#include "support/binio.h"

namespace stos::core {

//---------------------------------------------------------------------
// Keys
//---------------------------------------------------------------------

std::string
StageCache::appKey(const tinyos::AppInfo &app)
{
    return appKey(app, tinyos::libSource());
}

std::string
StageCache::appKey(const tinyos::AppInfo &app,
                   const std::string &librarySource)
{
    // Content-keyed: two rows with the same name but different source
    // (a tweaked custom app) must not collide. The frontend parses
    // library + app together, so the library source is part of the
    // fingerprint — an edit to the shared TinyOS library must miss,
    // not silently serve stale products. The frontend is
    // platform-independent, so the platform is deliberately absent —
    // it enters the chain in the backend fingerprint. FNV-1a rather
    // than std::hash: keys name on-disk artifacts shared across
    // processes, so the hash must be stable across runs and builds.
    char hex[4 * sizeof(uint64_t) + 2];
    snprintf(hex, sizeof hex, "%llx.%llx",
             static_cast<unsigned long long>(support::fnv1a64(app.source)),
             static_cast<unsigned long long>(
                 support::fnv1a64(librarySource)));
    return app.name + "#" + hex;
}

std::string
StageCache::safetyKey(const tinyos::AppInfo &app,
                      const PipelineConfig &cfg)
{
    return appKey(app) + "|" + safetyFingerprint(cfg);
}

std::string
StageCache::optKey(const tinyos::AppInfo &app, const PipelineConfig &cfg)
{
    return safetyKey(app, cfg) + "|" + optFingerprint(cfg);
}

std::string
StageCache::buildKey(const tinyos::AppInfo &app,
                     const PipelineConfig &cfg)
{
    return optKey(app, cfg) + "|" + backendFingerprint(cfg);
}

//---------------------------------------------------------------------
// The memo body
//---------------------------------------------------------------------

namespace {

/**
 * Record how one request for `stage` was served. A request chain
 * stops at its first hit, so a served stage marks itself and every
 * stage upstream of it; an executed stage clears its own flag (its
 * body's upstream request already recorded the stages above it).
 */
void
markHits(StageHits *hits, Stage stage, bool served)
{
    if (!hits)
        return;
    if (!served) {
        (*hits)[stage] = false;
        return;
    }
    for (size_t i = 0; i <= static_cast<size_t>(stage); ++i)
        hits->each[i] = true;
}

} // namespace

template <typename T, typename K, typename Body>
std::shared_ptr<StageCache::Entry<T>>
StageCache::once(EntryMap<T, K> &map, const K &key, bool *ran, Body body)
{
    std::shared_ptr<Entry<T>> entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &slot = map[key];
        if (!slot)
            slot = std::make_shared<Entry<T>>();
        entry = slot;
    }
    std::call_once(entry->once, [&] {
        *ran = true;
        try {
            entry->value = body();
        } catch (...) {
            entry->error = std::current_exception();
        }
    });
    return entry;
}

template <typename T, typename Body>
std::shared_ptr<const T>
StageCache::memo(EntryMap<T> &map, Stage stage, const std::string &key,
                 StageHits *hits, Body body)
{
    Counters &n = counters_[stage];
    bool ran = false, disk = false;
    auto entry = once(map, key, &ran, [&] {
        return std::make_shared<const T>(body(disk));
    });
    (!ran ? n.reused : disk ? n.diskHits : n.executed)
        .fetch_add(1, std::memory_order_relaxed);
    markHits(hits, stage, !ran || disk);
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

//---------------------------------------------------------------------
// Stages
//---------------------------------------------------------------------

std::shared_ptr<const FrontendProduct>
StageCache::frontend(const tinyos::AppInfo &app, StageHits *hits)
{
    return memo(frontends_, Stage::Frontend, appKey(app), hits, [&](bool &) {
        return runFrontend(app.name, app.source);
    });
}

std::shared_ptr<const SafetyProduct>
StageCache::safety(const tinyos::AppInfo &app, const PipelineConfig &cfg,
                   StageHits *hits)
{
    return memo(safeties_, Stage::Safety, safetyKey(app, cfg), hits,
                [&](bool &) {
        auto fe = frontend(app, hits);
        if (cfg.safe)
            return runSafetyStage(fe->module.clone(),
                                  fe->sourceManager.get(), cfg);
        // Unsafe pass-through: alias the frontend's module rather
        // than storing a clone — the product pins the FrontendProduct
        // alive but adds no module bytes.
        SafetyProduct sp;
        sp.module = std::shared_ptr<const ir::Module>(fe, &fe->module);
        return sp;
    });
}

std::shared_ptr<const OptProduct>
StageCache::opt(const tinyos::AppInfo &app, const PipelineConfig &cfg,
                StageHits *hits)
{
    return memo(opts_, Stage::Opt, optKey(app, cfg), hits, [&](bool &) {
        // The no-cxprop pass-through shares sp's module pointer inside
        // runOptStage (no clone, no copy of the module).
        auto sp = safety(app, cfg, hits);
        return runOptStage({sp->module, sp->report}, cfg);
    });
}

std::shared_ptr<const BuildResult>
StageCache::build(const tinyos::AppInfo &app, const PipelineConfig &cfg,
                  StageHits *hits)
{
    const std::string key = buildKey(app, cfg);
    return memo(builds_, Stage::Backend, key, hits, [&](bool &disk) {
        std::string blob;
        if (store_ && store_->load(Stage::Backend, key, &blob)) {
            try {
                support::BinReader r(blob);
                BuildResult br = BuildResult::deserialize(r);
                disk = true;
                return br;
            } catch (const support::TruncatedData &) {
                // Hash-valid artifact that fails to decode: a
                // serializer changed shape without a
                // kStoreFormatVersion bump. Degrade to a miss — the
                // cell rebuilds and its write-back replaces the stale
                // artifact.
            }
        }
        auto op = opt(app, cfg, hits);
        BuildResult br = runBackendStage(
            {op->module, op->safetyReport, op->report}, cfg);
        if (store_) {
            support::BinWriter w;
            br.serialize(w);
            store_->store(Stage::Backend, key, w.data());
        }
        return br;
    });
}

//---------------------------------------------------------------------
// Companions & stats
//---------------------------------------------------------------------

std::shared_ptr<const sim::DecodedProgram>
StageCache::companionDecode(const std::string &name,
                            const std::string &platform, bool *builtHere)
{
    bool ran = false;
    auto entry = once(companions_, std::make_pair(name, platform), &ran,
                      [&] {
        // The firmware itself is the ordinary backend entry of (app,
        // Baseline, platform) — shared with any matrix that builds the
        // same cell; this entry just aliases it and memoizes the
        // decode every simulating mote shares.
        auto br = build(tinyos::appByName(name),
                        configFor(ConfigId::Baseline, platform));
        return std::make_shared<const sim::DecodedProgram>(
            std::shared_ptr<const backend::MProgram>(br, &br->image));
    });
    (ran ? coBuilds_ : coHits_).fetch_add(1, std::memory_order_relaxed);
    if (builtHere)
        *builtHere = ran;
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

StageStats
StageCache::stats(Stage stage) const
{
    const Counters &n = counters_[stage];
    return {n.executed.load(), n.reused.load(), n.diskHits.load()};
}

StageCacheStats
StageCache::stats() const
{
    return {stats(Stage::Frontend), stats(Stage::Safety),
            stats(Stage::Opt), stats(Stage::Backend)};
}

} // namespace stos::core
