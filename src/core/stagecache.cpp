/**
 * @file
 * StageCache implementation. Every stage follows the same pattern:
 * resolve the entry under the map mutex, then execute the stage body
 * at most once via the entry's once_flag (concurrent requesters block
 * on the first execution and share the product; failures are cached
 * and rethrown). A stage body requests its upstream product through
 * the cache, so chains nest strictly downstream -> upstream and can
 * never deadlock. Counters are relaxed atomics — they are statistics,
 * not synchronization.
 *
 * With a backing ArtifactStore attached, the once-body first consults
 * the store: a disk hit materializes the product without running the
 * stage (counted as a diskHit, never as executed), and a freshly
 * executed product is written back. Because a request chain stops at
 * its first hit, a fully warmed store serves a build from the single
 * backend artifact — the upstream stages are never even requested.
 * Failures are never persisted, so a failing stage re-runs (and
 * rethrows) per process.
 */
#include "core/stagecache.h"

#include <functional>

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
// Store plumbing
//---------------------------------------------------------------------

template <typename T>
std::shared_ptr<const T>
StageCache::tryLoad(Stage stage, const std::string &key)
{
    if (!store_)
        return nullptr;
    std::string blob;
    if (!store_->load(stage, key, &blob))
        return nullptr;
    try {
        support::BinReader r(blob);
        auto product = std::make_shared<const T>(T::deserialize(r));
        return product;
    } catch (const support::TruncatedData &) {
        // Hash-valid artifact that fails to decode: a serializer
        // changed shape without a kStoreFormatVersion bump. Degrade
        // to a miss — the stage re-runs and its write-back replaces
        // the stale artifact.
        return nullptr;
    }
}

template <typename T>
void
StageCache::writeBack(Stage stage, const std::string &key,
                      const T &product)
{
    if (!store_)
        return;
    support::BinWriter w;
    product.serialize(w);
    store_->store(stage, key, w.data());
}

//---------------------------------------------------------------------
// Entries
//---------------------------------------------------------------------

template <typename T>
std::shared_ptr<StageCache::Entry<T>>
StageCache::entryFor(EntryMap<T> &map, const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = map[key];
    if (!slot)
        slot = std::make_shared<Entry<T>>();
    return slot;
}

std::shared_ptr<const FrontendProduct>
StageCache::frontend(const tinyos::AppInfo &app, StageHits *hits)
{
    const std::string key = appKey(app);
    auto entry = entryFor(frontends_, key);
    bool ran = false, disk = false;
    std::call_once(entry->once, [&] {
        ran = true;
        if ((entry->value = tryLoad<FrontendProduct>(Stage::Frontend,
                                                     key))) {
            disk = true;
            feDisk_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        try {
            entry->value = std::make_shared<const FrontendProduct>(
                runFrontend(app.name, app.source));
            writeBack(Stage::Frontend, key, *entry->value);
        } catch (...) {
            entry->error = std::current_exception();
        }
        feExec_.fetch_add(1, std::memory_order_relaxed);
    });
    if (!ran)
        feReuse_.fetch_add(1, std::memory_order_relaxed);
    if (hits)
        hits->frontend = !ran || disk;
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

std::shared_ptr<const SafetyProduct>
StageCache::safety(const tinyos::AppInfo &app, const PipelineConfig &cfg,
                   StageHits *hits)
{
    const std::string key = safetyKey(app, cfg);
    auto entry = entryFor(safeties_, key);
    bool ran = false, disk = false;
    std::call_once(entry->once, [&] {
        ran = true;
        if ((entry->value = tryLoad<SafetyProduct>(Stage::Safety, key))) {
            disk = true;
            saDisk_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        try {
            auto fe = frontend(app, hits);
            if (!cfg.safe) {
                // Unsafe pass-through: alias the frontend's module
                // rather than storing a clone — the product pins the
                // FrontendProduct alive but adds no module bytes.
                SafetyProduct sp;
                sp.module = std::shared_ptr<const ir::Module>(
                    fe, &fe->module);
                entry->value =
                    std::make_shared<const SafetyProduct>(std::move(sp));
            } else {
                entry->value = std::make_shared<const SafetyProduct>(
                    runSafetyStage(fe->module.clone(),
                                   fe->sourceManager.get(), cfg));
            }
            writeBack(Stage::Safety, key, *entry->value);
        } catch (...) {
            entry->error = std::current_exception();
        }
        saExec_.fetch_add(1, std::memory_order_relaxed);
    });
    if (!ran) {
        saReuse_.fetch_add(1, std::memory_order_relaxed);
        if (hits)
            hits->frontend = true;  // served transitively
    }
    if (disk && hits)
        hits->frontend = true;  // the whole upstream chain was skipped
    if (hits)
        hits->safety = !ran || disk;
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

std::shared_ptr<const OptProduct>
StageCache::opt(const tinyos::AppInfo &app, const PipelineConfig &cfg,
                StageHits *hits)
{
    const std::string key = optKey(app, cfg);
    auto entry = entryFor(opts_, key);
    bool ran = false, disk = false;
    std::call_once(entry->once, [&] {
        ran = true;
        if ((entry->value = tryLoad<OptProduct>(Stage::Opt, key))) {
            disk = true;
            opDisk_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        try {
            auto sp = safety(app, cfg, hits);
            // Pass config to the stage with the upstream product; the
            // no-cxprop pass-through shares sp's module pointer inside
            // runOptStage (no clone, no copy of the module).
            entry->value = std::make_shared<const OptProduct>(
                runOptStage({sp->module, sp->report}, cfg));
            writeBack(Stage::Opt, key, *entry->value);
        } catch (...) {
            entry->error = std::current_exception();
        }
        opExec_.fetch_add(1, std::memory_order_relaxed);
    });
    if (!ran) {
        opReuse_.fetch_add(1, std::memory_order_relaxed);
        if (hits) {
            hits->frontend = true;
            hits->safety = true;
        }
    }
    if (disk && hits) {
        hits->frontend = true;
        hits->safety = true;
    }
    if (hits)
        hits->opt = !ran || disk;
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

std::shared_ptr<const BuildResult>
StageCache::build(const tinyos::AppInfo &app, const PipelineConfig &cfg,
                  StageHits *hits)
{
    const std::string key = buildKey(app, cfg);
    auto entry = entryFor(builds_, key);
    bool ran = false, disk = false;
    std::call_once(entry->once, [&] {
        ran = true;
        if ((entry->value = tryLoad<BuildResult>(Stage::Backend, key))) {
            disk = true;
            beDisk_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        try {
            auto op = opt(app, cfg, hits);
            entry->value = std::make_shared<const BuildResult>(
                runBackendStage(
                    {op->module, op->safetyReport, op->report}, cfg));
            writeBack(Stage::Backend, key, *entry->value);
        } catch (...) {
            entry->error = std::current_exception();
        }
        beExec_.fetch_add(1, std::memory_order_relaxed);
    });
    if (!ran) {
        beReuse_.fetch_add(1, std::memory_order_relaxed);
        if (hits) {
            hits->frontend = true;
            hits->safety = true;
            hits->opt = true;
        }
    }
    if (disk && hits) {
        hits->frontend = true;
        hits->safety = true;
        hits->opt = true;
    }
    if (hits)
        hits->backend = !ran || disk;
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

//---------------------------------------------------------------------
// Companions
//---------------------------------------------------------------------

std::shared_ptr<const sim::DecodedProgram>
StageCache::companionDecode(const std::string &name,
                            const std::string &platform, bool *builtHere)
{
    std::shared_ptr<Entry<sim::DecodedProgram>> entry;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &slot = companions_[{name, platform}];
        if (!slot)
            slot = std::make_shared<Entry<sim::DecodedProgram>>();
        entry = slot;
    }
    bool ran = false;
    std::call_once(entry->once, [&] {
        ran = true;
        try {
            const auto &app = tinyos::appByName(name);
            PipelineConfig base = configFor(ConfigId::Baseline, platform);
            // The firmware itself is the ordinary backend entry of
            // (app, Baseline, platform) — shared with any matrix that
            // builds the same cell; this entry just aliases it and
            // memoizes the decode every simulating mote shares.
            auto br = build(app, base);
            entry->value = std::make_shared<const sim::DecodedProgram>(
                std::shared_ptr<const backend::MProgram>(br, &br->image));
        } catch (...) {
            entry->error = std::current_exception();
        }
        coBuilds_.fetch_add(1, std::memory_order_relaxed);
    });
    if (!ran)
        coHits_.fetch_add(1, std::memory_order_relaxed);
    if (builtHere)
        *builtHere = ran;
    if (entry->error)
        std::rethrow_exception(entry->error);
    return entry->value;
}

//---------------------------------------------------------------------
// Memory release & stats
//---------------------------------------------------------------------

void
StageCache::releaseIntermediateProducts()
{
    // Entries still referenced by in-flight requesters stay alive via
    // their shared_ptrs; dropping the maps only releases the cache's
    // own pins. builds_ and companions_ are kept — they are the final
    // products drivers keep consuming.
    std::lock_guard<std::mutex> lock(mu_);
    frontends_.clear();
    safeties_.clear();
    opts_.clear();
}

StageCacheStats
StageCache::stats() const
{
    StageCacheStats s;
    s.frontend = {feExec_.load(), feReuse_.load(), feDisk_.load()};
    s.safety = {saExec_.load(), saReuse_.load(), saDisk_.load()};
    s.opt = {opExec_.load(), opReuse_.load(), opDisk_.load()};
    s.backend = {beExec_.load(), beReuse_.load(), beDisk_.load()};
    return s;
}

} // namespace stos::core
