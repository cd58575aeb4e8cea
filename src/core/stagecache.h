/**
 * @file
 * StageCache: a thread-safe, content-keyed memo of the pipeline's
 * stage graph (Frontend -> Safety -> Opt -> Backend). Every product
 * is keyed by (app identity, stage-relevant fingerprint chain of the
 * PipelineConfig), so evaluation-matrix columns that only diverge
 * late share the early work: C4/C5/C6 differ only in cXprop options
 * and share one safety run per app; Baseline/C7 share the unsafe
 * pass-through; repeated runs over one cache (equivalence gates)
 * rebuild nothing at all. Companion mote firmware is an ordinary
 * backend entry plus a memoized decode. With an ArtifactStore
 * attached, only backend products are persisted and read back.
 *
 * The first requester of a key executes the stage; concurrent
 * requesters block on that execution and share the immutable product.
 * Failures are cached and rethrown to every requester. All products
 * are immutable after construction, so sharing needs no further
 * locking.
 */
#ifndef STOS_CORE_STAGECACHE_H
#define STOS_CORE_STAGECACHE_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/artifactstore.h"
#include "core/pipeline.h"
#include "sim/decoded.h"
#include "tinyos/tinyos.h"

namespace stos::core {

/** Execution counters of one stage. A request is served exactly one
 *  way: executed + diskHits + reused = requests. */
struct StageStats {
    size_t executed = 0;  ///< stage bodies actually run
    size_t reused = 0;    ///< requests served from the in-memory memo
    size_t diskHits = 0;  ///< entries materialized from the store
};

/** Snapshot of every stage's counters. */
struct StageCacheStats {
    StageStats frontend, safety, opt, backend;
};

/**
 * Which stages of one request chain were served from the cache. A
 * stage served from the cache implies everything upstream of it was
 * too (the chain never re-executes above a hit).
 */
using StageHits = PerStage<bool>;

class StageCache {
  public:
    /** In-memory-only cache (the default, and the pre-store API). */
    StageCache() = default;
    /**
     * Cache backed by an on-disk store (not owned; may be null for
     * in-memory-only). On a memo miss the backend stage first
     * consults the store — a disk hit materializes the build without
     * running any stage — and every freshly built product is written
     * back. Upstream products stay in memory: nothing reads them back.
     */
    explicit StageCache(ArtifactStore *store) : store_(store) {}
    StageCache(const StageCache &) = delete;
    StageCache &operator=(const StageCache &) = delete;

    /** The backing store, or null when in-memory only. */
    ArtifactStore *store() const { return store_; }

    //--- key derivation (exposed so benches and tests can predict
    //--- sharing: two cells share a stage iff their keys match) ----
    /**
     * Content key of the frontend stage: app identity plus a
     * fingerprint of the frontend's whole input — the app source AND
     * the shared TinyOS library baked into every parse. Keying on the
     * app source alone served stale products after a library edit.
     */
    static std::string appKey(const tinyos::AppInfo &app);
    /** As above with an explicit library source (fingerprint tests). */
    static std::string appKey(const tinyos::AppInfo &app,
                              const std::string &librarySource);
    static std::string safetyKey(const tinyos::AppInfo &app,
                                 const PipelineConfig &cfg);
    static std::string optKey(const tinyos::AppInfo &app,
                              const PipelineConfig &cfg);
    static std::string buildKey(const tinyos::AppInfo &app,
                                const PipelineConfig &cfg);

    //--- stage products -------------------------------------------
    std::shared_ptr<const FrontendProduct>
    frontend(const tinyos::AppInfo &app, StageHits *hits = nullptr);

    std::shared_ptr<const SafetyProduct>
    safety(const tinyos::AppInfo &app, const PipelineConfig &cfg,
           StageHits *hits = nullptr);

    std::shared_ptr<const OptProduct>
    opt(const tinyos::AppInfo &app, const PipelineConfig &cfg,
        StageHits *hits = nullptr);

    /** The full build (backend product) of one matrix cell. */
    std::shared_ptr<const BuildResult>
    build(const tinyos::AppInfo &app, const PipelineConfig &cfg,
          StageHits *hits = nullptr);

    //--- companion firmware ---------------------------------------
    /**
     * The shared decode of Baseline firmware for registry app `name`
     * on `platform`. The image it wraps (program()) is an alias into
     * the backend entry of (app, Baseline config), so a matrix that
     * already built that cell shares it outright. `builtHere`, when
     * non-null, reports whether this call materialized the companion
     * entry (vs being served from it).
     */
    std::shared_ptr<const sim::DecodedProgram>
    companionDecode(const std::string &name, const std::string &platform,
                    bool *builtHere = nullptr);

    //--- counters -------------------------------------------------
    /**
     * Per-stage request counters. `reused` counts requests served
     * from the memo at that stage — note a request chain stops at its
     * first hit, so upstream stages never see the request at all
     * (drivers derive per-cell reuse from StageHits instead).
     */
    StageCacheStats stats() const;
    /** One stage's counters. */
    StageStats stats(Stage stage) const;

    /** Companion entries materialized / served from the memo. */
    size_t companionBuilds() const { return coBuilds_.load(); }
    size_t companionHits() const { return coHits_.load(); }

  private:
    template <typename T> struct Entry {
        std::once_flag once;
        std::shared_ptr<const T> value;
        std::exception_ptr error;
    };
    template <typename T, typename K = std::string>
    using EntryMap = std::map<K, std::shared_ptr<Entry<T>>>;

    /**
     * Resolve the entry of `key` and run `body` (which returns the
     * product) at most once for it, caching a thrown error in the
     * entry. Sets `*ran` when this call ran the body.
     */
    template <typename T, typename K, typename Body>
    std::shared_ptr<Entry<T>> once(EntryMap<T, K> &map, const K &key,
                                   bool *ran, Body body);

    /**
     * The memo body every stage shares: serve (stage, key) from the
     * memo, else by running `body(disk)` (which requests its upstream
     * product and runs the stage function, or sets `disk` when it
     * materialized the product from the store instead). Counts the
     * request and records how it was served in `hits`, then returns
     * the product or rethrows the cached failure.
     */
    template <typename T, typename Body>
    std::shared_ptr<const T> memo(EntryMap<T> &map, Stage stage,
                                  const std::string &key, StageHits *hits,
                                  Body body);

    struct Counters {
        std::atomic<size_t> executed{0}, reused{0}, diskHits{0};
    };

    ArtifactStore *store_ = nullptr;
    mutable std::mutex mu_;
    EntryMap<FrontendProduct> frontends_;
    EntryMap<SafetyProduct> safeties_;
    EntryMap<OptProduct> opts_;
    EntryMap<BuildResult> builds_;
    EntryMap<sim::DecodedProgram, std::pair<std::string, std::string>>
        companions_;

    PerStage<Counters> counters_;
    std::atomic<size_t> coBuilds_{0}, coHits_{0};
};

} // namespace stos::core

#endif
