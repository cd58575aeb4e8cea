/**
 * @file
 * ArtifactStore: the on-disk, content-addressed backing store behind
 * StageCache — ccache semantics for the whole pipeline. StageCache
 * persists each build (the backend product) under its chained content
 * key (appKey|safety|opt|backend fingerprints), so any process that
 * derives the same key reads the same artifact instead of re-running
 * the pipeline; a directory can be shared across processes of one
 * build of the toolchain. The store itself accepts any stage's
 * product; the stage byte only names and tags the file. Keys
 * fingerprint the app and library sources and the config, not the
 * compiler's own code, so a store written by another build may serve
 * stale products and must not be reused.
 *
 * Durability discipline:
 *  - writes go to a temp file, then an atomic rename — a crashed or
 *    concurrent writer can never leave a half-written artifact under
 *    the final name;
 *  - every artifact carries a format-version stamp and an FNV-1a
 *    payload hash — a version mismatch, truncation, or corruption
 *    degrades to a cache miss (the cell rebuilds and rewrites),
 *    never to a wrong answer;
 *  - the full key string is stored and verified on read, so a file
 *    name hash collision is also just a miss.
 *
 * On-disk layout: one file per entry,
 *
 *   <dir>/<stage>-<fnv1a64(key) as 16 hex chars>.art
 *
 * with header  magic "STOSART1" | u32 version | u8 stage |
 * key string | u64 payload size | u64 payload hash | payload.
 */
#ifndef STOS_CORE_ARTIFACTSTORE_H
#define STOS_CORE_ARTIFACTSTORE_H

#include <array>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <string>
#include <string_view>

namespace stos::core {

/** The stages of the build graph, in dataflow order. */
enum class Stage { Frontend, Safety, Opt, Backend };

/** Every stage, in dataflow order: what per-stage loops walk. */
inline constexpr Stage kStages[] = {Stage::Frontend, Stage::Safety,
                                    Stage::Opt, Stage::Backend};
inline constexpr size_t kNumStages = std::size(kStages);

const char *stageName(Stage s);

/** One T per stage, indexed by Stage (value-initialized). */
template <typename T> struct PerStage {
    std::array<T, kNumStages> each{};

    T &operator[](Stage s) { return each[static_cast<size_t>(s)]; }
    const T &operator[](Stage s) const
    {
        return each[static_cast<size_t>(s)];
    }
};

/**
 * Store format version. Stamped into every artifact; an artifact
 * written by any other version is invalidated (treated as a miss) on
 * read. Bump whenever a stored layout changes: a transfer() function
 * (ir/serialize.cpp, backend/serialize.cpp, core/serialize.cpp), a
 * serialized field's C++ type (support/binio.h derives its width), or
 * one of the remaining write/read pairs there. Bump it too when the
 * toolchain stores different *values* for the same input (say, a pass
 * now reports other counters): keys fingerprint the app and the
 * config, not the toolchain, so without a bump a store written by the
 * old code would keep serving the old values. test_golden's
 * store_manifest.golden hashes every product kind's bytes, so either
 * change fails it until the version is bumped and the fixture
 * re-blessed.
 */
inline constexpr uint32_t kStoreFormatVersion = 6;

/** Where an ArtifactStore lives (bench --cache-dir). */
struct CacheOptions {
    /** Store directory (created on demand). */
    std::string dir;
};

/** Store activity counters (monotonic over the store's lifetime). */
struct ArtifactStoreStats {
    size_t diskHits = 0;     ///< loads served from a valid artifact
    size_t misses = 0;       ///< loads with no artifact on disk
    size_t corrupt = 0;      ///< artifacts rejected (version/hash/key)
    size_t writes = 0;       ///< artifacts written back
    uint64_t bytesRead = 0;  ///< payload bytes of served hits
    uint64_t bytesWritten = 0;
};

class ArtifactStore {
  public:
    /** Opens (and creates) the store directory. Throws FatalError if
     *  the directory cannot be created. */
    explicit ArtifactStore(CacheOptions opts);
    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /**
     * Fetch the artifact for (stage, key) into `payload`. Returns
     * false on miss — including any rejected artifact (bad magic,
     * version mismatch, key mismatch, short file, payload hash
     * mismatch); a rejected file is unlinked so the rebuild's
     * write-back replaces it.
     */
    bool load(Stage stage, const std::string &key, std::string *payload);

    /** Persist an artifact. Crash-safe: temp file + atomic rename. */
    void store(Stage stage, const std::string &key,
               std::string_view payload);

    /** The artifact file path for (stage, key) — tests corrupt it. */
    std::string pathFor(Stage stage, const std::string &key) const;

    ArtifactStoreStats stats() const;

  private:
    CacheOptions opts_;
    mutable std::mutex mu_;
    ArtifactStoreStats stats_;
    uint64_t tmpCounter_ = 0;
};

} // namespace stos::core

#endif
