/**
 * @file
 * The build-matrix vocabulary (ConfigSpec / BuildRecord /
 * BuildReport) shared by the Experiment facade, plus the BuildDriver
 * equivalence helpers. The actual batch-compile engine (worker pool,
 * StageCache accounting, ArtifactStore plumbing) lives in
 * core/experiment.cpp; declare matrices on an Experiment directly.
 */
#ifndef STOS_CORE_DRIVER_H
#define STOS_CORE_DRIVER_H

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"

namespace stos::core {

/** One column of the evaluation matrix. */
struct ConfigSpec {
    std::string label;
    /** Build the PipelineConfig for an app's platform. */
    std::function<PipelineConfig(const std::string &platform)> make;
};

/** One cell of the built matrix. */
struct BuildRecord {
    std::string app;
    std::string platform;
    std::string config;       ///< column label
    /** The app's sensor-network companions (from its AppInfo), so
     *  downstream consumers (SimDriver) need no registry lookup. */
    std::vector<std::string> companions;
    uint32_t appIndex = 0;    ///< row in the requested matrix
    uint32_t configIndex = 0; ///< column in the requested matrix
    bool frontendReused = false; ///< frontend served from the cache
    bool safetyReused = false;   ///< safety stage served from the cache
    bool optReused = false;      ///< opt stage served from the cache
    bool backendReused = false;  ///< whole build served from the cache
    bool ok = false;
    std::string error;        ///< populated when the build failed
    /**
     * The cell's build product, shared immutably with the StageCache
     * (and any other cell of the same content key) — null unless ok.
     */
    std::shared_ptr<const BuildResult> result;
    double millis = 0.0;      ///< wall time of this cell's build
};

/** The whole matrix, app-major then config-minor (request order). */
struct BuildReport {
    size_t numApps = 0;
    size_t numConfigs = 0;
    std::vector<BuildRecord> records;
    size_t frontendParses = 0;  ///< frontend runs actually executed
    size_t frontendReuses = 0;  ///< cells served from the memo
    size_t safetyRuns = 0;      ///< safety stage executions
    size_t safetyReuses = 0;    ///< cells whose safety stage was shared
    size_t optRuns = 0;         ///< opt stage executions
    size_t optReuses = 0;       ///< cells whose opt stage was shared
    size_t backendRuns = 0;     ///< backend stage executions
    size_t backendReuses = 0;   ///< cells served whole from the cache
    size_t frontendDiskHits = 0; ///< frontends loaded from the store
    size_t safetyDiskHits = 0;   ///< safety products loaded from disk
    size_t optDiskHits = 0;      ///< opt products loaded from disk
    size_t backendDiskHits = 0;  ///< whole builds loaded from disk
    uint64_t cacheBytesRead = 0;    ///< artifact payload bytes read
    uint64_t cacheBytesWritten = 0; ///< artifact payload bytes written
    double wallMillis = 0.0;
    unsigned jobsUsed = 1;

    BuildRecord &at(size_t app, size_t cfg);
    const BuildRecord &at(size_t app, size_t cfg) const;
    /** Lookup by app name + column label; null if absent. */
    const BuildRecord *find(const std::string &app,
                            const std::string &config) const;
    bool allOk() const;
    /** Total post-frontend stage reuse (the stage-cache win). */
    size_t stageReuses() const
    {
        return safetyReuses + optReuses + backendReuses;
    }
    /** Stage products this run materialized from the artifact store. */
    size_t diskHits() const
    {
        return frontendDiskHits + safetyDiskHits + optDiskHits +
               backendDiskHits;
    }
    /** One-line stats string for benchmark headers. */
    std::string summary() const;

    /** One row per cell (RFC-4180 quoting), header line included. */
    void emitCsv(std::ostream &os) const;
    /** Matrix metadata + one object per cell. */
    void emitJson(std::ostream &os) const;
};

/**
 * Build-matrix equivalence vocabulary. The batch-compile engine
 * (worker pool, stage-cache accounting, artifact-store plumbing)
 * lives in the Experiment facade (core/experiment.h); declare
 * matrices on an Experiment directly. The parallel/memoized build
 * paths are gated against the serial reference with the helpers
 * below.
 */
class BuildDriver {
  public:
    /**
     * Deep equivalence of two build results (sizes, reports,
     * surviving checks, final IR text). `why` gets the first
     * difference when non-null.
     */
    static bool resultsEquivalent(const BuildResult &a,
                                  const BuildResult &b,
                                  std::string *why = nullptr);
    /** Record-level equivalence: identity fields + resultsEquivalent. */
    static bool recordsEquivalent(const BuildRecord &a,
                                  const BuildRecord &b,
                                  std::string *why = nullptr);
};

} // namespace stos::core

#endif
