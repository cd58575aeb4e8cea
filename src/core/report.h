/**
 * @file
 * The report vocabulary of an Experiment: one record per matrix cell
 * (BuildRecord, SimRecord), the matrices that hold them (BuildReport,
 * SimReport), their CSV/JSON emitters and the static+dynamic join,
 * plus the equivalence helpers the serial/parallel gates are phrased
 * in. The engine that fills these reports lives in core/experiment.cpp.
 *
 * Every emitted column is declared once, in the column lists of
 * core/report.cpp: a column names itself, formats one cell, and says
 * when the cell is present. The CSV and JSON writers and the joined
 * table all walk those lists, so a new report field is one entry
 * there.
 */
#ifndef STOS_CORE_REPORT_H
#define STOS_CORE_REPORT_H

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/stagecache.h"

namespace stos::core {

/** One column of the evaluation matrix. */
struct ConfigSpec {
    std::string label;
    /** Build the PipelineConfig for an app's platform. */
    std::function<PipelineConfig(const std::string &platform)> make;
};

/**
 * The shape every matrix report shares: app-major, config-minor
 * records in request order, plus the run's wall time and job count.
 */
template <typename Record> struct MatrixReport {
    size_t numApps = 0;
    size_t numConfigs = 0;
    std::vector<Record> records;
    double wallMillis = 0.0;
    unsigned jobsUsed = 1;

    Record &at(size_t app, size_t cfg)
    {
        return records.at(app * numConfigs + cfg);
    }
    const Record &at(size_t app, size_t cfg) const
    {
        return records.at(app * numConfigs + cfg);
    }
    /** Lookup by app name + column label; null if absent. */
    const Record *find(const std::string &app,
                       const std::string &config) const
    {
        for (const auto &r : records) {
            if (r.app == app && r.config == config)
                return &r;
        }
        return nullptr;
    }
    bool allOk() const
    {
        for (const auto &r : records) {
            if (!r.ok)
                return false;
        }
        return true;
    }
};

/** Which matrix cell a record describes. */
struct CellId {
    std::string app;
    std::string platform;
    std::string config;       ///< column label
    uint32_t appIndex = 0;    ///< row in the requested matrix
    uint32_t configIndex = 0; ///< column in the requested matrix
};

/** One built cell of the matrix. */
struct BuildRecord : CellId {
    /** The app's sensor-network companions (from its AppInfo), so
     *  the simulation phase needs no registry lookup. */
    std::vector<std::string> companions;
    /** The stages served from the cache (backend: the whole build). */
    StageHits reused;
    bool ok = false;
    std::string error;        ///< populated when the build failed
    /**
     * The cell's build product, shared immutably with the StageCache
     * (and any other cell of the same content key) — null unless ok.
     */
    std::shared_ptr<const BuildResult> result;
    double millis = 0.0;      ///< wall time of this cell's build
};

/** What one stage did over a build phase. */
struct StageCount {
    size_t runs = 0;     ///< stage executions
    size_t reuses = 0;   ///< cells whose stage was served from the cache
    size_t diskHits = 0; ///< products loaded from the artifact store
};

/** The built matrix with its stage-graph counters. */
struct BuildReport : MatrixReport<BuildRecord> {
    PerStage<StageCount> stages;
    uint64_t cacheBytesRead = 0;    ///< artifact payload bytes read
    uint64_t cacheBytesWritten = 0; ///< artifact payload bytes written

    /** Total post-frontend stage reuse (the stage-cache win). */
    size_t stageReuses() const
    {
        size_t n = 0;
        for (Stage s : {Stage::Safety, Stage::Opt, Stage::Backend})
            n += stages[s].reuses;
        return n;
    }
    /** Stage products this run materialized from the artifact store. */
    size_t diskHits() const
    {
        size_t n = 0;
        for (Stage s : kStages)
            n += stages[s].diskHits;
        return n;
    }
    /** One-line stats string for benchmark headers. */
    std::string summary() const;

    /** One row per cell (RFC-4180 quoting), header line included. */
    void emitCsv(std::ostream &os) const;
    /** Matrix metadata + one object per cell. */
    void emitJson(std::ostream &os) const;
};

/** One simulated cell of the matrix. */
struct SimRecord : CellId {
    bool ok = false;
    std::string error;        ///< build or simulation failure
    SimOutcome outcome;       ///< valid only when ok
    bool companionsReused = false; ///< all companions came from the memo
    double millis = 0.0;      ///< wall time of this cell's simulation
};

/** The simulated matrix. */
struct SimReport : MatrixReport<SimRecord> {
    double seconds = 0.0;        ///< simulated duration per cell
    size_t companionBuilds = 0;  ///< companion compiles executed
    size_t companionReuses = 0;  ///< companion requests served by memo

    /** One-line stats string for benchmark headers. */
    std::string summary() const;

    /** One row per cell (RFC-4180 quoting), header line included. */
    void emitCsv(std::ostream &os) const;
    /** Matrix metadata + one object per cell. */
    void emitJson(std::ostream &os) const;

    /**
     * Join this simulated matrix against the BuildReport it was run
     * from and emit one combined static+dynamic row per cell (code /
     * RAM / ROM sizes and surviving checks next to duty cycle and
     * execution counters), so Figure-3 style tables plot from a
     * single file. Throws FatalError if the matrices don't describe
     * the same cells.
     */
    void joinCsv(const BuildReport &builds, std::ostream &os) const;
    /** JSON flavour of the same join. */
    void joinJson(const BuildReport &builds, std::ostream &os) const;
};

/**
 * Build-matrix equivalence, the vocabulary the cold-vs-memoized and
 * artifact-store round-trip gates are phrased in.
 */
class BuildDriver {
  public:
    /**
     * Deep equivalence of two build results (sizes, safety and cXprop
     * reports, surviving checks, final IR digest, FLID table, linked
     * image bytes).
     * `why` gets the first difference when non-null.
     */
    static bool resultsEquivalent(const BuildResult &a,
                                  const BuildResult &b,
                                  std::string *why = nullptr);
    /** Record-level equivalence: identity fields + resultsEquivalent. */
    static bool recordsEquivalent(const BuildRecord &a,
                                  const BuildRecord &b,
                                  std::string *why = nullptr);
};

/** Simulation-matrix equivalence (serial/parallel, legacy/threaded). */
class SimDriver {
  public:
    /** Identity, status and exact SimOutcome equality (not timing). */
    static bool recordsEquivalent(const SimRecord &a, const SimRecord &b,
                                  std::string *why = nullptr);
    /** Cell-for-cell equivalence of two reports. */
    static bool reportsEquivalent(const SimReport &a, const SimReport &b,
                                  std::string *why = nullptr);
};

} // namespace stos::core

#endif
