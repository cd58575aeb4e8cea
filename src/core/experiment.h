/**
 * @file
 * Experiment: the unified facade over the build/sim stage graph.
 * Declare the rows (applications), columns (configurations), and
 * simulation settings once; run() compiles the matrix through a
 * shared StageCache (one frontend parse per app, one safety run per
 * (app, safety-fingerprint), companion firmware reused from the
 * matrix's own Baseline column) and then fans the per-cell network
 * simulations over the same worker pool, returning one combined
 * report. The serial/legacy equivalence gates the benches used to
 * hand-roll are API methods here.
 *
 * This facade IS the engine: the thread-pooled build loop, the
 * simulation loop, and the artifact-store plumbing all live here.
 * Point options().cache.dir at a directory and every stage product
 * persists on disk under its content key — a second process (or CI
 * run) over the same matrix executes zero stages. BuildDriver and
 * SimDriver survive only as the static equivalence helpers the
 * serial/parallel gates are phrased in.
 *
 * Typical use (what every figure bench does via BenchCli):
 *
 *   Experiment exp(opts);
 *   exp.addAppsOn("Mica2")
 *      .addConfig(ConfigId::Baseline)
 *      .addConfigs(figure3Configs());
 *   ExperimentReport rep = exp.run();
 *   if (!exp.verifySerialEquivalence(rep, &why)) ...   // optional gate
 *   rep.emitJoinedCsv(os);                             // one table
 */
#ifndef STOS_CORE_EXPERIMENT_H
#define STOS_CORE_EXPERIMENT_H

#include <iosfwd>
#include <string>
#include <vector>

#include "core/simdriver.h"

namespace stos::core {

struct ExperimentOptions {
    /** Worker threads for both phases; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Memoize the stage graph (off = cold-build every cell). */
    bool memoize = true;
    /** Run the simulation phase after the build phase. */
    bool simulate = true;
    /** Simulated duration per cell, in seconds of mote time. */
    double seconds = 3.0;
    /** Interpreter core for the simulation phase. The direct-
     *  threaded core is the default; the equivalence suite holds it
     *  byte-identical to Legacy, so figures do not depend on this
     *  choice. */
    sim::ExecMode mode = sim::ExecMode::Threaded;
    /**
     * On-disk artifact store binding (core/artifactstore.h). With a
     * non-empty dir, run() fronts its StageCache with an
     * ArtifactStore there: stage products persist across processes,
     * and a warmed directory serves a repeat run without executing a
     * single stage. Default (empty dir) is in-memory-only, exactly
     * the pre-store behaviour.
     */
    CacheOptions cache;
    /**
     * Fault campaign applied to every simulated cell (sim/fault.h).
     * The campaign seed is re-mixed with each cell's app name so every
     * cell replays its own deterministic plan; the serial-reference
     * gate inherits the same options, so equivalence checking covers
     * faulted matrices too. Defaults inject nothing.
     */
    sim::FaultOptions faults;
    /**
     * Per-cell wall-clock watchdog for the simulation phase, in
     * seconds (0 = off): a runaway cell is marked failed with a
     * diagnostic instead of hanging the whole bench.
     */
    double cellTimeout = 0.0;
};

/**
 * The combined result of one Experiment::run(): the static build
 * matrix and (when simulated) the dynamic simulation matrix over the
 * same cells.
 */
struct ExperimentReport {
    BuildReport builds;
    SimReport sims;        ///< valid only when `simulated`
    bool simulated = false;

    bool allOk() const;
    /** One-line stats (build phase; plus sim phase when simulated). */
    std::string summary() const;

    /**
     * Primary emission: the joined static+dynamic table when
     * simulated (one row per cell: code/RAM/ROM/checks next to duty
     * cycle and execution counters), the build table otherwise.
     */
    void emitCsv(std::ostream &os) const;
    void emitJson(std::ostream &os) const;

    /** The joined table, explicitly (throws unless simulated). */
    void emitJoinedCsv(std::ostream &os) const;
    void emitJoinedJson(std::ostream &os) const;
};

class Experiment {
  public:
    explicit Experiment(ExperimentOptions opts = {}) : opts_(opts) {}

    //--- rows -----------------------------------------------------
    Experiment &addApp(const tinyos::AppInfo &app);
    Experiment &addApps(const std::vector<tinyos::AppInfo> &apps);
    /** The whole registry corpus (paper + expanded families). */
    Experiment &addAllApps();
    /** The paper's twelve benchmark applications. */
    Experiment &addPaperApps();
    /** Registry apps of one scenario family / tag ("routing", ...). */
    Experiment &addAppsByTag(const std::string &tag);
    /** Registry apps on one platform (the Figure-3(c) row set). */
    Experiment &addAppsOn(const std::string &platform);

    //--- columns --------------------------------------------------
    Experiment &addConfig(ConfigId id);
    Experiment &addConfigs(const std::vector<ConfigId> &ids);
    Experiment &addStrategy(CheckStrategy s);
    Experiment &addStrategies(const std::vector<CheckStrategy> &ss);
    /** Arbitrary column, e.g. an ablation tweak of a named config. */
    Experiment &
    addCustom(std::string label,
              std::function<PipelineConfig(const std::string &)> make);

    size_t numApps() const { return apps_.size(); }
    size_t numConfigs() const { return configs_.size(); }
    const std::vector<tinyos::AppInfo> &apps() const { return apps_; }
    const std::vector<ConfigSpec> &configs() const { return configs_; }
    ExperimentOptions &options() { return opts_; }

    //--- execution ------------------------------------------------
    /**
     * Build + simulate the matrix over a fresh per-run StageCache —
     * fronted by an ArtifactStore when options().cache.dir is set,
     * in which case "fresh" only means the in-memory memo: stage
     * products still flow from and to the shared directory.
     */
    ExperimentReport run() const;
    /**
     * As above over the caller's persistent cache: repeated runs
     * (and the serial gate's sim phase) rebuild nothing. The cache's
     * own store binding wins; options().cache is ignored here.
     */
    ExperimentReport run(StageCache &cache) const;

    /**
     * The build phase alone, over the caller's cache: compile every
     * (app, config) cell through the cache's stage graph on a worker
     * pool. Per-stage run/reuse/disk-hit counters in the report are
     * deltas covering this call only.
     */
    BuildReport buildMatrix(StageCache &cache) const;

    /**
     * The simulation phase alone: fan the per-cell network
     * simulations of an already-built matrix over the worker pool.
     * Companion firmware comes from (and is added to) the caller's
     * cache; pass the cache that built the matrix and companions
     * alias its Baseline cells outright.
     */
    SimReport simulateBuilds(const BuildReport &builds,
                             StageCache &cache) const;

    /**
     * The cold reference of the same matrix: one job, no stage
     * memoization, per-cell companion rebuilds, legacy interpreter,
     * fixed-quantum lockstep networks. This is what every
     * memoized, parallel, and threaded layer is gated against.
     */
    ExperimentReport runSerialReference() const;

    /**
     * Run the serial reference and require cell-for-cell equivalence
     * with `rep` (byte-identical builds via
     * BuildDriver::resultsEquivalent, identical sim outcomes via
     * SimDriver::recordsEquivalent). `why` gets the first
     * difference.
     */
    bool verifySerialEquivalence(const ExperimentReport &rep,
                                 std::string *why = nullptr) const;

    /** Cell-for-cell equivalence of two combined reports. */
    static bool reportsEquivalent(const ExperimentReport &a,
                                  const ExperimentReport &b,
                                  std::string *why = nullptr);

  private:
    /** Cold (memoization-off) build loop: every cell from source. */
    BuildReport buildMatrixCold() const;

    ExperimentOptions opts_;
    std::vector<tinyos::AppInfo> apps_;
    std::vector<ConfigSpec> configs_;
};

} // namespace stos::core

#endif
