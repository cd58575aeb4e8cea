/**
 * @file
 * Experiment: the unified facade over the build/sim stage graph.
 * Declare the rows (applications), columns (configurations), and
 * simulation settings once; run() compiles the matrix through a
 * shared StageCache (one frontend parse per app, one safety run per
 * (app, safety-fingerprint), companion firmware reused from the
 * matrix's own Baseline column) and then fans the per-cell network
 * simulations out the same way, returning one combined
 * report.
 *
 * This facade IS the engine: the cell loop both phases run lives
 * here. To persist each cell's build, run over a StageCache bound to
 * an ArtifactStore — StageCache(&store) — and a second process (or
 * CI run) over the same matrix executes zero stages. run() is the one
 * fast path and runSerialReference() the one reference it is gated
 * against; no option chooses between them.
 *
 * Typical use (what every figure bench does via BenchCli):
 *
 *   Experiment exp(opts);
 *   exp.addApps(cli.corpusApps("Mica2"))
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

#include "core/report.h"
#include "core/stagecache.h"

namespace stos::core {

struct ExperimentOptions {
    /** Worker threads for both phases; 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Run the simulation phase after the build phase. */
    bool simulate = true;
    /** Simulated duration per cell, in seconds of mote time. */
    double seconds = 3.0;
    /**
     * Fault campaign applied to every simulated cell (sim/fault.h).
     * The campaign seed is re-mixed with each cell's app name so every
     * cell replays its own deterministic plan; the serial reference
     * applies the same campaign, so equivalence checking covers
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
     * Primary emission: the sim table when simulated (one row per
     * cell: duty cycle and execution counters), the build table
     * otherwise. The joined static+dynamic table is emitJoined*.
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
     * The fast path: build the matrix through the stage graph on
     * core/pool.h's fan-out, then simulate it on the threaded core
     * with lookahead windows and memoized companion decodes. This
     * overload runs over a fresh in-memory StageCache.
     */
    ExperimentReport run() const;
    /**
     * As above over the caller's cache: repeated runs rebuild
     * nothing, and a cache bound to an ArtifactStore loads stage
     * products from and writes them to its directory.
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
     * simulations of an already-built matrix out over core/pool.h, on
     * the threaded core with lookahead windows. Companion decodes
     * come from (and are added to) the caller's cache; pass the cache
     * that built the matrix and companions alias its Baseline cells
     * outright.
     */
    SimReport simulateBuilds(const BuildReport &builds,
                             StageCache &cache) const;

    /**
     * The reference of the same matrix: one job, every cell compiled
     * from source without a cache or store, per-cell companion
     * rebuilds, the legacy interpreter under fixed-quantum lockstep
     * networks. This is what every memoized, parallel, and threaded
     * layer is gated against. Honours simulate, seconds, faults and
     * cellTimeout; ignores jobs.
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
    /** The reference build loop: every cell from source, one job. */
    BuildReport buildMatrixCold() const;
    /** The reference sim loop: legacy core, per-cell companions. */
    SimReport simulateReference(const BuildReport &builds) const;
    /** Fault campaign and watchdog shared by both sim loops. */
    sim::NetworkOptions networkOptions() const;

    ExperimentOptions opts_;
    std::vector<tinyos::AppInfo> apps_;
    std::vector<ConfigSpec> configs_;
};

} // namespace stos::core

#endif
