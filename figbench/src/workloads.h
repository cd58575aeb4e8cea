/**
 * @file
 * The three figure-regeneration workloads, driven through the real
 * engine (core::Experiment over StageCache / ArtifactStore) on one
 * matrix: the full 25-app corpus x 11 columns (Baseline, C1-C7 and
 * the three CFI columns) = 275 cells.
 *
 *  - cold_regen: every round builds the matrix into a fresh, empty
 *    artifact store, then simulates it for 3 simulated seconds.
 *  - warm_regen: set-up warms a store with one cold round; every round
 *    then serves the matrix through a fresh StageCache on that store
 *    (disk load, deserialization, one decode per cell) and simulates
 *    it for 3 s. A round must execute zero stages.
 *  - sim_long: set-up builds the matrix in memory; every round
 *    simulates it for 100 simulated seconds.
 */
#ifndef FIGBENCH_WORKLOADS_H
#define FIGBENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "digest.h"

namespace figbench {

enum class Workload { ColdRegen, WarmRegen, SimLong };

const char *workloadName(Workload w);
/** Parse a workload name; false if unknown. */
bool parseWorkload(const std::string &s, Workload *out);

/** Simulated seconds per cell: the figure default, and sim_long's. */
inline constexpr double kFigureSimSeconds = 3.0;
inline constexpr double kLongSimSeconds = 100.0;

/** The benchmark matrix: every corpus app x Baseline, C1-C7, CFI. */
std::vector<stos::core::ConfigId> matrixColumns();

/** One timed engine round. */
struct EngineRound {
    double wallS = 0;
    stos::core::BuildReport builds;  ///< cold/warm: this round's builds
    stos::core::SimReport sims;
    stos::core::StageCacheStats stages;  ///< this round's cache counters
    size_t stagesExecuted = 0;
    RoundDigest digest;
};

/**
 * Engine-side state of one workload. setUp() may be called repeatedly
 * (each call starts from scratch, which is what setup_s times);
 * round() is the timed unit of work.
 */
class EngineWorkload {
  public:
    EngineWorkload(Workload w, std::string workDir, unsigned jobs);
    ~EngineWorkload();
    EngineWorkload(const EngineWorkload &) = delete;
    EngineWorkload &operator=(const EngineWorkload &) = delete;

    Workload workload() const { return w_; }
    const stos::core::Experiment &experiment() const { return exp_; }
    unsigned jobs() const { return jobs_; }

    /** Set up from scratch; returns its wall seconds. */
    double setUp();
    /** One timed round; the digest is computed after the clock stops. */
    EngineRound round(unsigned index);

    /** warm_regen: digest of the set-up's cold round. */
    const RoundDigest &setupDigest() const { return setupDigest_; }
    /** warm_regen: the warmed store directory. */
    const std::string &warmDir() const { return warmDir_; }
    /** sim_long: the in-memory matrix and the cache holding it. */
    const stos::core::BuildReport &setupBuilds() const { return builds_; }
    stos::core::StageCache *setupCache() const { return cache_.get(); }
    /** cold_regen: distinct build keys of the matrix. */
    size_t distinctBuilds() const { return distinctBuilds_; }

  private:
    Workload w_;
    std::string workDir_;
    unsigned jobs_;
    stos::core::Experiment exp_;
    std::string warmDir_;
    RoundDigest setupDigest_;
    std::unique_ptr<stos::core::StageCache> cache_;
    stos::core::BuildReport builds_;
    size_t distinctBuilds_ = 0;
};

/** One matrix cell's records, kept for the reference check. */
struct SampledCell {
    size_t cell = 0;
    stos::core::BuildRecord build;
    stos::core::SimRecord sim;
};

/** `k` distinct cells of the round, drawn from `seed`. */
std::vector<SampledCell> sampleCells(const EngineRound &r, uint64_t seed,
                                     size_t k);

/**
 * The cold, serial, Legacy-core reference for the sampled cells: each
 * is rebuilt and re-simulated on a 1x1 sub-experiment
 * (Experiment::runSerialReference) and compared with the round's
 * records (BuildDriver/SimDriver::recordsEquivalent). Returns the
 * number of cells that differ; `log` gets one line per cell.
 */
size_t checkAgainstReference(const stos::core::Experiment &exp,
                             std::vector<SampledCell> cells,
                             std::string *log);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

} // namespace figbench

#endif
