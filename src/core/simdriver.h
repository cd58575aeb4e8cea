/**
 * @file
 * The simulation-matrix vocabulary (SimRecord / SimReport and the
 * static+dynamic join emitters) shared by the Experiment facade, plus
 * the SimDriver equivalence helpers. The simulation engine itself
 * (worker pool, companion memoization) lives in core/experiment.cpp
 * as Experiment::simulateBuilds.
 */
#ifndef STOS_CORE_SIMDRIVER_H
#define STOS_CORE_SIMDRIVER_H

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/stagecache.h"
#include "sim/decoded.h"

namespace stos::core {

/** One simulated cell of the matrix. */
struct SimRecord {
    std::string app;
    std::string platform;
    std::string config;       ///< column label
    uint32_t appIndex = 0;
    uint32_t configIndex = 0;
    bool ok = false;
    std::string error;        ///< build or simulation failure
    SimOutcome outcome;       ///< valid only when ok
    bool companionsReused = false; ///< all companions came from the memo
    double millis = 0.0;      ///< wall time of this cell's simulation
};

/** The simulated matrix, app-major then config-minor. */
struct SimReport {
    size_t numApps = 0;
    size_t numConfigs = 0;
    std::vector<SimRecord> records;
    double seconds = 0.0;        ///< simulated duration per cell
    size_t companionBuilds = 0;  ///< companion compiles executed
    size_t companionReuses = 0;  ///< companion requests served by memo
    double wallMillis = 0.0;
    unsigned jobsUsed = 1;

    SimRecord &at(size_t app, size_t cfg);
    const SimRecord &at(size_t app, size_t cfg) const;
    const SimRecord *find(const std::string &app,
                          const std::string &config) const;
    bool allOk() const;
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
 * Simulation-matrix equivalence vocabulary. The simulation engine
 * lives in the Experiment facade (core/experiment.h) as
 * Experiment::simulateBuilds; the serial/parallel and
 * legacy/threaded equivalence gates compare its reports with the
 * helpers below.
 */
class SimDriver {
  public:
    /** Field-for-field equivalence of two sim records (not timing). */
    static bool recordsEquivalent(const SimRecord &a, const SimRecord &b,
                                  std::string *why = nullptr);
    /** Cell-for-cell equivalence of two reports. */
    static bool reportsEquivalent(const SimReport &a, const SimReport &b,
                                  std::string *why = nullptr);
};

} // namespace stos::core

#endif
