/**
 * @file
 * The Safe TinyOS pipeline (paper Figure 1): nesC-analogue frontend →
 * hardware-access refactoring → CCured-analogue safety transformer →
 * custom inliner → cXprop → GCC-analogue backend. Provides the named
 * build configurations that the evaluation figures compare, and the
 * sensor-network simulation contexts used for duty-cycle numbers.
 */
#ifndef STOS_CORE_PIPELINE_H
#define STOS_CORE_PIPELINE_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "ir/module.h"
#include "opt/cxprop.h"
#include "safety/ccured.h"
#include "sim/machine.h"
#include "support/binio.h"
#include "tinyos/tinyos.h"

namespace stos::core {

/** The configurations evaluated in the paper's Figure 3. */
enum class ConfigId {
    Baseline,          ///< unsafe, unoptimized (the 100% reference)
    SafeVerboseRam,    ///< C1: safe, verbose error strings in SRAM
    SafeVerboseRom,    ///< C2: strings moved to flash
    SafeTerse,         ///< C3: terse error messages
    SafeFlid,          ///< C4: FLID-compressed messages
    SafeFlidCxprop,    ///< C5: C4 + cXprop (no inlining)
    SafeFlidInlineCxprop,  ///< C6: C4 + inliner + cXprop
    UnsafeInlineCxprop,    ///< C7: unsafe + inliner + cXprop
    // Control-flow-integrity columns (src/cfi/): forward-edge label
    // checks on indirect calls + shadow-stack return checks, layered
    // on the Figure-3 configurations.
    SafeFlidCfi,           ///< C4 + CFI
    SafeFlidInlineCxpropCfi,  ///< C6 + CFI
    CfiOnly,               ///< CFI checks without memory-safety checks
};

const char *configName(ConfigId id);
const std::vector<ConfigId> &figure3Configs();
/** The CFI column family (bench/cfi_overhead, attack suite). */
const std::vector<ConfigId> &cfiConfigs();

/** Check-elimination strategies compared in Figure 2. */
enum class CheckStrategy {
    GccOnly,              ///< (1) GCC by itself
    CcuredOpt,            ///< (2) CCured optimizer, then GCC
    CcuredOptCxprop,      ///< (3) + cXprop without inlining
    CcuredOptInlineCxprop ///< (4) + inlining + cXprop
};

const char *strategyName(CheckStrategy s);

struct PipelineConfig {
    bool safe = true;
    safety::SafetyConfig safety;
    bool runCxprop = false;
    opt::CxpropOptions cxprop;
    backend::BackendOptions backend;
    std::string platform = "Mica2";
};

/** Build a PipelineConfig for a named Figure-3 configuration. */
PipelineConfig configFor(ConfigId id, const std::string &platform);
/** Build a PipelineConfig for a Figure-2 strategy (tagged checks). */
PipelineConfig configForStrategy(CheckStrategy s,
                                 const std::string &platform);

/**
 * One cell's build as a run reads it back: the linked image, the
 * stage reports, the size figures and the host-side FLID table that
 * decodes the image's failure ids. The final IR module is not part of
 * it; `irDigest` stands for it. This is the one shape the artifact
 * store persists and every matrix record holds, whether it was built
 * in this process or loaded from disk.
 */
struct BuildResult {
    backend::MProgram image;      ///< linked firmware
    safety::SafetyReport safetyReport;
    opt::CxpropReport cxpropReport;
    uint32_t codeBytes = 0;
    uint32_t ramBytes = 0;
    uint32_t romDataBytes = 0;
    uint32_t survivingChecks = 0;  ///< via the tag-string methodology
    std::vector<ir::FlidEntry> flidTable;  ///< decodes image FLIDs
    /** FNV-1a of ir::writeModule(final module); the equivalence gates
     *  compare it in place of the IR (README, artifact store). */
    uint64_t irDigest = 0;

    /** Artifact-store persistence (core/serialize.cpp). */
    void serialize(support::BinWriter &w) const;
    static BuildResult deserialize(support::BinReader &r);
};

/**
 * A build made in this process together with its final IR module:
 * what the backend stage and buildApp/buildSource return, for callers
 * that print, interpret or inspect the IR. Matrix records and the
 * store keep the BuildResult part only.
 */
struct FullBuild : BuildResult {
    ir::Module module;  ///< final optimized IR
};

//---------------------------------------------------------------------
// The stage graph
//
// The pipeline is an explicit four-stage graph,
//
//   Frontend -> Safety -> Opt -> Backend
//
// where each stage is a pure function of its predecessor's product
// and the *stage-relevant slice* of the PipelineConfig (the
// fingerprint functions below). Splitting here lets StageCache share
// work between evaluation-matrix columns that only diverge late:
// C4/C5/C6 differ only in cXprop/inlining, so they share one safety
// run per app; Baseline/C7 share the unsafe pass-through.
//---------------------------------------------------------------------

/**
 * Output of the config-independent frontend stage (library + app
 * parsed, lowered, verified). The pipeline splits here so a batch
 * driver can parse each app once and clone the module per
 * configuration. The SourceManager is shared read-only by every
 * downstream build (the safety stage reads file names for FLIDs).
 */
struct FrontendProduct {
    ir::Module module;
    std::shared_ptr<SourceManager> sourceManager;

    /** Artifact-store persistence (core/serialize.cpp). */
    void serialize(support::BinWriter &w) const;
    static FrontendProduct deserialize(support::BinReader &r);
};

/**
 * Output of the safety stage: the module with CCured-analogue checks
 * plus the stage's report. The module is held immutably behind a
 * shared_ptr: when the configuration is unsafe the stage is a
 * verbatim pass-through, and the product *aliases* the upstream
 * frontend module instead of storing a clone (the same module bytes
 * are never resident twice).
 */
struct SafetyProduct {
    std::shared_ptr<const ir::Module> module;
    safety::SafetyReport report;

    /** Artifact-store persistence (core/serialize.cpp). */
    void serialize(support::BinWriter &w) const;
    static SafetyProduct deserialize(support::BinReader &r);
};

/**
 * Output of the opt stage: the module after cXprop. When cXprop is
 * off the stage is a pass-through and the product shares the safety
 * product's module pointer outright. Carries the upstream safety
 * report along so the backend stage can assemble a complete
 * BuildResult without reaching back into the graph.
 */
struct OptProduct {
    std::shared_ptr<const ir::Module> module;
    safety::SafetyReport safetyReport;
    opt::CxpropReport report;

    /** Artifact-store persistence (core/serialize.cpp). */
    void serialize(support::BinWriter &w) const;
    static OptProduct deserialize(support::BinReader &r);
};

/** Run the frontend on one source (library included); throws on error. */
FrontendProduct runFrontend(const std::string &name,
                            const std::string &src);

/**
 * Safety stage. Consumes `m` (pass a clone to keep the input). `sm`
 * may be null for modules without source locations (tests). When the
 * config is unsafe the module passes through untransformed.
 */
SafetyProduct runSafetyStage(ir::Module m, const SourceManager *sm,
                             const PipelineConfig &cfg);

/**
 * Opt (cXprop) stage. The input module is shared immutably: when
 * cXprop runs it transforms a clone; when it is off the output shares
 * the input pointer (pass-through, no copy).
 */
OptProduct runOptStage(SafetyProduct sp, const PipelineConfig &cfg);

/**
 * One-line report of what the opt stage did: the cXprop rewrite
 * counts and its fixpoint counters (outer rounds, interprocedural
 * rounds, function analyses requested and skipped, block visits).
 */
std::string cxpropReportString(const opt::CxpropReport &rep);

/**
 * Backend stage: late opts, isel, link. Clones the shared input
 * module (the backend's late optimizations mutate it into the final
 * IR the result carries) and digests the final module once.
 */
FullBuild runBackendStage(OptProduct op, const PipelineConfig &cfg);

/**
 * Stage-relevant fingerprints of a PipelineConfig: two configs with
 * equal fingerprints produce byte-identical products from that stage
 * (given identical inputs), so the fingerprint is the cache-key
 * component StageCache uses for that stage. Changing a field that a
 * stage never reads (e.g. CxpropOptions for the safety stage) must
 * not change that stage's fingerprint — test_stagecache enforces
 * this. New PipelineConfig fields must be added to the fingerprint of
 * every stage that reads them.
 */
std::string safetyFingerprint(const PipelineConfig &cfg);
std::string optFingerprint(const PipelineConfig &cfg);
std::string backendFingerprint(const PipelineConfig &cfg);

/** Run the full pipeline on one application. */
FullBuild buildApp(const tinyos::AppInfo &app, const PipelineConfig &cfg);

/** Compile arbitrary TinyC source (library included) — for examples. */
FullBuild buildSource(const std::string &name, const std::string &src,
                      const PipelineConfig &cfg);

/** Execution statistics of one simulated network run (mote 0). */
struct SimOutcome {
    double dutyCycle = 0.0;
    uint64_t awakeCycles = 0;
    uint64_t totalCycles = 0;
    uint64_t instructions = 0;
    bool halted = false;   ///< main returned / stack fault
    bool wedged = false;   ///< stuck in a failure-handler self loop
    uint32_t failedFlid = 0;  ///< first trap's FLID (0 = none)
    std::string uartLog;   ///< mote-under-test UART output
    // Fault-injection and recovery observables (sim/fault.h).
    uint32_t traps = 0;
    uint32_t cfiTraps = 0;  ///< traps() subset fired by CFI checks
    uint32_t reboots = 0;
    uint32_t crashes = 0;
    uint64_t downCycles = 0;
    uint64_t wedgedCycles = 0;
    double availability = 1.0;  ///< up-cycles / total cycles
    std::vector<sim::TrapEntry> trapLog;  ///< bounded (kMaxTrapLog)
    uint32_t packetsDropped = 0;
    uint32_t packetsCorrupted = 0;
    uint32_t packetsDuplicated = 0;

    bool operator==(const SimOutcome &) const = default;
};

/**
 * Simulate `image` as mote 1 of a network whose remaining motes run
 * the given companion images, for `seconds` of simulated time. The
 * images are only read; concurrent runs may share them. `net` selects
 * the interpreter core and the network scheduling strategy; each mote
 * decodes its own image unless `net.mode` is Legacy.
 */
SimOutcome
simulateInContext(const backend::MProgram &image,
                  const std::vector<const backend::MProgram *> &companions,
                  double seconds, const sim::NetworkOptions &net = {});

/**
 * As above, but on decoded images, always on the threaded core: each
 * mote executes the shared immutable decode instead of re-decoding its
 * firmware. Experiment::simulateBuilds feeds it memoized companion
 * decodes.
 */
SimOutcome simulateDecoded(
    const std::shared_ptr<const sim::DecodedProgram> &image,
    const std::vector<std::shared_ptr<const sim::DecodedProgram>>
        &companions,
    double seconds, const sim::NetworkOptions &net = {});

/**
 * The cycle count of `seconds` of simulated time at `clockHz`. Throws
 * FatalError when `seconds` is not finite, is negative, or gives a
 * count that does not fit in uint64_t.
 */
uint64_t simCycles(double seconds, uint32_t clockHz);

} // namespace stos::core

#endif
