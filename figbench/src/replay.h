/**
 * @file
 * The traced replay: one workload round re-driven from outside the
 * engine through the public stage functions, with a span around every
 * call into a layer.
 *
 *  - runFrontend / runSafetyStage / runOptStage / runBackendStage,
 *    once per distinct content key (StageCache::appKey / safetyKey /
 *    optKey / buildKey), exactly as StageCache memoizes them;
 *  - ArtifactStore::load / store with each product's
 *    serialize / deserialize;
 *  - the sim::DecodedProgram constructor;
 *  - sim::Network::run.
 *
 * Work is spread over the same number of pool workers in the same
 * config-major order as the engine. A replayed round must produce the
 * engine round's output digest, which is what shows it did the same
 * work.
 */
#ifndef FIGBENCH_REPLAY_H
#define FIGBENCH_REPLAY_H

#include <string>
#include <vector>

#include "sim/stats.h"
#include "trace.h"
#include "workloads.h"

namespace figbench {

/** What one replayed round produced. */
struct ReplayRound {
    double wallS = 0;
    RoundDigest digest;
    /** Full observable state of every cell's mote under test (the
     *  fields the engine's SimOutcome omits included). */
    std::vector<stos::sim::MoteSnapshot> snapshots;
    size_t stagesExecuted = 0;
};

/**
 * Replay round `index` of `eng`'s workload, recording spans and counts
 * into `tracer` under that round id. cold_regen replays into a fresh
 * store under `workDir`; warm_regen reads the engine's warmed store;
 * sim_long simulates the engine's in-memory matrix.
 */
ReplayRound replayRound(const EngineWorkload &eng, Tracer &tracer,
                        const std::string &workDir, unsigned index);

} // namespace figbench

#endif
