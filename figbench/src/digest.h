/**
 * @file
 * Output check of one figure-regeneration round: an FNV-1a digest per
 * matrix cell over everything the round produced for it — the linked
 * image's bytes, code/RAM/ROM sizes, surviving checks, and the
 * simulated mote-under-test's observable state (cycles, awake cycles,
 * instructions, halt/wedge, FLID, UART log, trap log, fault and packet
 * counters: every sim::MoteSnapshot field the engine's SimOutcome
 * carries). A round is correct when each cell's digest equals the
 * reference round's; a cell that failed to build or simulate, or whose
 * digest differs, counts as failed.
 */
#ifndef FIGBENCH_DIGEST_H
#define FIGBENCH_DIGEST_H

#include <cstdint>
#include <vector>

#include "core/experiment.h"

namespace figbench {

/** Digest of one cell; a null build/outcome digests as "failed". */
uint64_t digestCell(const stos::core::BuildResult *build,
                    const stos::core::SimOutcome *outcome);

/** Per-cell digests of one round plus their combined digest. */
struct RoundDigest {
    std::vector<uint64_t> cells;
    std::vector<bool> ok;  ///< the cell built and simulated
    uint64_t total = 0;
};

/** Digest an engine round (sims may cover the same cells as builds). */
RoundDigest digestRound(const stos::core::BuildReport &builds,
                        const stos::core::SimReport &sims);

/** Fold per-cell digests into RoundDigest::total. */
void finishDigest(RoundDigest &d);

/**
 * Cells of `got` that failed: not ok, or a digest different from the
 * reference round's. A shape mismatch fails every cell.
 */
size_t failedCells(const RoundDigest &ref, const RoundDigest &got);

} // namespace figbench

#endif
