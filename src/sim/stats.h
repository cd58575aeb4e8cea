/**
 * @file
 * Observable-state snapshot of one simulated mote: every counter the
 * interpreter-core equivalence contract covers, in one place. The
 * equivalence suite and the sim_speed benchmark both compare these,
 * so adding a new observable (a future device statistic, say) to the
 * contract means extending this struct — every gate tightens in
 * lockstep. SimDriver::recordsEquivalent compares the SimOutcome
 * subset of the same fields at the report level.
 */
#ifndef STOS_SIM_STATS_H
#define STOS_SIM_STATS_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/machine.h"

namespace stos::sim {

struct MoteSnapshot {
    uint64_t cycles = 0, awakeCycles = 0, instructions = 0;
    bool halted = false, wedged = false;
    uint32_t failedFlid = 0;
    std::string uartLog;
    uint32_t ledWrites = 0, packetsSent = 0, packetsReceived = 0;
    uint32_t adcConversions = 0;
    // Fault-injection and recovery observables.
    uint32_t traps = 0, cfiTraps = 0, reboots = 0, crashes = 0;
    uint64_t downCycles = 0, wedgedCycles = 0;
    std::vector<TrapEntry> trapLog;
    uint32_t packetsDropped = 0, packetsCorrupted = 0;
    uint32_t packetsDuplicated = 0;

    bool operator==(const MoteSnapshot &) const = default;
};

inline MoteSnapshot
snapshotOf(const Machine &m)
{
    return {m.cycles(),
            m.awakeCycles(),
            m.instructionsExecuted(),
            m.halted(),
            m.wedged(),
            m.failedFlid(),
            m.devices().uartLog(),
            m.devices().ledWrites(),
            m.devices().packetsSent(),
            m.devices().packetsReceived(),
            m.devices().adcConversions(),
            m.traps(),
            m.cfiTraps(),
            m.reboots(),
            m.crashes(),
            m.downCycles(),
            m.wedgedCycles(),
            m.trapLog(),
            m.devices().packetsDropped(),
            m.devices().packetsCorrupted(),
            m.devices().packetsDuplicated()};
}

} // namespace stos::sim

#endif
