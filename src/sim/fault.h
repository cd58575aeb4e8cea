/**
 * @file
 * Deterministic fault-injection vocabulary for the mote simulator:
 * seeded plans of RAM bit flips, register corruption, and spontaneous
 * crashes scheduled at cycle boundaries; per-link radio loss /
 * corruption / duplication decided by a pure hash of the delivery (so
 * the lockstep and lookahead schedulers draw identical faults); and the per-mote recovery policy that turns a safety trap
 * from a terminal wedge into a reboot with a persistent trap log.
 *
 * Everything here is deterministic given (FaultOptions, node id,
 * simulated span): the same seed replays byte-identically on both
 * interpreter cores and every network scheduler, which is what lets
 * the equivalence gates cover faulted runs too.
 */
#ifndef STOS_SIM_FAULT_H
#define STOS_SIM_FAULT_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace stos::sim {

/** What the firmware does when a safety check fires (or it wedges). */
enum class RecoveryPolicy {
    Wedge,         ///< spin in the failure stub forever (the default)
    RebootOnTrap,  ///< reboot the instant a fail-stub call is observed
    RebootOnWedge, ///< let the stub run (messages print), reboot on wedge
};

const char *recoveryPolicyName(RecoveryPolicy p);
bool parseRecoveryPolicy(const std::string &s, RecoveryPolicy *out);

/** Cycles a reboot keeps the mote down (boot-loader latency). */
constexpr uint64_t kRebootLatencyCycles = 4096;
/** Bounded trap-log capacity; traps past this still count. */
constexpr size_t kMaxTrapLog = 8;

/** One recorded safety trap. `pc` is the trapping function's index —
 *  the only program-counter notion both interpreter cores share.
 *  `kind` distinguishes CFI traps from memory-safety traps (values
 *  from backend::MProgram::flidKinds: 0 memory, 1 cfi-fnptr,
 *  2 cfi-ret). */
struct TrapEntry {
    uint32_t flid = 0;
    uint64_t cycle = 0;
    uint32_t pc = 0;
    uint8_t kind = 0;

    bool operator==(const TrapEntry &) const = default;
};

enum class FaultKind : uint8_t {
    MemFlip,       ///< flip one bit of one RAM-global byte
    RegFlip,       ///< flip one low bit of a live register
    Crash,         ///< power glitch: unconditional reboot
    /**
     * Attack-shaped fault: overwrite a named RAM global (typically a
     * function-pointer cell) with an attacker-chosen value. Unlike
     * MemFlip this is a targeted write, modelling a corrupted-pointer
     * exploit rather than an SEU.
     */
    PtrOverwrite,
    /**
     * Attack-shaped fault: smash the return linkage of the current
     * call — the caller frame is redirected to the entry of the
     * function selected by `value`, as a stack-smash that rewrites
     * the stored return address would. No-op at call depth < 2.
     */
    RetSmash,
};

/** One scheduled state fault, applied at the first instruction
 *  boundary where the mote's cycle counter reaches `at`. */
struct FaultEvent {
    uint64_t at = 0;
    FaultKind kind = FaultKind::MemFlip;
    uint32_t addr = 0;  ///< abstract address / register selector
    uint8_t bit = 0;
    uint64_t value = 0;        ///< PtrOverwrite / RetSmash payload
    std::string targetGlobal;  ///< PtrOverwrite: global overwritten
};

/** A seeded fault campaign for one network run. */
struct FaultOptions {
    uint64_t seed = 1;
    /** Scheduled state faults on the mote under test (node 1). */
    uint32_t memFlips = 0;
    uint32_t regFlips = 0;
    uint32_t crashes = 0;
    /** Per-link radio fault rates in [0, 1]. */
    double radioLoss = 0.0;
    double radioCorrupt = 0.0;
    double radioDup = 0.0;
    RecoveryPolicy recovery = RecoveryPolicy::Wedge;
    /** Also schedule state faults on companion motes (node != 1). */
    bool faultCompanions = false;
    /** Attack-shaped faults (CFI attack suite). */
    uint32_t ptrOverwrites = 0;
    uint32_t retSmashes = 0;
    /** Payload for the attack faults (fnptr id / frame target). */
    uint64_t attackValue = 0;
    /** PtrOverwrite target global (empty = first fnptr-looking one
     *  is left alone and the event degrades to a no-op). */
    std::string attackGlobal;

    bool
    injectsState() const
    {
        return memFlips > 0 || regFlips > 0 || crashes > 0 ||
               ptrOverwrites > 0 || retSmashes > 0;
    }
    bool
    faultsRadio() const
    {
        return radioLoss > 0 || radioCorrupt > 0 || radioDup > 0;
    }
    bool
    anyFaults() const
    {
        return injectsState() || faultsRadio() ||
               recovery != RecoveryPolicy::Wedge;
    }
};

/**
 * Parse a fault spec of the form
 *   "mem=8,reg=4,crash=1,loss=0.1,corrupt=0.05,dup=0.02"
 * into `out` (seed and recovery are separate flags and untouched).
 */
bool parseFaultSpec(const std::string &spec, FaultOptions *out,
                    std::string *err = nullptr);

/**
 * Compile the per-mote schedule of state faults for a run spanning
 * [begin, end) cycles: a sorted event list, deterministic in
 * (options.seed, nodeId, begin, end).
 */
std::vector<FaultEvent> scheduleFaults(const FaultOptions &o,
                                       uint8_t nodeId, uint64_t begin,
                                       uint64_t end);

/** Per-delivery radio fault draw (pure function of its arguments). */
struct RadioFaultDecision {
    bool drop = false;
    bool corrupt = false;
    bool dup = false;
    uint32_t corruptByte = 0;  ///< modulo packet length
    uint8_t corruptBit = 0;
};

/**
 * Decide the radio faults for one (sender, receiver, delivery-time,
 * payload) link event. Independent of scheduler call order: serial
 * and parallel networks deliver the same (packet, at) pairs, so they
 * draw the same faults.
 */
RadioFaultDecision radioFaultsFor(const FaultOptions &o, uint8_t src,
                                  uint8_t dst, uint64_t at,
                                  const std::vector<uint8_t> &bytes);

/** Mix a per-cell label (the app name) into a campaign seed so each
 *  matrix cell replays its own deterministic plan. */
uint64_t mixSeed(uint64_t seed, const std::string &label);

/** Thrown by Network::run when a wall-clock watchdog expires. */
class SimAbort : public std::runtime_error {
  public:
    explicit SimAbort(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

} // namespace stos::sim

#endif
