/**
 * @file
 * Cycle-accurate mote simulator (the Avrora analogue). Executes a
 * linked MProgram with the target's per-instruction cycle costs,
 * dispatches device interrupts between instructions, fast-forwards
 * time across SLEEP, and accounts the duty cycle (awake / total
 * cycles) that the paper's Figure 3(c) reports.
 *
 * Two interpreter cores share one device model and one observable
 * behaviour:
 *
 *  - ExecMode::Legacy is the reference interpreter: it re-derives
 *    static facts (cycle cost, width masks, call targets, data
 *    addresses) on every executed instruction and polls the device
 *    hub between every step.
 *  - ExecMode::Threaded is the fast path (sim/threaded.cpp). It
 *    executes a sim::DecodedProgram (built once per image, shareable
 *    across motes and threads) in an event-horizon loop: the device
 *    hub is consulted once per horizon — min(target, next device
 *    event, next fault) — and computed-goto dispatch runs the decoded
 *    stream, superinstructions included, until the horizon, a
 *    wakeup, or a machine-state change. Horizons re-aim only when the
 *    device hub's schedule version actually moved.
 *
 * The equivalence suite holds both cores identical on every counter
 * (cycles, awake cycles, instructions, flid, trap log, uart log).
 */
#ifndef STOS_SIM_MACHINE_H
#define STOS_SIM_MACHINE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/minstr.h"
#include "sim/decoded.h"
#include "sim/devices.h"
#include "sim/fault.h"

namespace stos::sim {

/** Which interpreter core executes the firmware. */
enum class ExecMode {
    Legacy,  ///< reference core: per-step re-derivation + hub polls
    /**
     * Direct-threaded core: executes a DecodedProgram with
     * computed-goto dispatch and adaptive event horizons — identical
     * observable behaviour to Legacy.
     */
    Threaded,
};

class Machine {
  public:
    explicit Machine(const backend::MProgram &prog, uint8_t nodeId = 1,
                     ExecMode mode = ExecMode::Threaded);
    /** Execute a shared immutable decode (no per-mote decode) on the
     *  threaded core. */
    explicit Machine(std::shared_ptr<const DecodedProgram> prog,
                     uint8_t nodeId = 1);

    /** Start executing at the entry point (call before runUntil). */
    void boot();

    /** Run until the local cycle counter reaches `cycle`. */
    void runUntilCycle(uint64_t cycle);

    ExecMode mode() const { return mode_; }

    bool halted() const { return halted_; }
    /** Stuck in a failure-handler self loop. */
    bool wedged() const { return wedged_; }
    /** In low-power mode awaiting the next device event. */
    bool sleeping() const { return sleeping_; }
    /** Mid-reboot (powered but not executing) until downUntil(). */
    bool down() const { return down_; }
    uint64_t downUntil() const { return downUntil_; }
    /** First recorded trap's FLID (0 = none) — the backward-
     *  compatible view of the bounded trap log below. */
    uint32_t
    failedFlid() const
    {
        return trapLog_.empty() ? 0 : trapLog_.front().flid;
    }
    /** Bounded log of safety traps (flid, cycle, function index). */
    const std::vector<TrapEntry> &trapLog() const { return trapLog_; }
    uint32_t traps() const { return traps_; }
    /** Subset of traps() fired by CFI checks (forward-edge label or
     *  shadow-stack return mismatches, per MProgram::flidKinds). */
    uint32_t cfiTraps() const { return cfiTraps_; }
    uint32_t reboots() const { return reboots_; }
    uint32_t crashes() const { return crashes_; }
    uint64_t downCycles() const { return downCycles_; }
    uint64_t wedgedCycles() const { return wedgedCycles_; }
    /** Fraction of simulated time spent up (not rebooting/wedged). */
    double
    availability() const
    {
        if (!cycles_)
            return 1.0;
        return static_cast<double>(cycles_ - downCycles_ -
                                   wedgedCycles_) /
               static_cast<double>(cycles_);
    }

    //--- fault injection (sim/fault.h) ----------------------------
    void setRecoveryPolicy(RecoveryPolicy p) { recovery_ = p; }
    RecoveryPolicy recoveryPolicy() const { return recovery_; }
    /** Install the sorted state-fault schedule for this mote. */
    void setFaultEvents(std::vector<FaultEvent> events);
    /** Next scheduled state fault (UINT64_MAX = none pending). */
    uint64_t
    nextFaultAt() const
    {
        return faultIdx_ < faultEvents_.size()
                   ? faultEvents_[faultIdx_].at
                   : UINT64_MAX;
    }

    uint64_t cycles() const { return cycles_; }
    uint64_t awakeCycles() const { return cycles_ - sleepCycles_; }
    double
    dutyCycle() const
    {
        return cycles_ ? static_cast<double>(awakeCycles()) /
                             static_cast<double>(cycles_)
                       : 0.0;
    }

    DeviceHub &devices() { return dev_; }
    const DeviceHub &devices() const { return dev_; }

    /** Read a global's current RAM/ROM bytes (little-endian). */
    uint64_t readGlobal(const std::string &name, uint32_t size) const;
    bool hasGlobal(const std::string &name) const;

    uint64_t instructionsExecuted() const { return instrs_; }

  private:
    struct Frame {
        uint32_t funcIdx = 0;
        uint32_t block = 0;            ///< legacy core: block index
        size_t ip = 0;                 ///< legacy: in-block; threaded: flat
        const DFunc *df = nullptr;     ///< threaded core
        uint32_t fp = 0;
        std::vector<uint64_t> regs;
        bool fromIrq = false;
    };

    void runLegacy(uint64_t target);
    void runThreaded(uint64_t target);
    /**
     * The preamble both cores run before executing at cycles_: finish
     * a reboot, apply due faults, park a wedged or sleeping core, then
     * deliver due device events and interrupts. False when the run
     * loop must go round again instead (time moved, the core halted,
     * or `target` was reached).
     */
    bool readyToStep(uint64_t target);
    void step();
    void dispatchIrqs();
    void enterFunction(uint32_t funcIdx, bool fromIrq);
    /** Pop the active frame, parking its storage for reuse. */
    void popFrame();
    void recordTrap(uint32_t flid, uint32_t pc);
    void startReboot();
    void resetMemoryImage();
    void computeRamSpan();
    /** Apply every scheduled fault due at the current cycle. */
    void applyFaultsDue();
    void applyFault(const FaultEvent &e);
    uint64_t loadMem(uint32_t addr, uint8_t w) const;
    void storeMem(uint32_t addr, uint64_t v, uint8_t w);

    bool irqPending() const { return irqHead_ != pendingIrqs_.size(); }
    void drainDeviceEvents();

    ExecMode mode_;
    std::shared_ptr<const DecodedProgram> decoded_;  ///< null in legacy
    const backend::MProgram &prog_;
    DeviceHub dev_;
    std::map<uint32_t, uint32_t> funcByModuleId_;         ///< legacy only
    std::map<std::string, const backend::MProgram::DataItem *>
        dataByName_;                                      ///< legacy only
    const int *vectors_ = nullptr;  ///< cached interrupt vector table
    size_t numVectors_ = 0;

    std::vector<uint8_t> mem_;
    uint32_t sp_;
    std::vector<Frame> frames_;
    /**
     * Recycled frame storage: popped frames park here so the next
     * call reuses their regs capacity. Steady-state call/return pairs
     * touch no allocator; the pool is bounded by the same depth-64
     * runaway-recursion limit as frames_.
     */
    std::vector<Frame> framePool_;
    std::vector<uint64_t> argBuf_;
    std::vector<uint64_t> retBuf_;
    bool iflag_ = true;
    /** Pending interrupt queue: vector + read index (O(1) pop). */
    std::vector<int> pendingIrqs_;
    size_t irqHead_ = 0;
    /** Reusable scratch for DeviceHub::advanceTo (no per-step alloc). */
    std::vector<int> irqScratch_;
    uint64_t cycles_ = 0;
    uint64_t sleepCycles_ = 0;
    uint64_t instrs_ = 0;
    bool halted_ = false;
    bool wedged_ = false;
    bool sleeping_ = false;
    uint32_t failFnIdx_ = ~0u;
    // Fault injection and recovery (sim/fault.h).
    RecoveryPolicy recovery_ = RecoveryPolicy::Wedge;
    std::vector<FaultEvent> faultEvents_;
    size_t faultIdx_ = 0;
    bool down_ = false;
    uint64_t downUntil_ = 0;
    uint64_t downCycles_ = 0;
    uint64_t wedgedCycles_ = 0;
    uint32_t reboots_ = 0;
    uint32_t traps_ = 0;
    uint32_t cfiTraps_ = 0;
    uint32_t crashes_ = 0;
    std::vector<TrapEntry> trapLog_;
    /**
     * Shadow return stack: every Call/CallR under a CFI build pushes
     * the caller's function index (MOp::SSPush); Ret/Reti implicitly
     * pops (skipping interrupt frames); MOp::SSChk compares the top
     * against the resuming frame. Non-CFI images never push, so the
     * implicit pop is a no-op and the member costs nothing.
     */
    std::vector<uint32_t> shadow_;
    /** RAM-global span [dataLo_, dataHi_) memory flips map into. */
    uint32_t dataLo_ = 0, dataHi_ = 0;
};

/** Scheduling options for a mote network. */
struct NetworkOptions {
    /** Interpreter core for motes added via the MProgram overload. */
    ExecMode mode = ExecMode::Threaded;
    /**
     * Conservative-lookahead windows: sync every
     * min(kAirLatency, next pending radio delivery) cycles instead of
     * the fixed legacy kQuantum. Radio propagation takes kAirLatency
     * cycles, so no mote can observe another inside a window and any
     * window size <= kAirLatency yields identical behaviour.
     */
    bool lookahead = true;
    /**
     * Fault campaign for this run: state faults are scheduled per
     * mote at first run() (node 1 only unless faultCompanions), radio
     * faults are drawn per delivery, and the recovery policy applies
     * to every mote. Defaults inject nothing.
     */
    FaultOptions faults{};
    /**
     * Stop windowing once every mote is terminally dead (halted, or
     * wedged with no pending fault able to revive it): one final
     * fast-forward per mote replaces thousands of idle windows with
     * identical final stats.
     */
    bool earlyExit = true;
    /**
     * Wall-clock watchdog for run(), in milliseconds (0 = off).
     * run() throws SimAbort when the limit passes — the per-cell
     * simulation drivers turn that into a failed cell instead of a
     * hung bench.
     */
    double wallLimitMs = 0.0;
};

/** A network of motes sharing a radio medium, stepped in windows. */
class Network {
  public:
    static constexpr uint64_t kAirLatency = 500;  ///< propagation cycles
    /** Legacy lockstep scheduling quantum in cycles. */
    static constexpr uint64_t kQuantum = 256;

    Network() = default;
    explicit Network(NetworkOptions opts) : opts_(opts) {}

    /** Add a mote running `prog` with the given node id. */
    Machine &addMote(const backend::MProgram &prog, uint8_t nodeId);
    /** Add a mote executing a shared decoded image. It always runs
     *  on the threaded core; `mode` applies to the overload above. */
    Machine &addMote(std::shared_ptr<const DecodedProgram> prog,
                     uint8_t nodeId);

    /** Boot every mote and run the whole network for `cycles`. */
    void run(uint64_t cycles);

    Machine &mote(size_t i) { return *motes_[i]; }
    size_t size() const { return motes_.size(); }
    /** Scheduling windows opened so far (early-exit regression). */
    size_t windows() const { return windows_; }

  private:
    Machine &attachMote(std::unique_ptr<Machine> m);
    void deliverFrom(size_t senderIdx, const Packet &p, uint64_t at);
    uint64_t windowEnd(uint64_t t, uint64_t end) const;
    void runWindows(uint64_t start, uint64_t end);
    bool allMotesDead() const;
    bool pastDeadline() const;

    NetworkOptions opts_;
    std::vector<std::unique_ptr<Machine>> motes_;
    bool booted_ = false;
    size_t windows_ = 0;
    // Wall-clock watchdog state for the current run() call.
    bool hasDeadline_ = false;
    bool timedOut_ = false;
    std::chrono::steady_clock::time_point deadline_;
};

} // namespace stos::sim

#endif
