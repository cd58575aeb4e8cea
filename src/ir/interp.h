/**
 * @file
 * Reference interpreter for TinyCIL. Two roles:
 *
 *  1. Differential testing: optimization passes must preserve the
 *     observable behaviour (hardware writes, return values, safety
 *     faults) of the programs they transform.
 *  2. Safety semantics: tests assert that an out-of-bounds access in a
 *     safe program stops with the right FLID, while the same bug in
 *     an unsafe program silently corrupts memory.
 *
 * The interpreter models the two-level TinyOS concurrency regime:
 * interrupts can be scheduled at step counts and preempt the main
 * context unless an atomic section or a handler is active.
 */
#ifndef STOS_IR_INTERP_H
#define STOS_IR_INTERP_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ir/module.h"

namespace stos::ir {

/** Simple memory-mapped I/O bus; tests install fakes. */
class HwBus {
  public:
    virtual ~HwBus() = default;
    virtual uint32_t read(uint32_t addr, uint8_t bits);
    virtual void write(uint32_t addr, uint32_t value, uint8_t bits);

    /** All writes, in order, for behavioural comparison. */
    struct WriteRecord { uint32_t addr; uint32_t value; };
    const std::vector<WriteRecord> &writeLog() const { return writeLog_; }
    void clearLog() { writeLog_.clear(); }

  protected:
    std::vector<WriteRecord> writeLog_;
};

/** Runtime value: integer, or pointer with live bounds. */
struct RtValue {
    uint64_t i = 0;      ///< integer value, or pointer cur
    uint32_t base = 0;   ///< pointer lower bound
    uint32_t end = 0;    ///< pointer one-past-end bound

    static RtValue ofInt(uint64_t v) { return {v, 0, 0}; }
    static RtValue
    ofPtr(uint32_t cur, uint32_t b, uint32_t e)
    {
        return {cur, b, e};
    }
};

enum class StopReason {
    Returned,     ///< top-level function returned normally
    SafetyFault,  ///< a dynamic check fired (flid says which)
    MemoryFault,  ///< raw access outside mapped memory / ROM write
    StepLimit,
    Halted,       ///< sleeping with no pending interrupt
    BadIndirect,  ///< indirect call through invalid fnptr (unsafe build)
};

struct InterpResult {
    StopReason reason = StopReason::Returned;
    uint32_t flid = 0;
    uint64_t steps = 0;
    RtValue retVal;
    std::string detail;
};

struct InterpOptions {
    uint64_t stepLimit = 2'000'000;
    /** Trap any out-of-object access even in unsafe code (strict). */
    bool strictMemory = false;
};

/**
 * The interpreter. Construct per module; `reset()` lays out globals;
 * `run()` executes a function (normally the app entry).
 */
class Interp {
  public:
    static constexpr uint32_t kRamBase = 0x0100;
    /** Stack grows down from here; ROM data lives above. */
    static constexpr uint32_t kStackTop = 0x8000;

    explicit Interp(const Module &m, HwBus *bus = nullptr,
                    InterpOptions opts = {});

    void reset();

    /** Schedule interrupt vector `vec` to fire at step `step`. */
    void scheduleInterrupt(uint64_t step, int vec);
    /** Schedule vector every `period` steps starting at `first`. */
    void schedulePeriodic(uint64_t first, uint64_t period, int vec,
                          uint64_t until);

    InterpResult run(const std::string &funcName,
                     const std::vector<RtValue> &args = {});

    //--- test introspection -------------------------------------------
    uint64_t readGlobalInt(const std::string &name) const;
    void writeGlobalInt(const std::string &name, uint64_t v);
    uint32_t globalAddr(const std::string &name) const;
    uint8_t readByte(uint32_t addr) const { return mem_.at(addr); }
    uint64_t steps() const { return steps_; }

  private:
    struct Frame {
        const Function *func;
        std::vector<RtValue> regs;
        uint32_t block = 0;
        size_t ip = 0;
        uint32_t localsBase = 0;
    };

    struct Pending { uint64_t step; int vec; };

    [[noreturn]] void trap(StopReason r, uint32_t flid,
                           const std::string &detail);
    RtValue eval(const Frame &fr, const Operand &op) const;
    void layoutGlobals();
    uint32_t localAddr(const Frame &fr, uint32_t localId) const;
    void checkAccess(uint32_t addr, uint32_t size, bool isWrite);
    uint64_t loadRaw(uint32_t addr, uint32_t size);
    void storeRaw(uint32_t addr, uint64_t v, uint32_t size);
    RtValue loadTyped(uint32_t addr, TypeId t);
    void storeTyped(uint32_t addr, const RtValue &v, TypeId t);
    RtValue callFunction(const Function &f, const std::vector<RtValue> &args,
                         int depth);
    void maybeDispatchInterrupts(int depth);

    const Module &mod_;
    HwBus *bus_;
    HwBus defaultBus_;
    InterpOptions opts_;

    std::vector<uint8_t> mem_;
    std::vector<uint32_t> globalAddr_;
    uint32_t ramEnd_ = kRamBase;
    uint32_t stackPtr_ = kStackTop;
    uint64_t steps_ = 0;
    bool intEnabled_ = true;
    int atomicDepth_ = 0;
    bool inHandler_ = false;
    std::vector<bool> savedIrq_;    ///< AtomicBegin IRQ-bit save stack
    std::vector<Pending> pending_;  ///< sorted by step

    // Trap bookkeeping (exceptions carry the payload).
    struct TrapException { InterpResult result; };
};

} // namespace stos::ir

#endif
