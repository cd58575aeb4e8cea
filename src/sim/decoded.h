/**
 * @file
 * Decoded firmware images for the simulator. A DecodedProgram is
 * built once per MProgram and flattens every function's basic blocks
 * into a single instruction array, resolving at decode time every
 * static fact the interpreter would otherwise re-derive per executed
 * instruction: cycle cost, branch targets as instruction offsets,
 * Call targets as function indices (killing the per-call map lookup),
 * Lea operands as absolute addresses (killing the linear data-layout
 * scan), and the self-loop Jmp that marks a wedged failure stub. The
 * decode is immutable and therefore shared — all motes of a network,
 * and all SimDriver cells running the same firmware (memoized
 * companions in particular), execute one decode.
 *
 * Each function decodes to one execution stream, `instrs`, which the
 * Threaded core executes: one DInstr per MInstr plus a Halt sentinel,
 * with hot two-instruction sequences then rewritten in place into
 * superinstructions at the first instruction's slot. The second
 * original instruction is left in place so a superinstruction that
 * crosses the event horizon mid-pair can stop after its first half
 * with `ip` pointing at a valid continuation — which is what keeps
 * fused execution byte-identical to the legacy core at every device,
 * fault, and interrupt boundary. Offsets are those of the unfused
 * layout, so branch targets and frame ip values need no remapping.
 *
 * DInstr itself is 24 bytes (down from 64): branch target, call
 * index, and I/O port share one field; the width mask and the Sext
 * source mask are re-derived from the stored widths; and the rare
 * immediate that does not fit in 32 bits moves to a per-function
 * cold side table (`DFunc::wideImms`) indexed through the inline
 * immediate field.
 */
#ifndef STOS_SIM_DECODED_H
#define STOS_SIM_DECODED_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/minstr.h"
#include "support/arith.h"

namespace stos::sim {

/** Low-w-bits mask (w >= 64 = all). */
inline uint64_t
widthMask(uint8_t w)
{
    return w >= 64 ? ~0ull : ((1ull << w) - 1);
}

/** `v` cut to `bits` and sign-extended to 64 bits. */
inline int64_t
signExtend(uint64_t v, uint8_t bits)
{
    const uint64_t mask = widthMask(bits);
    v &= mask;
    if (bits - 1u < 63u && (v >> (bits - 1)))
        v |= ~mask;
    return static_cast<int64_t>(v);
}

/**
 * The machine's ALU: the result of one arithmetic MOp at width `w`,
 * truncated to `w`. `y` is the second register for Add..ShrS, the
 * immediate for AddI/AndI and the source width for Sext; Neg, Not and
 * BNot ignore it. Division is total (support/arith.h). Both cores
 * execute every ALU op here; the threaded core's handlers pass their
 * op as a constant, so forced inlining leaves each handler with just
 * its own arithmetic.
 */
[[gnu::always_inline]] inline uint64_t
aluEval(backend::MOp op, uint64_t x, uint64_t y, uint8_t w)
{
    using backend::MOp;
    const uint64_t mask = widthMask(w);
    switch (op) {
      case MOp::Add:
      case MOp::AddI:
        return (x + y) & mask;
      case MOp::Sub:
        return (x - y) & mask;
      case MOp::Mul:
        return (x * y) & mask;
      case MOp::DivU:
        return arith::udiv(x & mask, y & mask) & mask;
      case MOp::DivS:
        return static_cast<uint64_t>(
                   arith::sdiv(signExtend(x, w), signExtend(y, w))) &
               mask;
      case MOp::RemU:
        return arith::urem(x & mask, y & mask) & mask;
      case MOp::RemS:
        return static_cast<uint64_t>(
                   arith::srem(signExtend(x, w), signExtend(y, w))) &
               mask;
      case MOp::And:
      case MOp::AndI:
        return (x & y) & mask;
      case MOp::Or:
        return (x | y) & mask;
      case MOp::Xor:
        return (x ^ y) & mask;
      case MOp::Shl:
        return (x << (y & 63)) & mask;
      case MOp::ShrU:
        return ((x & mask) >> (y & 63)) & mask;
      case MOp::ShrS:
        return static_cast<uint64_t>(signExtend(x, w) >> (y & 63)) & mask;
      case MOp::Neg:
        return (0 - x) & mask;
      case MOp::Not:
        return (x & mask) == 0 ? 1 : 0;
      case MOp::BNot:
        return ~x & mask;
      case MOp::Sext:
        return static_cast<uint64_t>(
                   signExtend(x, static_cast<uint8_t>(y))) &
               mask;
      default:
        return 0;  // not an ALU op
    }
}

/** `a <c> b` with both operands read at width `w` (SetC, CmpBr). */
[[gnu::always_inline]] inline bool
evalCond(backend::MCond c, uint64_t a, uint64_t b, uint8_t w)
{
    using backend::MCond;
    const uint64_t mask = widthMask(w);
    const uint64_t ua = a & mask, ub = b & mask;
    const int64_t sa = signExtend(a, w), sb = signExtend(b, w);
    switch (c) {
      case MCond::Eq: return ua == ub;
      case MCond::Ne: return ua != ub;
      case MCond::LtU: return ua < ub;
      case MCond::LtS: return sa < sb;
      case MCond::LeU: return ua <= ub;
      case MCond::LeS: return sa <= sb;
      case MCond::GtU: return ua > ub;
      case MCond::GtS: return sa > sb;
      case MCond::GeU: return ua >= ub;
      case MCond::GeS: return sa >= sb;
    }
    return false;
}

/** One flattened instruction with its static facts precomputed. */
struct DInstr {
    /**
     * Inline immediate. When kWideImm is set the value did not fit
     * in 32 bits and this is instead an index into the owning
     * function's wideImms side table (see DFunc::imm below, the only
     * accessor the cores use).
     */
    int32_t imm = 0;
    /**
     * Per-op second operand: branch target as an instruction offset
     * (CmpBr/Jmp/SSChk/FCmpBrI), resolved funcs index as callIdx+1
     * with 0 = unlinked (Call), I/O address (In/Out), and the second
     * sub-instruction's immediate/offset/slot for fused ops.
     */
    uint32_t aux = 0;
    uint16_t rd = 0, ra = 0, rb = 0;
    uint16_t cycles = 1;   ///< MProgram::instrCycles (first sub-op)
    uint16_t cycles2 = 0;  ///< fused ops: second sub-op's cycle cost
    backend::MOp op = backend::MOp::Nop;
    uint8_t w = 16;
    backend::MCond cond = backend::MCond::Eq;
    uint8_t flags = 0;
    uint8_t w2 = 16;  ///< fused ops: second sub-op's width

    enum : uint8_t {
        /** Jmp forming a single-instruction self loop (wedged). */
        kWedge = 1,
        /** Call whose resolved target is the failure stub. */
        kCallsFail = 2,
        /** imm indexes DFunc::wideImms instead of holding the value. */
        kWideImm = 4,
    };

    bool wedge() const { return flags & kWedge; }
    bool callsFail() const { return flags & kCallsFail; }
    uint64_t mask() const { return widthMask(w); }
    uint32_t target() const { return aux; }
    int32_t callIdx() const { return static_cast<int32_t>(aux) - 1; }
    uint32_t port() const { return aux; }
};

/**
 * The decode-time footprint win must not silently regress: the whole
 * point of the compact encoding is that between two and three
 * instructions share every cache line the execution loop touches.
 */
static_assert(sizeof(DInstr) <= 32, "DInstr grew past its budget");
static_assert(sizeof(DInstr) == 24, "DInstr layout changed");

/** One flattened function: blocks laid out in order + Halt sentinel. */
struct DFunc {
    /**
     * The execution stream, with fused superinstructions substituted
     * at pair heads (the pair's second instruction kept in place as
     * the mid-pair continuation).
     */
    std::vector<DInstr> instrs;
    std::vector<uint32_t> blockStart;  ///< block index -> instr offset
    /** Cold side table for immediates wider than 32 bits. */
    std::vector<int64_t> wideImms;
    /**
     * Register-file size covering every operand index any instruction
     * of the function names, so the execution loop never bounds-checks
     * or grows the file (out-of-range reads still see the 0 the legacy
     * core would synthesize).
     */
    uint32_t numRegs = 1;
    /**
     * The declared max(MFunc::numRegs, 1) — the legacy core's
     * register-file size, which also bounds how many incoming
     * arguments land in registers. Kept separately so the padded
     * numRegs above never lets an argument through that the legacy
     * core would drop.
     */
    uint32_t argRegs = 1;

    /** The instruction's (possibly side-table) immediate. */
    int64_t
    imm(const DInstr &in) const
    {
        return (in.flags & DInstr::kWideImm)
                   ? wideImms[static_cast<uint32_t>(in.imm)]
                   : in.imm;
    }
    /** Fused ops: the second sub-instruction's immediate (aux). */
    int64_t imm2(const DInstr &in) const
    {
        return static_cast<int32_t>(in.aux);
    }
};

/**
 * The immutable decode of one linked firmware image. Construction
 * is the only mutation; afterwards any number of Machines (on any
 * number of threads) may execute it concurrently.
 */
class DecodedProgram {
  public:
    /** Decode `prog`; the caller keeps `prog` alive for the decode. */
    explicit DecodedProgram(const backend::MProgram &prog);
    /** Decode an owned image (kept alive by the decode itself). */
    explicit DecodedProgram(std::shared_ptr<const backend::MProgram> prog);

    const backend::MProgram &program() const { return *prog_; }
    const std::vector<DFunc> &funcs() const { return funcs_; }
    uint32_t entry() const { return prog_->entry; }

    /** Interrupt vector -> funcs index (-1 = unhandled). */
    const int32_t *vectors() const { return vectors_.data(); }
    size_t numVectors() const { return vectors_.size(); }

    /** Module function id -> funcs index (-1 = not linked). */
    int32_t
    funcIndexForId(uint64_t moduleId) const
    {
        return moduleId < funcIdxById_.size()
                   ? funcIdxById_[static_cast<size_t>(moduleId)]
                   : -1;
    }

    /** funcs index of the failure stub (~0u = none). */
    uint32_t failFnIdx() const { return failFnIdx_; }

    /** 64 KiB memory image with static-data initializers applied. */
    const std::vector<uint8_t> &memInit() const { return memInit_; }

    /** Layout info for a named global; null if absent. */
    const backend::MProgram::DataItem *
    findDataByName(const std::string &name) const;

    /** Superinstructions substituted by the fusion pass (all funcs). */
    size_t fusedPairs() const { return fusedPairs_; }

  private:
    void decode();
    void fuse(DFunc &df);

    const backend::MProgram *prog_;
    std::shared_ptr<const backend::MProgram> owner_;
    std::vector<DFunc> funcs_;
    std::vector<int32_t> vectors_;
    std::vector<int32_t> funcIdxById_;
    std::map<std::string, const backend::MProgram::DataItem *>
        dataByName_;
    std::vector<uint8_t> memInit_;
    uint32_t failFnIdx_ = ~0u;
    size_t fusedPairs_ = 0;
};

} // namespace stos::sim

#endif
