/**
 * @file
 * TinyCIL integer semantics: the one definition of what every integer
 * BinOp, UnOp and Cast computes. The reference interpreter executes
 * through it, and the two folders -- cXprop's constant paths and the
 * GCC-model backend's block-local folder -- fold through it, so a
 * fold can only replace code where the engines compute the same
 * value. The instruction selector takes its operand widths from the
 * same rules; tests/test_ir.cpp checks every op isel lowers to one
 * machine instruction against the simulator's ALU (sim/decoded.h).
 *
 * A value is the raw bit pattern a register holds, in a uint64_t.
 * Results come back truncated to the result width; operands may carry
 * stale high bits (an immediate, say) and are reduced here.
 */
#ifndef STOS_IR_SEMANTICS_H
#define STOS_IR_SEMANTICS_H

#include <cstdint>
#include <utility>

#include "ir/module.h"

namespace stos::ir::sem {

/** Width and signedness a value of some type is computed at. */
struct Width {
    uint8_t bits = 64;
    bool isSigned = false;
};

/**
 * The width rule: `bool` 8 bits, an Int its own bits and sign,
 * Ptr/FnPtr 16 bits unsigned, anything else 64 bits.
 */
Width widthOf(const TypeTable &tt, TypeId t);

/** Low-bits mask of `w` (all ones at 64 bits). */
constexpr uint64_t
maskOf(Width w)
{
    return w.bits >= 64 ? ~0ull : ((1ull << w.bits) - 1);
}

/** `v` cut to `w`'s bits. */
constexpr uint64_t
truncate(uint64_t v, Width w)
{
    return v & maskOf(w);
}

/**
 * `v` cut to `w`'s bits and read as `w` reads it: sign-extended when
 * `w` is signed, zero-extended otherwise.
 */
constexpr int64_t
extend(uint64_t v, Width w)
{
    uint64_t u = truncate(v, w);
    if (w.isSigned && w.bits < 64 && (u >> (w.bits - 1)))
        u |= ~maskOf(w);
    return static_cast<int64_t>(u);
}

/** Smallest and largest value of a width narrower than 64 bits. */
constexpr std::pair<int64_t, int64_t>
rangeOf(Width w)
{
    if (w.isSigned)
        return {-(1ll << (w.bits - 1)), (1ll << (w.bits - 1)) - 1};
    return {0, static_cast<int64_t>(maskOf(w))};
}

/**
 * The type a Bin's, Cast's or Mov's operands are computed at: that of
 * the first vreg operand, else the instruction's own type. For a
 * comparison the instruction's type is the bool result, not the width
 * the operands compare at, so once an optimizer has substituted an
 * immediate into args[0] the real width lives on args[1].
 */
TypeId operandType(const Function &f, const Instr &in);

/**
 * `a op b` with operands at `opd`, truncated to `res`. The op's own
 * signedness (DivS vs DivU, LtS vs LtU, ...) decides how its operands
 * are read; `opd.isSigned` does not.
 */
uint64_t bin(BinOp op, uint64_t a, uint64_t b, Width opd, Width res);

/** `op a` at `w` (operand and result share the instruction's type). */
uint64_t un(UnOp op, uint64_t a, Width w);

/** Integer cast: `v` read at `from`, truncated to `to`. */
uint64_t cast(uint64_t v, Width from, Width to);

} // namespace stos::ir::sem

#endif
