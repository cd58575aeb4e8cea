/**
 * @file
 * Defined-semantics integer arithmetic under the two integer
 * semantics modules: `ir/semantics.h` (the IR interpreter and both
 * IR folders) and `sim::aluEval` in `sim/decoded.h` (both simulator
 * cores). TinyCIL division is total:
 *
 *   x / 0  == 0          x % 0  == 0
 *   INT_MIN / -1 == INT_MIN (two's-complement wrap)
 *   INT_MIN % -1 == 0
 *
 * This matches what the simulator cores have always produced for the
 * zero-divisor case and removes the host-UB `INT64_MIN / -1` overflow
 * from all of them. Apart from the frontend's source-level constant
 * evaluator (initializers and sizes, in untyped 64-bit), those two
 * modules are the only users: any other engine or fold of IR or
 * machine code MUST compute through them, not through a copy of
 * their rules, so the engines cannot drift apart again.
 */
#ifndef STOS_SUPPORT_ARITH_H
#define STOS_SUPPORT_ARITH_H

#include <cstdint>

namespace stos::arith {

constexpr uint64_t
udiv(uint64_t a, uint64_t b)
{
    return b ? a / b : 0;
}

constexpr uint64_t
urem(uint64_t a, uint64_t b)
{
    return b ? a % b : 0;
}

/** INT64_MIN / -1 wraps back to INT64_MIN instead of overflowing. */
constexpr int64_t
sdiv(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (b == -1)
        return static_cast<int64_t>(0 - static_cast<uint64_t>(a));
    return a / b;
}

/** INT64_MIN % -1 is 0, consistent with the sdiv wrap. */
constexpr int64_t
srem(int64_t a, int64_t b)
{
    if (b == 0)
        return 0;
    if (b == -1)
        return 0;
    return a % b;
}

/** `a * b` without signed-overflow UB (wraps mod 2^64). */
constexpr int64_t
wrapMul(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) *
                                static_cast<uint64_t>(b));
}

constexpr int64_t
wrapAdd(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
}

constexpr int64_t
wrapSub(int64_t a, int64_t b)
{
    return static_cast<int64_t>(static_cast<uint64_t>(a) -
                                static_cast<uint64_t>(b));
}

} // namespace stos::arith

#endif
