/**
 * @file
 * Defined-semantics integer arithmetic shared by every execution
 * engine (IR interpreter, legacy and threaded simulator cores) and
 * by the optimizer's constant folder. TinyCIL division is total:
 *
 *   x / 0  == 0          x % 0  == 0
 *   INT_MIN / -1 == INT_MIN (two's-complement wrap)
 *   INT_MIN % -1 == 0
 *
 * This matches what the simulator cores have always produced for the
 * zero-divisor case and removes the host-UB `INT64_MIN / -1` overflow
 * from all of them. Any engine or fold that divides MUST go through
 * these helpers so the engines cannot drift apart again.
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
