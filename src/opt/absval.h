/**
 * @file
 * Abstract values for the cXprop-style dataflow analysis. The domain
 * is a product of an integer interval domain and a known-bits domain
 * (two of cXprop's pluggable abstract domains, LCTES'06), extended
 * with pointer provenance: which object a pointer addresses and the
 * interval of its byte offset. Provenance is what lets the analyzer
 * prove bounds checks redundant.
 */
#ifndef STOS_OPT_ABSVAL_H
#define STOS_OPT_ABSVAL_H

#include <cstdint>
#include <optional>
#include <vector>
#include <string>

#include "analysis/pointsto.h"
#include "ir/module.h"

namespace stos::opt {

/** Which domain components are active (ablation hooks). */
struct DomainConfig {
    bool intervals = true;   ///< interval component (else constants only)
    bool knownBits = true;   ///< bitwise component
};

/**
 * One abstract value. `Bottom` = unreachable / uninitialized;
 * `Top` = unknown. Integer values carry [lo, hi] plus known bits;
 * pointer values carry provenance.
 */
struct AbsVal {
    enum Kind : uint8_t { Bottom, Int, Ptr, Top } kind = Bottom;

    // Int payload (signed 64-bit envelope of the machine value).
    int64_t lo = 0;
    int64_t hi = 0;
    uint64_t knownMask = 0;  ///< bits whose value is known
    uint64_t knownVal = 0;   ///< values of the known bits

    // Ptr payload.
    bool nonNull = false;
    bool exactObj = false;   ///< obj identifies the single target
    analysis::MemObj obj;
    int64_t offLo = 0;       ///< byte offset interval within obj
    int64_t offHi = 0;

    static AbsVal bottom() { return {}; }
    static AbsVal
    top()
    {
        AbsVal v;
        v.kind = Top;
        return v;
    }
    static AbsVal constant(int64_t c);
    static AbsVal range(int64_t lo, int64_t hi);
    static AbsVal pointer(const analysis::MemObj &obj, int64_t off,
                          bool nonNull = true);

    bool isBottom() const { return kind == Bottom; }
    bool isTop() const { return kind == Top; }
    bool isConst() const
    {
        return kind == Int && lo == hi;
    }
    std::optional<int64_t>
    asConst() const
    {
        if (isConst())
            return lo;
        return std::nullopt;
    }

    bool operator==(const AbsVal &) const = default;

    std::string toString() const;
};

/** Lattice join (least upper bound). */
AbsVal join(const AbsVal &a, const AbsVal &b, const DomainConfig &cfg);

/**
 * Widening thresholds: loop bounds in embedded code are almost always
 * small powers of two (buffer sizes) or type extrema; widening to the
 * next threshold instead of infinity keeps the bounds the check
 * eliminator needs while still guaranteeing fast convergence. Each
 * analysis engine owns an instance seeded with the defaults plus the
 * analyzed program's own constants (classic threshold widening, so
 * loop bounds like `i < 10` survive) — per-instance state, so
 * concurrent builds neither race nor leak thresholds across programs.
 */
class WidenThresholds {
  public:
    WidenThresholds();  ///< seeded with the power-of-two defaults
    /** Register extra thresholds (kept sorted and unique). */
    void add(const std::vector<int64_t> &values);
    /** Smallest threshold >= v (INT64_MAX/4 if none). */
    int64_t up(int64_t v) const;
    /** Largest negated threshold <= v (INT64_MIN/4 if none). */
    int64_t down(int64_t v) const;
    /** The thresholds, ascending and unique. */
    const std::vector<int64_t> &values() const { return ts_; }

  private:
    std::vector<int64_t> ts_;
};

/**
 * Widen a to cover b, moving each integer bound that grows to the next
 * threshold (used after repeated joins on loop heads and summaries).
 */
AbsVal widen(const AbsVal &a, const AbsVal &b,
             const WidenThresholds &thresholds);

/**
 * Widen a to cover b by jumping to the bounds of type `t`: an integer
 * bound that moves goes to the type's extreme, or to infinity when b
 * already lies beyond it or the type is 64 bits wide or not scalar,
 * pointer offsets go to infinity, and a changed integer keeps no
 * known bits.
 * Applied repeatedly to one value, it returns something other than
 * its first argument at most kTypeBoundMaxChanges times: Bottom to a
 * value once; an integer's known bits on their own once (the first
 * change drops them all); each bound twice (extreme, then infinity);
 * a pointer's nonNull, exactObj and each offset once; Top once.
 */
AbsVal widenToType(const AbsVal &a, const AbsVal &b,
                   const ir::TypeTable &tt, ir::TypeId t);

/** Bound on the changes of a value under repeated widenToType. */
inline constexpr int kTypeBoundMaxChanges = 7;

/** Clamp an integer abstract value to a type's width/signedness. */
AbsVal clampToType(const AbsVal &v, const ir::TypeTable &tt,
                   ir::TypeId t, const DomainConfig &cfg);

/** Transfer function for binary ops (operands already clamped). */
AbsVal evalBin(ir::BinOp op, const AbsVal &a, const AbsVal &b,
               const ir::TypeTable &tt, ir::TypeId operandType,
               ir::TypeId resultType, const DomainConfig &cfg);

/** Transfer function for unary ops. */
AbsVal evalUn(ir::UnOp op, const AbsVal &a, const ir::TypeTable &tt,
              ir::TypeId t, const DomainConfig &cfg);

/**
 * Refine `v` assuming the comparison `v <op> rhs` evaluated to
 * `taken`. Used for conditional-branch refinement.
 */
AbsVal refineByCompare(const AbsVal &v, ir::BinOp op, const AbsVal &rhs,
                       bool taken, const DomainConfig &cfg);

} // namespace stos::opt

#endif
