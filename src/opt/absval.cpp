/**
 * @file
 * Abstract-domain operations.
 */
#include "opt/absval.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "ir/semantics.h"
#include "support/util.h"

namespace stos::opt {

using namespace stos::ir;

AbsVal
AbsVal::constant(int64_t c)
{
    AbsVal v;
    v.kind = Int;
    v.lo = v.hi = c;
    v.knownMask = ~0ull;
    v.knownVal = static_cast<uint64_t>(c);
    return v;
}

AbsVal
AbsVal::range(int64_t lo, int64_t hi)
{
    AbsVal v;
    v.kind = Int;
    v.lo = lo;
    v.hi = hi;
    if (lo == hi) {
        v.knownMask = ~0ull;
        v.knownVal = static_cast<uint64_t>(lo);
    }
    return v;
}

AbsVal
AbsVal::pointer(const analysis::MemObj &obj, int64_t off, bool nonNull)
{
    AbsVal v;
    v.kind = Ptr;
    v.exactObj = true;
    v.obj = obj;
    v.offLo = v.offHi = off;
    v.nonNull = nonNull;
    return v;
}

std::string
AbsVal::toString() const
{
    switch (kind) {
      case Bottom: return "_|_";
      case Top: return "T";
      case Int:
        if (lo == hi)
            return strfmt("%lld", static_cast<long long>(lo));
        return strfmt("[%lld,%lld]", static_cast<long long>(lo),
                      static_cast<long long>(hi));
      case Ptr:
        return strfmt("ptr%s(off [%lld,%lld])", nonNull ? "!" : "?",
                      static_cast<long long>(offLo),
                      static_cast<long long>(offHi));
    }
    return "?";
}

AbsVal
join(const AbsVal &a, const AbsVal &b, const DomainConfig &cfg)
{
    if (a.isBottom())
        return b;
    if (b.isBottom())
        return a;
    if (a.isTop() || b.isTop())
        return AbsVal::top();
    if (a.kind != b.kind)
        return AbsVal::top();
    if (a.kind == AbsVal::Int) {
        AbsVal v;
        v.kind = AbsVal::Int;
        v.lo = std::min(a.lo, b.lo);
        v.hi = std::max(a.hi, b.hi);
        if (!cfg.intervals && v.lo != v.hi)
            return AbsVal::top();  // constants-only domain
        if (cfg.knownBits) {
            v.knownMask = a.knownMask & b.knownMask &
                          ~(a.knownVal ^ b.knownVal);
            v.knownVal = a.knownVal & v.knownMask;
        }
        return v;
    }
    // Pointers.
    AbsVal v;
    v.kind = AbsVal::Ptr;
    v.nonNull = a.nonNull && b.nonNull;
    if (a.exactObj && b.exactObj && a.obj == b.obj) {
        v.exactObj = true;
        v.obj = a.obj;
        v.offLo = std::min(a.offLo, b.offLo);
        v.offHi = std::max(a.offHi, b.offHi);
    } else {
        v.exactObj = false;
    }
    return v;
}

WidenThresholds::WidenThresholds()
    : ts_{0,  1,   2,   4,    7,    8,    15,   16,    31,    32,   63,
          64, 127, 128, 255,  256,  511,  512,  1023,  1024,  4095, 4096,
          32767, 32768, 65535, 65536, INT64_MAX / 4}
{
}

void
WidenThresholds::add(const std::vector<int64_t> &values)
{
    ts_.insert(ts_.end(), values.begin(), values.end());
    std::sort(ts_.begin(), ts_.end());
    ts_.erase(std::unique(ts_.begin(), ts_.end()), ts_.end());
}

int64_t
WidenThresholds::up(int64_t v) const
{
    auto it = std::lower_bound(ts_.begin(), ts_.end(), v);
    return it != ts_.end() ? *it : INT64_MAX / 4;
}

int64_t
WidenThresholds::down(int64_t v) const
{
    // Largest negated threshold that is still <= v: -t <= v exactly
    // when t >= -v, so it is the negation of the smallest such t.
    if (v == INT64_MIN)
        return INT64_MIN / 4;
    auto it = std::lower_bound(ts_.begin(), ts_.end(), -v);
    return it != ts_.end() ? -*it : INT64_MIN / 4;
}

namespace {

/** Pointer half of both widenings: provenance or offsets give way. */
AbsVal
widenPtr(const AbsVal &a, const AbsVal &b)
{
    AbsVal v = a;
    v.nonNull = a.nonNull && b.nonNull;
    if (!(b.exactObj && a.exactObj && a.obj == b.obj)) {
        v.exactObj = false;
        return v;
    }
    if (b.offLo < a.offLo)
        v.offLo = INT64_MIN / 4;
    if (b.offHi > a.offHi)
        v.offHi = INT64_MAX / 4;
    return v;
}

} // namespace

AbsVal
widen(const AbsVal &a, const AbsVal &b, const WidenThresholds &thresholds)
{
    if (a.isBottom())
        return b;
    if (b.isBottom())
        return a;
    if (a.isTop() || b.isTop() || a.kind != b.kind)
        return AbsVal::top();
    if (a.kind == AbsVal::Int) {
        AbsVal v = a;
        if (b.lo < a.lo)
            v.lo = thresholds.down(b.lo);
        if (b.hi > a.hi)
            v.hi = thresholds.up(b.hi);
        v.knownMask &= b.knownMask & ~(a.knownVal ^ b.knownVal);
        v.knownVal &= v.knownMask;
        return v;
    }
    return widenPtr(a, b);
}

AbsVal
widenToType(const AbsVal &a, const AbsVal &b, const TypeTable &tt,
            TypeId t)
{
    if (b.isBottom())
        return a;
    AbsVal v;
    if (a.isBottom()) {
        v = b;
    } else if (a.isTop() || b.isTop() || a.kind != b.kind) {
        return AbsVal::top();
    } else if (a.kind == AbsVal::Ptr) {
        return widenPtr(a, b);
    } else {
        sem::Width w = sem::widthOf(tt, t);
        int64_t tmin = INT64_MIN / 4, tmax = INT64_MAX / 4;
        if (w.bits < 64)
            std::tie(tmin, tmax) = sem::rangeOf(w);
        v = a;
        if (b.lo < a.lo)
            v.lo = b.lo >= tmin ? tmin : INT64_MIN / 4;
        if (b.hi > a.hi)
            v.hi = b.hi <= tmax ? tmax : INT64_MAX / 4;
        v.knownMask &= b.knownMask & ~(a.knownVal ^ b.knownVal);
        v.knownVal &= v.knownMask;
    }
    // Any change forgets every known bit, so losing them one bit at a
    // time cannot keep the value climbing.
    if (v.kind == AbsVal::Int && !(v == a))
        v.knownMask = v.knownVal = 0;
    return v;
}

AbsVal
clampToType(const AbsVal &v, const TypeTable &tt, TypeId t,
            const DomainConfig &cfg)
{
    // A Top integer is still bounded by its machine type: turning it
    // into the full-width range is what lets later conditional
    // refinement produce usable intervals (e.g. a u8 from a device
    // register is [0,255], then "if (n > 32) n = 32" caps it).
    sem::Width w = sem::widthOf(tt, t);
    if (v.isTop() && cfg.intervals && tt.isScalarInt(t) && w.bits < 64) {
        auto [lo, hi] = sem::rangeOf(w);
        return AbsVal::range(lo, hi);
    }
    if (v.kind != AbsVal::Int || w.bits >= 64)
        return v;
    auto [tmin, tmax] = sem::rangeOf(w);
    AbsVal out = v;
    if (v.lo < tmin || v.hi > tmax) {
        // Deterministic wraparound of a constant.
        if (v.lo == v.hi)
            return AbsVal::constant(
                sem::extend(static_cast<uint64_t>(v.lo), w));
        out.lo = tmin;
        out.hi = tmax;
        out.knownMask = 0;
        out.knownVal = 0;
        if (!cfg.intervals)
            return AbsVal::top();
    }
    out.knownMask &= sem::maskOf(w);
    out.knownVal &= sem::maskOf(w);
    return out;
}

AbsVal
evalBin(BinOp op, const AbsVal &a, const AbsVal &b, const TypeTable &tt,
        TypeId operandType, TypeId resultType, const DomainConfig &cfg)
{
    if (a.isBottom() || b.isBottom())
        return AbsVal::bottom();
    // Pointer comparisons: only equal-object offset reasoning.
    if (a.kind == AbsVal::Ptr || b.kind == AbsVal::Ptr) {
        if (op == BinOp::Eq || op == BinOp::Ne) {
            // p == null is decidable when nonNull is known.
            const AbsVal *p = a.kind == AbsVal::Ptr ? &a : &b;
            const AbsVal *o = a.kind == AbsVal::Ptr ? &b : &a;
            if (o->isConst() && *o->asConst() == 0 && p->nonNull)
                return AbsVal::constant(op == BinOp::Ne ? 1 : 0);
        }
        return AbsVal::range(0, 1);
    }
    if (a.isTop() || b.isTop()) {
        if (binOpIsComparison(op))
            return AbsVal::range(0, 1);
        return AbsVal::top();
    }

    // Constant fast path: the concrete result the engines compute.
    if (a.isConst() && b.isConst()) {
        sem::Width rw = sem::widthOf(tt, resultType);
        return AbsVal::constant(sem::extend(
            sem::bin(op, static_cast<uint64_t>(a.lo),
                     static_cast<uint64_t>(b.lo),
                     sem::widthOf(tt, operandType), rw),
            rw));
    }

    if (!cfg.intervals) {
        if (binOpIsComparison(op))
            return AbsVal::range(0, 1);
        return AbsVal::top();
    }

    // Interval arithmetic for the common operators.
    AbsVal out;
    out.kind = AbsVal::Int;
    bool nonNegA = a.lo >= 0, nonNegB = b.lo >= 0;
    switch (op) {
      case BinOp::Add:
        out.lo = a.lo + b.lo;
        out.hi = a.hi + b.hi;
        break;
      case BinOp::Sub:
        out.lo = a.lo - b.hi;
        out.hi = a.hi - b.lo;
        break;
      case BinOp::Mul: {
        // Corner products of u32-wide intervals can exceed int64;
        // give up on the interval rather than overflow.
        int64_t c[4];
        if (__builtin_mul_overflow(a.lo, b.lo, &c[0]) ||
            __builtin_mul_overflow(a.lo, b.hi, &c[1]) ||
            __builtin_mul_overflow(a.hi, b.lo, &c[2]) ||
            __builtin_mul_overflow(a.hi, b.hi, &c[3]))
            return AbsVal::top();
        out.lo = *std::min_element(c, c + 4);
        out.hi = *std::max_element(c, c + 4);
        break;
      }
      case BinOp::DivU:
        if (nonNegA && b.lo > 0) {
            out.lo = a.lo / b.hi;
            out.hi = a.hi / b.lo;
        } else {
            return AbsVal::top();
        }
        break;
      case BinOp::RemU:
        if (b.lo > 0) {
            out.lo = 0;
            out.hi = b.hi - 1;
            if (nonNegA && a.hi < b.lo) {
                out.lo = a.lo;
                out.hi = a.hi;
            }
        } else {
            return AbsVal::top();
        }
        break;
      case BinOp::And:
        if (cfg.knownBits && nonNegA && nonNegB) {
            out.lo = 0;
            out.hi = std::min(a.hi, b.hi);
        } else {
            return AbsVal::top();
        }
        break;
      case BinOp::Or:
      case BinOp::Xor:
        if (nonNegA && nonNegB) {
            out.lo = 0;
            // Next power-of-two envelope.
            uint64_t m = static_cast<uint64_t>(std::max(a.hi, b.hi));
            uint64_t env = 1;
            while (env <= m && env < (1ull << 62))
                env <<= 1;
            out.hi = static_cast<int64_t>(env - 1);
        } else {
            return AbsVal::top();
        }
        break;
      case BinOp::Shl:
        if (nonNegA && b.isConst() && *b.asConst() >= 0 &&
            *b.asConst() < 32) {
            // Shift in uint64; a 32-bit hi shifted by 31 can pass
            // INT64_MAX, in which case the interval is useless anyway.
            uint64_t sh = static_cast<uint64_t>(*b.asConst());
            uint64_t hi = static_cast<uint64_t>(a.hi) << sh;
            if (hi >> 63)
                return AbsVal::top();
            out.lo = static_cast<int64_t>(
                static_cast<uint64_t>(a.lo) << sh);
            out.hi = static_cast<int64_t>(hi);
        } else {
            return AbsVal::top();
        }
        break;
      case BinOp::ShrU:
        if (nonNegA && b.isConst() && *b.asConst() >= 0 &&
            *b.asConst() < 64) {
            out.lo = a.lo >> *b.asConst();
            out.hi = a.hi >> *b.asConst();
        } else {
            return AbsVal::top();
        }
        break;
      // Comparisons over disjoint intervals decide statically.
      case BinOp::LtU: case BinOp::LtS:
        if (a.hi < b.lo)
            return AbsVal::constant(1);
        if (a.lo >= b.hi)
            return AbsVal::constant(0);
        return AbsVal::range(0, 1);
      case BinOp::LeU: case BinOp::LeS:
        if (a.hi <= b.lo)
            return AbsVal::constant(1);
        if (a.lo > b.hi)
            return AbsVal::constant(0);
        return AbsVal::range(0, 1);
      case BinOp::GtU: case BinOp::GtS:
        if (a.lo > b.hi)
            return AbsVal::constant(1);
        if (a.hi <= b.lo)
            return AbsVal::constant(0);
        return AbsVal::range(0, 1);
      case BinOp::GeU: case BinOp::GeS:
        if (a.lo >= b.hi)
            return AbsVal::constant(1);
        if (a.hi < b.lo)
            return AbsVal::constant(0);
        return AbsVal::range(0, 1);
      case BinOp::Eq:
        if (a.isConst() && b.isConst())
            return AbsVal::constant(a.lo == b.lo);
        if (a.hi < b.lo || a.lo > b.hi)
            return AbsVal::constant(0);
        return AbsVal::range(0, 1);
      case BinOp::Ne:
        if (a.isConst() && b.isConst())
            return AbsVal::constant(a.lo != b.lo);
        if (a.hi < b.lo || a.lo > b.hi)
            return AbsVal::constant(1);
        return AbsVal::range(0, 1);
      default:
        return AbsVal::top();
    }
    return clampToType(out, tt, resultType, cfg);
}

AbsVal
evalUn(UnOp op, const AbsVal &a, const TypeTable &tt, TypeId t,
       const DomainConfig &cfg)
{
    if (a.isBottom())
        return AbsVal::bottom();
    if (a.kind != AbsVal::Int)
        return AbsVal::top();
    if (a.isConst()) {
        sem::Width w = sem::widthOf(tt, t);
        return AbsVal::constant(
            sem::extend(sem::un(op, static_cast<uint64_t>(a.lo), w), w));
    }
    switch (op) {
      case UnOp::Neg: {
        AbsVal v;
        v.kind = AbsVal::Int;
        v.lo = -a.hi;
        v.hi = -a.lo;
        return clampToType(v, tt, t, cfg);
      }
      case UnOp::Not:
        if (a.lo > 0 || a.hi < 0)
            return AbsVal::constant(0);
        return AbsVal::range(0, 1);
      case UnOp::BNot:
        return AbsVal::top();
    }
    return AbsVal::top();
}

AbsVal
refineByCompare(const AbsVal &v, BinOp op, const AbsVal &rhs, bool taken,
                const DomainConfig &cfg)
{
    if (!cfg.intervals || v.kind != AbsVal::Int ||
        rhs.kind != AbsVal::Int || v.isTop() || rhs.isTop()) {
        // Equality with a constant still refines a Top value.
        if (v.kind == AbsVal::Int || v.isTop()) {
            if (taken && op == BinOp::Eq && rhs.isConst())
                return rhs;
            if (!taken && op == BinOp::Ne && rhs.isConst())
                return rhs;
        }
        return v;
    }
    AbsVal out = v;
    auto apply = [&](BinOp effective) {
        switch (effective) {
          case BinOp::LtU: case BinOp::LtS:
            out.hi = std::min(out.hi, rhs.hi - 1);
            break;
          case BinOp::LeU: case BinOp::LeS:
            out.hi = std::min(out.hi, rhs.hi);
            break;
          case BinOp::GtU: case BinOp::GtS:
            out.lo = std::max(out.lo, rhs.lo + 1);
            break;
          case BinOp::GeU: case BinOp::GeS:
            out.lo = std::max(out.lo, rhs.lo);
            break;
          case BinOp::Eq:
            out.lo = std::max(out.lo, rhs.lo);
            out.hi = std::min(out.hi, rhs.hi);
            break;
          default:
            break;
        }
    };
    if (taken) {
        apply(op);
    } else {
        // Negate the comparison.
        switch (op) {
          case BinOp::LtU: apply(BinOp::GeU); break;
          case BinOp::LtS: apply(BinOp::GeS); break;
          case BinOp::LeU: apply(BinOp::GtU); break;
          case BinOp::LeS: apply(BinOp::GtS); break;
          case BinOp::GtU: apply(BinOp::LeU); break;
          case BinOp::GtS: apply(BinOp::LeS); break;
          case BinOp::GeU: apply(BinOp::LtU); break;
          case BinOp::GeS: apply(BinOp::LtS); break;
          case BinOp::Ne: apply(BinOp::Eq); break;
          default: break;
        }
    }
    if (out.lo > out.hi)
        return AbsVal::bottom();  // branch statically impossible
    return out;
}

} // namespace stos::opt
