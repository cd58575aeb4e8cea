/**
 * @file
 * TinyCIL integer semantics implementation.
 */
#include "ir/semantics.h"

#include "support/arith.h"

namespace stos::ir::sem {

Width
widthOf(const TypeTable &tt, TypeId t)
{
    const Type &ty = tt.get(t);
    switch (ty.kind) {
      case TypeKind::Bool:
        return {8, false};
      case TypeKind::Int:
        return {ty.bits, ty.isSigned};
      case TypeKind::Ptr:
      case TypeKind::FnPtr:
        return {16, false};
      default:
        return {64, false};
    }
}

TypeId
operandType(const Function &f, const Instr &in)
{
    for (const Operand &a : in.args) {
        if (a.isVReg())
            return f.vregs[a.index].type;
    }
    return in.type;
}

uint64_t
bin(BinOp op, uint64_t a, uint64_t b, Width opd, Width res)
{
    // A signed op reads its operands as signed whatever their type's
    // signedness, as the machine op it lowers to does.
    const Width sw{opd.bits, true};
    uint64_t ua = truncate(a, opd), ub = truncate(b, opd);
    int64_t sa = extend(a, sw), sb = extend(b, sw);
    uint64_t r = 0;
    switch (op) {
      case BinOp::Add: r = a + b; break;
      case BinOp::Sub: r = a - b; break;
      case BinOp::Mul: r = a * b; break;
      case BinOp::DivU: r = arith::udiv(ua, ub); break;
      case BinOp::DivS: r = static_cast<uint64_t>(arith::sdiv(sa, sb)); break;
      case BinOp::RemU: r = arith::urem(ua, ub); break;
      case BinOp::RemS: r = static_cast<uint64_t>(arith::srem(sa, sb)); break;
      case BinOp::And: r = a & b; break;
      case BinOp::Or: r = a | b; break;
      case BinOp::Xor: r = a ^ b; break;
      case BinOp::Shl: r = a << (b & 63); break;
      case BinOp::ShrU: r = ua >> (b & 63); break;
      case BinOp::ShrS: r = static_cast<uint64_t>(sa >> (b & 63)); break;
      case BinOp::Eq: r = ua == ub; break;
      case BinOp::Ne: r = ua != ub; break;
      case BinOp::LtU: r = ua < ub; break;
      case BinOp::LtS: r = sa < sb; break;
      case BinOp::LeU: r = ua <= ub; break;
      case BinOp::LeS: r = sa <= sb; break;
      case BinOp::GtU: r = ua > ub; break;
      case BinOp::GtS: r = sa > sb; break;
      case BinOp::GeU: r = ua >= ub; break;
      case BinOp::GeS: r = sa >= sb; break;
    }
    return truncate(r, res);
}

uint64_t
un(UnOp op, uint64_t a, Width w)
{
    uint64_t r = 0;
    switch (op) {
      case UnOp::Neg: r = 0 - a; break;
      case UnOp::Not: r = truncate(a, w) == 0; break;
      case UnOp::BNot: r = ~a; break;
    }
    return truncate(r, w);
}

uint64_t
cast(uint64_t v, Width from, Width to)
{
    return truncate(static_cast<uint64_t>(extend(v, from)), to);
}

} // namespace stos::ir::sem
