/**
 * @file
 * Unit tests for the TinyCIL data structures: type interning, layout
 * (including fat-pointer sizes), builder, printer, and verifier; the
 * single-definition table (ir/defs.h); and the integer semantics
 * table (ir/semantics.h) checked against the simulator's ALU for
 * every op instruction selection lowers.
 */
#include <gtest/gtest.h>

#include <random>

#include "backend/backend.h"
#include "ir/builder.h"
#include "ir/defs.h"
#include "ir/module.h"
#include "ir/printer.h"
#include "ir/semantics.h"
#include "ir/verifier.h"
#include "sim/decoded.h"

namespace stos::ir {
namespace {

TEST(TypeTable, InterningIsStable)
{
    TypeTable tt;
    EXPECT_EQ(tt.u8(), tt.u8());
    EXPECT_EQ(tt.intTy(16, true), tt.i16());
    EXPECT_NE(tt.u8(), tt.i8());
    EXPECT_NE(tt.u16(), tt.u32());
    TypeId p1 = tt.ptrTy(tt.u8());
    TypeId p2 = tt.ptrTy(tt.u8());
    EXPECT_EQ(p1, p2);
    EXPECT_NE(p1, tt.ptrTy(tt.u16()));
}

TEST(TypeTable, PtrKindsAreDistinctTypes)
{
    TypeTable tt;
    TypeId pu = tt.ptrTy(tt.u8(), PtrKind::Unchecked);
    TypeId ps = tt.ptrTy(tt.u8(), PtrKind::Safe);
    TypeId pq = tt.ptrTy(tt.u8(), PtrKind::Seq);
    EXPECT_NE(pu, ps);
    EXPECT_NE(ps, pq);
    EXPECT_EQ(tt.withPtrKind(pu, PtrKind::Seq), pq);
}

TEST(Layout, ScalarSizes)
{
    Module m;
    auto &tt = m.types();
    EXPECT_EQ(m.typeSize(tt.u8()), 1u);
    EXPECT_EQ(m.typeSize(tt.i16()), 2u);
    EXPECT_EQ(m.typeSize(tt.u32()), 4u);
    EXPECT_EQ(m.typeSize(tt.boolTy()), 1u);
    EXPECT_EQ(m.typeSize(tt.fnPtrTy()), 2u);
}

TEST(Layout, FatPointerSizes)
{
    Module m;
    auto &tt = m.types();
    TypeId u8 = tt.u8();
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::Unchecked)), 2u);
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::Safe)), 2u);
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::FSeq)), 4u);
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::Seq)), 6u);
    EXPECT_EQ(m.typeSize(tt.ptrTy(u8, PtrKind::Wild)), 4u);
}

TEST(Layout, StructOffsetsChangeWithPointerKinds)
{
    Module m;
    auto &tt = m.types();
    StructType s;
    s.name = "msg";
    s.fields.push_back({"p", tt.ptrTy(tt.u8())});
    s.fields.push_back({"len", tt.u16()});
    uint32_t sid = m.addStruct(s);
    EXPECT_EQ(m.fieldOffset(sid, 1), 2u);
    EXPECT_EQ(m.structSize(sid), 4u);
    // Re-kind the pointer field as SEQ: offsets shift, struct grows.
    m.structAt(sid).fields[0].type = tt.ptrTy(tt.u8(), PtrKind::Seq);
    EXPECT_EQ(m.fieldOffset(sid, 1), 6u);
    EXPECT_EQ(m.structSize(sid), 8u);
}

TEST(Layout, ArraySizes)
{
    Module m;
    auto &tt = m.types();
    EXPECT_EQ(m.typeSize(tt.arrayTy(tt.u16(), 10)), 20u);
    EXPECT_EQ(m.typeSize(tt.arrayTy(tt.arrayTy(tt.u8(), 4), 3)), 12u);
}

Function
makeReturn42(Module &m)
{
    Function f;
    f.name = "f";
    f.retType = m.types().u16();
    return f;
}

TEST(Builder, EmitsWellFormedFunction)
{
    Module m;
    Function f = makeReturn42(m);
    f.addBlock("entry");
    {
        Builder b(m, f);
        b.setBlock(0);
        uint32_t v = b.constI(m.types().u16(), 42);
        b.ret(Operand::vreg(v));
    }
    m.addFunction(std::move(f));
    EXPECT_TRUE(verifyModule(m).empty());
}

TEST(Verifier, CatchesMissingTerminator)
{
    Module m;
    Function f;
    f.name = "g";
    f.retType = m.types().voidTy();
    f.addBlock("entry");
    Instr nop;
    nop.op = Opcode::Nop;
    f.blocks[0].instrs.push_back(nop);
    m.addFunction(std::move(f));
    auto problems = verifyModule(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesBadBranchTarget)
{
    Module m;
    Function f;
    f.name = "g";
    f.retType = m.types().voidTy();
    f.addBlock("entry");
    Instr br;
    br.op = Opcode::Br;
    br.b0 = 99;
    f.blocks[0].instrs.push_back(br);
    m.addFunction(std::move(f));
    auto problems = verifyModule(m);
    ASSERT_FALSE(problems.empty());
}

TEST(Verifier, CatchesCallArity)
{
    Module m;
    Function callee;
    callee.name = "callee";
    callee.retType = m.types().voidTy();
    callee.params.push_back(callee.addVReg(m.types().u8(), "a"));
    callee.addBlock("entry");
    Instr r;
    r.op = Opcode::Ret;
    callee.blocks[0].instrs.push_back(r);
    uint32_t cid = m.addFunction(std::move(callee));

    Function f;
    f.name = "caller";
    f.retType = m.types().voidTy();
    f.addBlock("entry");
    Instr call;
    call.op = Opcode::Call;
    call.callee = cid;
    call.type = m.types().voidTy();
    f.blocks[0].instrs.push_back(call);
    Instr r2;
    r2.op = Opcode::Ret;
    f.blocks[0].instrs.push_back(r2);
    m.addFunction(std::move(f));
    auto problems = verifyModule(m);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("args"), std::string::npos);
}

TEST(Printer, ContainsStructure)
{
    Module m("demo");
    Global g;
    g.name = "counter";
    g.type = m.types().u16();
    m.addGlobal(std::move(g));
    Function f = makeReturn42(m);
    f.addBlock("entry");
    {
        Builder b(m, f);
        b.setBlock(0);
        uint32_t v = b.constI(m.types().u16(), 42);
        b.ret(Operand::vreg(v));
    }
    m.addFunction(std::move(f));
    std::string s = moduleToString(m);
    EXPECT_NE(s.find("module demo"), std::string::npos);
    EXPECT_NE(s.find("@counter"), std::string::npos);
    EXPECT_NE(s.find("func u16 f()"), std::string::npos);
    EXPECT_NE(s.find("ret"), std::string::npos);
}

TEST(Module, DeadEntitiesAreHidden)
{
    Module m;
    Global g;
    g.name = "x";
    g.type = m.types().u8();
    uint32_t id = m.addGlobal(std::move(g));
    EXPECT_NE(m.findGlobal("x"), nullptr);
    m.globalAt(id).dead = true;
    EXPECT_EQ(m.findGlobal("x"), nullptr);
}

TEST(Defs, TwoDefinitionsHaveNoSingle)
{
    Module m;
    Function f = makeReturn42(m);
    f.addBlock("entry");
    Builder b(m, f);
    b.setBlock(0);
    uint32_t once = b.constI(m.types().u16(), 1);
    uint32_t twice = b.mov(m.types().u16(), Operand::vreg(once));
    b.movTo(twice, Operand::immInt(2));
    Defs defs(f);
    ASSERT_NE(defs.single(once), nullptr);
    EXPECT_EQ(defs.single(once)->op, Opcode::ConstI);
    EXPECT_EQ(defs.single(twice), nullptr);
    EXPECT_EQ(defs.chase(twice, {Opcode::Mov}), nullptr);
    EXPECT_EQ(defs.single(kNoVReg), nullptr);
}

TEST(Defs, MovCycleHasNoRoot)
{
    Module m;
    Function f = makeReturn42(m);
    f.addBlock("entry");
    Builder b(m, f);
    b.setBlock(0);
    uint32_t v1 = b.newVReg(m.types().u16());
    uint32_t v2 = b.newVReg(m.types().u16());
    b.movTo(v1, Operand::vreg(v2));
    b.movTo(v2, Operand::vreg(v1));
    Defs defs(f);
    ASSERT_NE(defs.single(v1), nullptr);
    EXPECT_EQ(defs.chase(v1, {Opcode::Mov}), nullptr);
    EXPECT_EQ(defs.chase(v2, {Opcode::Mov, Opcode::Cast}), nullptr);
}

/** A 100-link Cast/Mov chain from a ConstI root; returns the tip. */
uint32_t
buildLongChain(Module &m, Function &f, uint32_t *root)
{
    Builder b(m, f);
    b.setBlock(0);
    TypeId p = m.types().ptrTy(m.types().u8());
    *root = b.constI(m.types().u16(), 0x1234);
    uint32_t cur = *root;
    for (int i = 0; i < 100; ++i) {
        cur = i % 2 ? b.mov(p, Operand::vreg(cur))
                    : b.cast(p, Operand::vreg(cur));
    }
    return cur;
}

TEST(Defs, LongChainResolves)
{
    // The chase's only bound is the function's vreg count.
    Module m;
    Function f = makeReturn42(m);
    f.addBlock("entry");
    uint32_t root = 0;
    uint32_t tip = buildLongChain(m, f, &root);
    Defs defs(f);
    const Def *d = defs.chase(tip, {Opcode::Cast, Opcode::Mov});
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d, defs.single(root));
    EXPECT_EQ(d->op, Opcode::ConstI);
    EXPECT_EQ(d->a.imm, 0x1234);
    // A chase through Mov alone stops at the first Cast.
    EXPECT_EQ(defs.chase(tip, {Opcode::Mov})->op, Opcode::Cast);
}

TEST(Defs, AnswersAfterBlocksAreReplaced)
{
    Module m;
    Function f = makeReturn42(m);
    f.addBlock("entry");
    uint32_t root = 0;
    uint32_t tip = buildLongChain(m, f, &root);
    Defs defs(f);
    // Rewrite the block as instrumentation does: build a new vector,
    // moving every instruction out, then replace the old one.
    std::vector<Instr> out;
    for (auto &in : f.blocks[0].instrs)
        out.push_back(std::move(in));
    f.blocks[0].instrs = std::move(out);
    f.blocks[0].instrs.clear();
    f.blocks[0].instrs.shrink_to_fit();
    const Def *d = defs.chase(tip, {Opcode::Cast, Opcode::Mov});
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->op, Opcode::ConstI);
    EXPECT_EQ(d->a.imm, 0x1234);
}

TEST(Semantics, WidthRule)
{
    TypeTable tt;
    auto bits = [&](TypeId t) { return sem::widthOf(tt, t).bits; };
    EXPECT_EQ(bits(tt.boolTy()), 8);
    EXPECT_FALSE(sem::widthOf(tt, tt.boolTy()).isSigned);
    EXPECT_EQ(bits(tt.u8()), 8);
    EXPECT_EQ(bits(tt.i32()), 32);
    EXPECT_TRUE(sem::widthOf(tt, tt.i16()).isSigned);
    EXPECT_EQ(bits(tt.ptrTy(tt.u8(), PtrKind::Seq)), 16);
    EXPECT_EQ(bits(tt.fnPtrTy()), 16);
    EXPECT_EQ(bits(tt.arrayTy(tt.u8(), 4)), 64);
    EXPECT_EQ(sem::extend(0xFF, sem::widthOf(tt, tt.i8())), -1);
    EXPECT_EQ(sem::extend(0xFF, sem::widthOf(tt, tt.u8())), 255);
    EXPECT_EQ(sem::extend(0x1FF, sem::widthOf(tt, tt.boolTy())), 255);
}

/**
 * Cross-level agreement: what the IR folds and interprets for an op
 * must be what the machine op isel lowers it to computes, at every
 * scalar type. The machine computes at the type's storage width;
 * its registers hold values cut to that width (isel loads an
 * immediate with a width-masked Ldi), while IR operands may carry
 * stale high bits, as an immediate operand does.
 */
TEST(Semantics, IrFoldMatchesMachineAlu)
{
    Module m;
    TypeTable &tt = m.types();
    auto machineBits = [&](TypeId t) {
        return static_cast<uint8_t>(8 * m.typeSize(t));
    };
    const std::vector<TypeId> types = {tt.u8(),  tt.i8(),  tt.u16(), tt.i16(),
                                       tt.u32(), tt.i32(), tt.boolTy()};
    const BinOp kBinOps[] = {
        BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::DivU, BinOp::DivS,
        BinOp::RemU, BinOp::RemS, BinOp::And, BinOp::Or, BinOp::Xor,
        BinOp::Shl, BinOp::ShrU, BinOp::ShrS, BinOp::Eq, BinOp::Ne,
        BinOp::LtU, BinOp::LtS, BinOp::LeU, BinOp::LeS, BinOp::GtU,
        BinOp::GtS, BinOp::GeU, BinOp::GeS};
    const UnOp kUnOps[] = {UnOp::Neg, UnOp::Not, UnOp::BNot};
    const sem::Width boolW = sem::widthOf(tt, tt.boolTy());

    std::mt19937_64 rng(20240601);
    size_t checked = 0;
    for (TypeId t : types) {
        const sem::Width w = sem::widthOf(tt, t);
        const uint8_t bits = machineBits(t);
        const uint64_t mask = sim::widthMask(bits);
        const uint64_t sign = 1ull << (bits - 1);
        // 0, 1, all-ones, sign bit, INT_MAX, a stale-high-bits
        // immediate and small shift counts; (sign, all-ones) is
        // INT_MIN / -1 and (x, 0) a zero divisor.
        std::vector<uint64_t> vals = {0,    1,        2,     mask,
                                      sign, sign - 1, ~0ull, mask + 1,
                                      7,    63};
        std::vector<std::pair<uint64_t, uint64_t>> pairs;
        for (uint64_t a : vals)
            for (uint64_t b : vals)
                pairs.push_back({a, b});
        for (int i = 0; i < 3000; ++i)
            pairs.push_back({rng(), rng() >> (rng() & 63)});

        for (auto [a, b] : pairs) {
            const uint64_t ma = a & mask, mb = b & mask;
            for (BinOp op : kBinOps) {
                uint64_t ir, mach;
                if (binOpIsComparison(op)) {
                    ir = sem::bin(op, a, b, w, boolW);
                    mach = sim::evalCond(backend::condOf(op), ma, mb,
                                         bits);
                } else {
                    ir = sem::bin(op, a, b, w, w);
                    mach = sim::aluEval(backend::aluOpOf(op), ma, mb,
                                        bits);
                }
                ASSERT_EQ(ir, mach)
                    << binOpName(op) << " at " << int(bits)
                    << (w.isSigned ? "s" : "u") << " a=" << a
                    << " b=" << b;
                ++checked;
            }
            for (UnOp op : kUnOps) {
                ASSERT_EQ(sem::un(op, a, w),
                          sim::aluEval(backend::aluOpOf(op), ma, 0, bits))
                    << unOpName(op) << " at " << int(bits) << " a=" << a;
                ++checked;
            }
            // Casts: isel sign-extends a narrower signed source (Sext)
            // and otherwise moves the value at the target width (Mov).
            for (TypeId to : types) {
                const uint8_t toBits = machineBits(to);
                uint64_t mach =
                    w.isSigned && bits < toBits
                        ? sim::aluEval(backend::MOp::Sext, ma, bits,
                                       toBits)
                        : ma & sim::widthMask(toBits);
                ASSERT_EQ(sem::cast(a, w, sem::widthOf(tt, to)), mach)
                    << "cast " << int(bits) << " -> " << int(toBits)
                    << " a=" << a;
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 500000u);
}

} // namespace
} // namespace stos::ir
