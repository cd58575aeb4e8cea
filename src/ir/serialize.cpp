/**
 * @file
 * IR module (de)serialization. Every aggregate is written
 * field-for-field in declaration order; vectors are a u64 count
 * followed by the elements. Deserialization rebuilds the module
 * through its public API so derived state (interned type ids, the
 * global/function name indexes) is reconstructed, not trusted from
 * the buffer.
 */
#include "ir/serialize.h"

namespace stos::ir {

using support::BinReader;
using support::BinWriter;

//---------------------------------------------------------------------
// TypeTable
//---------------------------------------------------------------------

void
TypeTable::serialize(BinWriter &w) const
{
    w.u64(types_.size());
    for (const Type &t : types_) {
        w.u8(static_cast<uint8_t>(t.kind));
        w.u8(t.bits);
        w.b(t.isSigned);
        w.u32(t.pointee);
        w.u8(static_cast<uint8_t>(t.ptrKind));
        w.u32(t.elem);
        w.u32(t.count);
        w.u32(t.structId);
    }
    w.u32(voidId_);
    w.u32(boolId_);
    w.u32(fnPtrId_);
}

TypeTable
TypeTable::deserialize(BinReader &r)
{
    TypeTable tt;
    size_t n = r.count();
    tt.types_.clear();
    tt.types_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        Type t;
        t.kind = static_cast<TypeKind>(r.u8());
        t.bits = r.u8();
        t.isSigned = r.b();
        t.pointee = r.u32();
        t.ptrKind = static_cast<PtrKind>(r.u8());
        t.elem = r.u32();
        t.count = r.u32();
        t.structId = r.u32();
        tt.types_.push_back(t);
    }
    tt.voidId_ = r.u32();
    tt.boolId_ = r.u32();
    tt.fnPtrId_ = r.u32();
    return tt;
}

//---------------------------------------------------------------------
// Pieces
//---------------------------------------------------------------------

namespace {

void
writeLoc(BinWriter &w, const SourceLoc &loc)
{
    w.u32(loc.file);
    w.u32(loc.line);
    w.u32(loc.col);
}

SourceLoc
readLoc(BinReader &r)
{
    SourceLoc loc;
    loc.file = r.u32();
    loc.line = r.u32();
    loc.col = r.u32();
    return loc;
}

void
writeInstr(BinWriter &w, const Instr &in)
{
    w.u8(static_cast<uint8_t>(in.op));
    w.u32(in.dst);
    w.u32(in.type);
    w.u8(static_cast<uint8_t>(in.bop));
    w.u8(static_cast<uint8_t>(in.uop));
    w.u64(in.args.size());
    for (const Operand &a : in.args) {
        w.u8(static_cast<uint8_t>(a.kind));
        w.u32(a.index);
        w.i64(a.imm);
    }
    w.u32(in.b0);
    w.u32(in.b1);
    w.u32(in.callee);
    w.u32(in.auxA);
    w.u32(in.auxB);
    w.u32(in.flid);
    writeLoc(w, in.loc);
}

Instr
readInstr(BinReader &r)
{
    Instr in;
    in.op = static_cast<Opcode>(r.u8());
    in.dst = r.u32();
    in.type = r.u32();
    in.bop = static_cast<BinOp>(r.u8());
    in.uop = static_cast<UnOp>(r.u8());
    size_t nArgs = r.count();
    in.args.reserve(nArgs);
    for (size_t i = 0; i < nArgs; ++i) {
        Operand a;
        a.kind = static_cast<OperandKind>(r.u8());
        a.index = r.u32();
        a.imm = r.i64();
        in.args.push_back(a);
    }
    in.b0 = r.u32();
    in.b1 = r.u32();
    in.callee = r.u32();
    in.auxA = r.u32();
    in.auxB = r.u32();
    in.flid = r.u32();
    in.loc = readLoc(r);
    return in;
}

void
writeFunction(BinWriter &w, const Function &f)
{
    w.str(f.name);
    w.u32(f.retType);
    w.u64(f.params.size());
    for (uint32_t p : f.params)
        w.u32(p);
    w.u64(f.vregs.size());
    for (const VReg &v : f.vregs) {
        w.u32(v.type);
        w.str(v.name);
    }
    w.u64(f.locals.size());
    for (const Local &l : f.locals) {
        w.str(l.name);
        w.u32(l.type);
    }
    w.u64(f.blocks.size());
    for (const BasicBlock &bb : f.blocks) {
        w.u32(bb.id);
        w.str(bb.name);
        w.u64(bb.instrs.size());
        for (const Instr &in : bb.instrs)
            writeInstr(w, in);
    }
    w.b(f.attrs.isTask);
    w.i32(f.attrs.interruptVector);
    w.b(f.attrs.inlineHint);
    w.b(f.attrs.noInline);
    w.b(f.attrs.isRuntime);
    w.b(f.attrs.isInit);
    w.b(f.attrs.usedFromStart);
    writeLoc(w, f.loc);
    w.b(f.dead);
}

Function
readFunction(BinReader &r)
{
    Function f;
    f.name = r.str();
    f.retType = r.u32();
    size_t nParams = r.count();
    f.params.reserve(nParams);
    for (size_t i = 0; i < nParams; ++i)
        f.params.push_back(r.u32());
    size_t nVRegs = r.count();
    f.vregs.reserve(nVRegs);
    for (size_t i = 0; i < nVRegs; ++i) {
        VReg v;
        v.type = r.u32();
        v.name = r.str();
        f.vregs.push_back(std::move(v));
    }
    size_t nLocals = r.count();
    f.locals.reserve(nLocals);
    for (size_t i = 0; i < nLocals; ++i) {
        Local l;
        l.name = r.str();
        l.type = r.u32();
        f.locals.push_back(std::move(l));
    }
    size_t nBlocks = r.count();
    f.blocks.reserve(nBlocks);
    for (size_t i = 0; i < nBlocks; ++i) {
        BasicBlock bb;
        bb.id = r.u32();
        bb.name = r.str();
        size_t nInstrs = r.count();
        bb.instrs.reserve(nInstrs);
        for (size_t j = 0; j < nInstrs; ++j)
            bb.instrs.push_back(readInstr(r));
        f.blocks.push_back(std::move(bb));
    }
    f.attrs.isTask = r.b();
    f.attrs.interruptVector = r.i32();
    f.attrs.inlineHint = r.b();
    f.attrs.noInline = r.b();
    f.attrs.isRuntime = r.b();
    f.attrs.isInit = r.b();
    f.attrs.usedFromStart = r.b();
    f.loc = readLoc(r);
    f.dead = r.b();
    return f;
}

void
writeGlobal(BinWriter &w, const Global &g)
{
    w.str(g.name);
    w.u32(g.type);
    w.u8(static_cast<uint8_t>(g.section));
    w.bytes(g.init);
    w.b(g.attrs.norace);
    w.b(g.attrs.isString);
    w.b(g.attrs.isErrorString);
    w.b(g.attrs.isCheckTag);
    w.b(g.attrs.isRuntime);
    writeLoc(w, g.loc);
    w.b(g.dead);
}

Global
readGlobal(BinReader &r)
{
    Global g;
    g.name = r.str();
    g.type = r.u32();
    g.section = static_cast<Section>(r.u8());
    g.init = r.bytes();
    g.attrs.norace = r.b();
    g.attrs.isString = r.b();
    g.attrs.isErrorString = r.b();
    g.attrs.isCheckTag = r.b();
    g.attrs.isRuntime = r.b();
    g.loc = readLoc(r);
    g.dead = r.b();
    return g;
}

} // namespace

//---------------------------------------------------------------------
// Module
//---------------------------------------------------------------------

void
writeModule(BinWriter &w, const Module &m)
{
    w.str(m.name());
    m.types().serialize(w);
    w.u64(m.numStructs());
    for (uint32_t i = 0; i < m.numStructs(); ++i) {
        const StructType &s = m.structAt(i);
        w.str(s.name);
        w.u64(s.fields.size());
        for (const StructField &f : s.fields) {
            w.str(f.name);
            w.u32(f.type);
        }
    }
    w.u64(m.globals().size());
    for (const Global &g : m.globals())
        writeGlobal(w, g);
    w.u64(m.funcs().size());
    for (const Function &f : m.funcs())
        writeFunction(w, f);
    w.u64(m.hwregs().size());
    for (const HwReg &h : m.hwregs()) {
        w.str(h.name);
        w.u32(h.addr);
        w.u8(h.bits);
    }
    w.u64(m.racyGlobals().size());
    for (uint32_t id : m.racyGlobals())
        w.u32(id);
    w.u64(m.flidTable().size());
    for (const FlidEntry &e : m.flidTable()) {
        w.u32(e.flid);
        w.str(e.file);
        w.u32(e.line);
        w.str(e.checkKind);
        w.str(e.detail);
    }
}

Module
readModule(BinReader &r)
{
    Module m(r.str());
    m.types() = TypeTable::deserialize(r);
    size_t nStructs = r.count();
    for (size_t i = 0; i < nStructs; ++i) {
        StructType s;
        s.name = r.str();
        size_t nFields = r.count();
        s.fields.reserve(nFields);
        for (size_t j = 0; j < nFields; ++j) {
            StructField f;
            f.name = r.str();
            f.type = r.u32();
            s.fields.push_back(std::move(f));
        }
        m.addStruct(std::move(s));
    }
    size_t nGlobals = r.count();
    for (size_t i = 0; i < nGlobals; ++i)
        m.addGlobal(readGlobal(r));
    size_t nFuncs = r.count();
    for (size_t i = 0; i < nFuncs; ++i)
        m.addFunction(readFunction(r));
    size_t nHwRegs = r.count();
    for (size_t i = 0; i < nHwRegs; ++i) {
        HwReg h;
        h.name = r.str();
        h.addr = r.u32();
        h.bits = r.u8();
        m.addHwReg(std::move(h));
    }
    size_t nRacy = r.count();
    m.racyGlobals().reserve(nRacy);
    for (size_t i = 0; i < nRacy; ++i)
        m.racyGlobals().push_back(r.u32());
    size_t nFlids = r.count();
    m.flidTable().reserve(nFlids);
    for (size_t i = 0; i < nFlids; ++i) {
        FlidEntry e;
        e.flid = r.u32();
        e.file = r.str();
        e.line = r.u32();
        e.checkKind = r.str();
        e.detail = r.str();
        m.flidTable().push_back(std::move(e));
    }
    return m;
}

} // namespace stos::ir
