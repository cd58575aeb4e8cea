/**
 * @file
 * IR module (de)serialization. Every aggregate's layout is one
 * transfer() below, its fields in declaration order (support/binio.h
 * gives each field's wire form). Deserialization rebuilds the module
 * through its public API so derived state (the global/function name
 * indexes, positional ids) is reconstructed, not trusted from the
 * buffer.
 */
#include "ir/serialize.h"

namespace stos {

void
transfer(auto &a, SourceLoc &x)
{
    a(x.file, x.line, x.col);
}

} // namespace stos

namespace stos::ir {

using support::BinReader;
using support::BinWriter;

void
transfer(auto &a, Type &x)
{
    a(x.kind, x.bits, x.isSigned, x.pointee, x.ptrKind, x.elem, x.count,
      x.structId);
}

template <typename A>
void
transfer(A &a, TypeTable &x)
{
    a(x.types_, x.voidId_, x.boolId_, x.fnPtrId_);
}

void
transfer(auto &a, Operand &x)
{
    a(x.kind, x.index, x.imm);
}

void
transfer(auto &a, Instr &x)
{
    a(x.op, x.dst, x.type, x.bop, x.uop, x.args, x.b0, x.b1, x.callee,
      x.auxA, x.auxB, x.flid, x.loc);
}

void
transfer(auto &a, VReg &x)
{
    a(x.type, x.name);
}

void
transfer(auto &a, Local &x)
{
    a(x.name, x.type);
}

void
transfer(auto &a, BasicBlock &x)
{
    a(x.id, x.name, x.instrs);
}

void
transfer(auto &a, FuncAttrs &x)
{
    a(x.isTask, x.interruptVector, x.inlineHint, x.noInline, x.isRuntime,
      x.isInit, x.usedFromStart);
}

/** The id is positional: Module::addFunction assigns it on read. */
void
transfer(auto &a, Function &x)
{
    a(x.name, x.retType, x.params, x.vregs, x.locals, x.blocks, x.attrs,
      x.loc, x.dead);
}

void
transfer(auto &a, GlobalAttrs &x)
{
    a(x.norace, x.isString, x.isErrorString, x.isCheckTag, x.isRuntime);
}

/** The id is positional: Module::addGlobal assigns it on read. */
void
transfer(auto &a, Global &x)
{
    a(x.name, x.type, x.section, x.init, x.attrs, x.loc, x.dead);
}

void
transfer(auto &a, StructField &x)
{
    a(x.name, x.type);
}

void
transfer(auto &a, StructType &x)
{
    a(x.name, x.fields);
}

void
transfer(auto &a, HwReg &x)
{
    a(x.name, x.addr, x.bits);
}

//---------------------------------------------------------------------
// Module
//---------------------------------------------------------------------

void
writeModule(BinWriter &w, const Module &m)
{
    w(m.name(), m.types(), m.structs(), m.globals(), m.funcs(),
      m.hwregs(), m.racyGlobals(), m.flidTable());
}

Module
readModule(BinReader &r)
{
    Module m(r.read<std::string>());
    r(m.types());
    for (StructType &s : r.read<std::vector<StructType>>())
        m.addStruct(std::move(s));
    for (Global &g : r.read<std::vector<Global>>())
        m.addGlobal(std::move(g));
    for (Function &f : r.read<std::vector<Function>>())
        m.addFunction(std::move(f));
    for (HwReg &h : r.read<std::vector<HwReg>>())
        m.addHwReg(std::move(h));
    r(m.racyGlobals(), m.flidTable());
    return m;
}

} // namespace stos::ir
