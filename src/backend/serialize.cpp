/**
 * @file
 * MProgram (de)serialization: target info, machine functions, the
 * interrupt vector table, and the data layout — everything the
 * simulator and the size accounting read. Each aggregate's layout is
 * one transfer() below, its fields in declaration order.
 */
#include "backend/serialize.h"

namespace stos::backend {

void
transfer(auto &a, TargetInfo &x)
{
    a(x.name, x.regBits, x.flashBytes, x.ramBytes, x.clockHz,
      x.romLoadPenalty, x.romLoadSizePenalty);
}

void
transfer(auto &a, MInstr &x)
{
    a(x.op, x.w, x.cond, x.rd, x.ra, x.rb, x.imm, x.target, x.fn, x.gid,
      x.port, x.romData, x.isCheck, x.flid);
}

void
transfer(auto &a, MBlock &x)
{
    a(x.instrs);
}

void
transfer(auto &a, MFunc &x)
{
    a(x.id, x.name, x.blocks, x.numRegs, x.frameBytes, x.interruptVector,
      x.isTask);
}

void
transfer(auto &a, MProgram::DataItem &x)
{
    a(x.globalId, x.name, x.addr, x.size, x.rom, x.init, x.isCheckTag,
      x.isErrorString);
}

void
transfer(auto &a, MProgram &x)
{
    a(x.target, x.funcs, x.entry, x.vectorTable, x.data, x.ramBase,
      x.ramDataEnd, x.romDataBase, x.romDataEnd, x.flidKinds);
}

void
writeProgram(support::BinWriter &w, const MProgram &p)
{
    w(p);
}

MProgram
readProgram(support::BinReader &r)
{
    return r.read<MProgram>();
}

} // namespace stos::backend
