/**
 * @file
 * MProgram (de)serialization: target info, machine functions, the
 * interrupt vector table, and the data layout — everything the
 * simulator and the size accounting read.
 */
#include "backend/serialize.h"

namespace stos::backend {

using support::BinReader;
using support::BinWriter;

namespace {

void
writeTarget(BinWriter &w, const TargetInfo &t)
{
    w.str(t.name);
    w.u32(t.regBits);
    w.u32(t.flashBytes);
    w.u32(t.ramBytes);
    w.u32(t.clockHz);
    w.u32(t.romLoadPenalty);
    w.u32(t.romLoadSizePenalty);
}

TargetInfo
readTarget(BinReader &r)
{
    TargetInfo t;
    t.name = r.str();
    t.regBits = r.u32();
    t.flashBytes = r.u32();
    t.ramBytes = r.u32();
    t.clockHz = r.u32();
    t.romLoadPenalty = r.u32();
    t.romLoadSizePenalty = r.u32();
    return t;
}

void
writeMInstr(BinWriter &w, const MInstr &in)
{
    w.u8(static_cast<uint8_t>(in.op));
    w.u8(in.w);
    w.u8(static_cast<uint8_t>(in.cond));
    w.u32(in.rd);
    w.u32(in.ra);
    w.u32(in.rb);
    w.i64(in.imm);
    w.u32(in.target);
    w.u32(in.fn);
    w.u32(in.gid);
    w.u32(in.port);
    w.b(in.romData);
    w.b(in.isCheck);
    w.u32(in.flid);
}

MInstr
readMInstr(BinReader &r)
{
    MInstr in;
    in.op = static_cast<MOp>(r.u8());
    in.w = r.u8();
    in.cond = static_cast<MCond>(r.u8());
    in.rd = r.u32();
    in.ra = r.u32();
    in.rb = r.u32();
    in.imm = r.i64();
    in.target = r.u32();
    in.fn = r.u32();
    in.gid = r.u32();
    in.port = r.u32();
    in.romData = r.b();
    in.isCheck = r.b();
    in.flid = r.u32();
    return in;
}

void
writeMFunc(BinWriter &w, const MFunc &f)
{
    w.u32(f.id);
    w.str(f.name);
    w.u64(f.blocks.size());
    for (const MBlock &bb : f.blocks) {
        w.u64(bb.instrs.size());
        for (const MInstr &in : bb.instrs)
            writeMInstr(w, in);
    }
    w.u32(f.numRegs);
    w.u32(f.frameBytes);
    w.i32(f.interruptVector);
    w.b(f.isTask);
}

MFunc
readMFunc(BinReader &r)
{
    MFunc f;
    f.id = r.u32();
    f.name = r.str();
    size_t nBlocks = r.count();
    f.blocks.reserve(nBlocks);
    for (size_t i = 0; i < nBlocks; ++i) {
        MBlock bb;
        size_t nInstrs = r.count();
        bb.instrs.reserve(nInstrs);
        for (size_t j = 0; j < nInstrs; ++j)
            bb.instrs.push_back(readMInstr(r));
        f.blocks.push_back(std::move(bb));
    }
    f.numRegs = r.u32();
    f.frameBytes = r.u32();
    f.interruptVector = r.i32();
    f.isTask = r.b();
    return f;
}

} // namespace

void
writeProgram(BinWriter &w, const MProgram &p)
{
    writeTarget(w, p.target);
    w.u64(p.funcs.size());
    for (const MFunc &f : p.funcs)
        writeMFunc(w, f);
    w.u32(p.entry);
    w.u64(p.vectorTable.size());
    for (int v : p.vectorTable)
        w.i32(v);
    w.u64(p.data.size());
    for (const MProgram::DataItem &d : p.data) {
        w.u32(d.globalId);
        w.str(d.name);
        w.u32(d.addr);
        w.u32(d.size);
        w.b(d.rom);
        w.bytes(d.init);
        w.b(d.isCheckTag);
        w.b(d.isErrorString);
    }
    w.u32(p.ramBase);
    w.u32(p.ramDataEnd);
    w.u32(p.romDataBase);
    w.u32(p.romDataEnd);
    w.bytes(p.flidKinds);
}

MProgram
readProgram(BinReader &r)
{
    MProgram p;
    p.target = readTarget(r);
    size_t nFuncs = r.count();
    p.funcs.reserve(nFuncs);
    for (size_t i = 0; i < nFuncs; ++i)
        p.funcs.push_back(readMFunc(r));
    p.entry = r.u32();
    size_t nVecs = r.count();
    p.vectorTable.reserve(nVecs);
    for (size_t i = 0; i < nVecs; ++i)
        p.vectorTable.push_back(r.i32());
    size_t nData = r.count();
    p.data.reserve(nData);
    for (size_t i = 0; i < nData; ++i) {
        MProgram::DataItem d;
        d.globalId = r.u32();
        d.name = r.str();
        d.addr = r.u32();
        d.size = r.u32();
        d.rom = r.b();
        d.init = r.bytes();
        d.isCheckTag = r.b();
        d.isErrorString = r.b();
        p.data.push_back(std::move(d));
    }
    p.ramBase = r.u32();
    p.ramDataEnd = r.u32();
    p.romDataBase = r.u32();
    p.romDataEnd = r.u32();
    p.flidKinds = r.bytes();
    return p;
}

} // namespace stos::backend
