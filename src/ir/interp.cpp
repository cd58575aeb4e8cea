/**
 * @file
 * TinyCIL reference interpreter implementation.
 */
#include "ir/interp.h"

#include <algorithm>

#include "ir/semantics.h"
#include "support/util.h"

namespace stos::ir {

uint32_t
HwBus::read(uint32_t, uint8_t)
{
    return 0;
}

void
HwBus::write(uint32_t addr, uint32_t value, uint8_t)
{
    writeLog_.push_back({addr, value});
}

namespace {
/** ROM (flash-resident data) window in the interpreter's space. */
constexpr uint32_t kRomBase = 0x8000;
} // namespace

Interp::Interp(const Module &m, HwBus *bus, InterpOptions opts)
    : mod_(m), bus_(bus ? bus : &defaultBus_), opts_(opts)
{
    reset();
}

void
Interp::reset()
{
    mem_.assign(0x10000, 0);
    globalAddr_.assign(mod_.globals().size(), 0);
    steps_ = 0;
    intEnabled_ = true;
    atomicDepth_ = 0;
    inHandler_ = false;
    stackPtr_ = kStackTop;
    savedIrq_.clear();
    pending_.clear();
    layoutGlobals();
}

void
Interp::layoutGlobals()
{
    uint32_t ram = kRamBase;
    uint32_t rom = kRomBase;
    for (const auto &g : mod_.globals()) {
        if (g.dead)
            continue;
        uint32_t sz = std::max(1u, mod_.typeSize(g.type));
        uint32_t &cursor = g.section == Section::Rom ? rom : ram;
        cursor = alignUp(cursor, mod_.typeAlign(g.type));
        globalAddr_[g.id] = cursor;
        if (cursor + sz >= (g.section == Section::Rom ? 0xFFFFu : kRomBase))
            panic("interpreter out of memory for globals");
        for (size_t i = 0; i < g.init.size(); ++i)
            mem_[cursor + i] = g.init[i];
        cursor += sz;
        if (g.section == Section::Ram)
            ramEnd_ = cursor;
    }
}

void
Interp::scheduleInterrupt(uint64_t step, int vec)
{
    pending_.push_back({step, vec});
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Pending &a, const Pending &b) {
                         return a.step < b.step;
                     });
}

void
Interp::schedulePeriodic(uint64_t first, uint64_t period, int vec,
                         uint64_t until)
{
    for (uint64_t s = first; s <= until; s += period)
        pending_.push_back({s, vec});
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Pending &a, const Pending &b) {
                         return a.step < b.step;
                     });
}

void
Interp::trap(StopReason r, uint32_t flid, const std::string &detail)
{
    InterpResult res;
    res.reason = r;
    res.flid = flid;
    res.steps = steps_;
    res.detail = detail;
    throw TrapException{res};
}

uint32_t
Interp::globalAddr(const std::string &name) const
{
    const Global *g = mod_.findGlobal(name);
    if (!g)
        panic("no such global: " + name);
    return globalAddr_.at(g->id);
}

uint64_t
Interp::readGlobalInt(const std::string &name) const
{
    const Global *g = mod_.findGlobal(name);
    if (!g)
        panic("no such global: " + name);
    uint32_t addr = globalAddr_.at(g->id);
    uint32_t sz = mod_.typeSize(g->type);
    uint64_t v = 0;
    for (uint32_t i = 0; i < sz && i < 8; ++i)
        v |= static_cast<uint64_t>(mem_.at(addr + i)) << (8 * i);
    return v;
}

void
Interp::writeGlobalInt(const std::string &name, uint64_t v)
{
    const Global *g = mod_.findGlobal(name);
    if (!g)
        panic("no such global: " + name);
    uint32_t addr = globalAddr_.at(g->id);
    uint32_t sz = mod_.typeSize(g->type);
    for (uint32_t i = 0; i < sz && i < 8; ++i)
        mem_.at(addr + i) = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t
Interp::localAddr(const Frame &fr, uint32_t localId) const
{
    uint32_t off = 0;
    for (uint32_t i = 0; i <= localId; ++i) {
        off = alignUp(off, mod_.typeAlign(fr.func->locals[i].type));
        if (i == localId)
            break;
        off += std::max(1u, mod_.typeSize(fr.func->locals[i].type));
    }
    return fr.localsBase + off;
}

void
Interp::checkAccess(uint32_t addr, uint32_t size, bool isWrite)
{
    if (addr < kRamBase) {
        trap(StopReason::MemoryFault, 0,
             strfmt("access to null page at 0x%x", addr));
    }
    if (addr >= kRomBase) {
        if (isWrite) {
            trap(StopReason::MemoryFault, 0,
                 strfmt("write to ROM at 0x%x", addr));
        }
        return;
    }
    if (addr + size > kStackTop) {
        trap(StopReason::MemoryFault, 0,
             strfmt("access beyond memory at 0x%x", addr));
    }
    if (opts_.strictMemory && addr >= ramEnd_ && addr + size <= stackPtr_) {
        trap(StopReason::MemoryFault, 0,
             strfmt("%s of unallocated memory at 0x%x",
                    isWrite ? "write" : "read", addr));
    }
}

uint64_t
Interp::loadRaw(uint32_t addr, uint32_t size)
{
    checkAccess(addr, size, false);
    uint64_t v = 0;
    for (uint32_t i = 0; i < size; ++i)
        v |= static_cast<uint64_t>(mem_[addr + i]) << (8 * i);
    return v;
}

void
Interp::storeRaw(uint32_t addr, uint64_t v, uint32_t size)
{
    checkAccess(addr, size, true);
    for (uint32_t i = 0; i < size; ++i)
        mem_[addr + i] = static_cast<uint8_t>(v >> (8 * i));
}

RtValue
Interp::loadTyped(uint32_t addr, TypeId t)
{
    const Type &ty = mod_.types().get(t);
    switch (ty.kind) {
      case TypeKind::Ptr: {
        uint32_t cur = static_cast<uint32_t>(loadRaw(addr, 2));
        uint32_t base = 0, end = 0xFFFF;
        switch (ty.ptrKind) {
          case PtrKind::FSeq:
          case PtrKind::Wild:
            end = static_cast<uint32_t>(loadRaw(addr + 2, 2));
            base = 0;
            break;
          case PtrKind::Seq:
            base = static_cast<uint32_t>(loadRaw(addr + 2, 2));
            end = static_cast<uint32_t>(loadRaw(addr + 4, 2));
            break;
          default:
            break;
        }
        return RtValue::ofPtr(cur, base, end);
      }
      case TypeKind::FnPtr:
        return RtValue::ofInt(loadRaw(addr, 2));
      default:
        return RtValue::ofInt(loadRaw(addr, std::max(1u, mod_.typeSize(t))));
    }
}

void
Interp::storeTyped(uint32_t addr, const RtValue &v, TypeId t)
{
    const Type &ty = mod_.types().get(t);
    switch (ty.kind) {
      case TypeKind::Ptr:
        storeRaw(addr, v.i & 0xFFFF, 2);
        switch (ty.ptrKind) {
          case PtrKind::FSeq:
          case PtrKind::Wild:
            storeRaw(addr + 2, v.end, 2);
            break;
          case PtrKind::Seq:
            storeRaw(addr + 2, v.base, 2);
            storeRaw(addr + 4, v.end, 2);
            break;
          default:
            break;
        }
        break;
      case TypeKind::FnPtr:
        storeRaw(addr, v.i & 0xFFFF, 2);
        break;
      default:
        storeRaw(addr, v.i, std::max(1u, mod_.typeSize(t)));
        break;
    }
}

RtValue
Interp::eval(const Frame &fr, const Operand &op) const
{
    switch (op.kind) {
      case OperandKind::VReg:
        return fr.regs.at(op.index);
      case OperandKind::ImmInt:
        return RtValue::ofInt(static_cast<uint64_t>(op.imm));
      case OperandKind::Global: {
        const Global &g = mod_.globalAt(op.index);
        uint32_t addr = globalAddr_.at(g.id);
        uint32_t sz = mod_.typeSize(g.type);
        return RtValue::ofPtr(addr, addr, addr + sz);
      }
      case OperandKind::Func:
        return RtValue::ofInt(op.index + 1);
      case OperandKind::None:
        break;
    }
    return RtValue::ofInt(0);
}

void
Interp::maybeDispatchInterrupts(int depth)
{
    while (!pending_.empty() && pending_.front().step <= steps_ &&
           intEnabled_ && atomicDepth_ == 0 && !inHandler_) {
        int vec = pending_.front().vec;
        pending_.erase(pending_.begin());
        const Function *handler = nullptr;
        for (const auto &f : mod_.funcs()) {
            if (!f.dead && f.attrs.interruptVector == vec) {
                handler = &f;
                break;
            }
        }
        if (!handler)
            continue;
        inHandler_ = true;
        callFunction(*handler, {}, depth + 1);
        inHandler_ = false;
    }
}

RtValue
Interp::callFunction(const Function &f, const std::vector<RtValue> &args,
                     int depth)
{
    if (depth > 64)
        trap(StopReason::MemoryFault, 0, "call stack overflow");
    Frame fr;
    fr.func = &f;
    fr.regs.assign(f.vregs.size(), RtValue{});
    for (size_t i = 0; i < f.params.size() && i < args.size(); ++i)
        fr.regs[f.params[i]] = args[i];

    uint32_t frameSize = 0;
    for (const auto &l : f.locals) {
        frameSize = alignUp(frameSize, mod_.typeAlign(l.type));
        frameSize += std::max(1u, mod_.typeSize(l.type));
    }
    frameSize = alignUp(frameSize, 2);
    if (stackPtr_ < frameSize + ramEnd_)
        trap(StopReason::MemoryFault, 0, "data stack overflow");
    stackPtr_ -= frameSize;
    fr.localsBase = stackPtr_;
    for (uint32_t i = 0; i < frameSize; ++i)
        mem_[fr.localsBase + i] = 0;

    const TypeTable &tt = mod_.types();
    RtValue ret;
    bool running = true;
    while (running) {
        const BasicBlock &bb = f.blocks.at(fr.block);
        if (fr.ip >= bb.instrs.size())
            trap(StopReason::MemoryFault, 0, "fell off basic block");
        const Instr &in = bb.instrs[fr.ip];
        ++fr.ip;
        ++steps_;
        if (steps_ > opts_.stepLimit)
            trap(StopReason::StepLimit, 0, "step limit reached");
        if (!inHandler_)
            maybeDispatchInterrupts(depth);

        switch (in.op) {
          case Opcode::ConstI:
            fr.regs[in.dst] = RtValue::ofInt(sem::truncate(
                static_cast<uint64_t>(in.args[0].imm),
                sem::widthOf(tt, in.type)));
            break;
          case Opcode::Mov:
            fr.regs[in.dst] = eval(fr, in.args[0]);
            break;
          case Opcode::Bin: {
            RtValue av = eval(fr, in.args[0]);
            RtValue bv = eval(fr, in.args[1]);
            RtValue out = RtValue::ofInt(
                sem::bin(in.bop, av.i, bv.i,
                         sem::widthOf(tt, sem::operandType(f, in)),
                         sem::widthOf(tt, in.type)));
            // Pointer-typed arithmetic results keep bounds of a pointer
            // operand (e.g. Seq pointer += n lowered as Bin by an
            // optimizer would still carry bounds).
            if (tt.isPtr(in.type)) {
                out.base = av.base ? av.base : bv.base;
                out.end = av.end ? av.end : bv.end;
            }
            fr.regs[in.dst] = out;
            break;
          }
          case Opcode::Un: {
            RtValue av = eval(fr, in.args[0]);
            fr.regs[in.dst] = RtValue::ofInt(
                sem::un(in.uop, av.i, sem::widthOf(tt, in.type)));
            break;
          }
          case Opcode::Cast: {
            RtValue av = eval(fr, in.args[0]);
            if (tt.isPtr(in.type)) {
                // int -> ptr or ptr -> ptr; preserve bounds if we have
                // them, otherwise the pointer is unchecked-wild.
                uint32_t base = av.base, end = av.end;
                if (base == 0 && end == 0)
                    end = 0xFFFF;
                fr.regs[in.dst] =
                    RtValue::ofPtr(static_cast<uint32_t>(av.i) & 0xFFFF,
                                   base, end);
            } else {
                fr.regs[in.dst] = RtValue::ofInt(sem::cast(
                    av.i, sem::widthOf(tt, sem::operandType(f, in)),
                    sem::widthOf(tt, in.type)));
            }
            break;
          }
          case Opcode::AddrGlobal:
            fr.regs[in.dst] = eval(fr, in.args[0]);
            break;
          case Opcode::AddrLocal: {
            uint32_t addr = localAddr(fr, in.auxA);
            uint32_t sz =
                std::max(1u, mod_.typeSize(f.locals[in.auxA].type));
            fr.regs[in.dst] = RtValue::ofPtr(addr, addr, addr + sz);
            break;
          }
          case Opcode::Gep: {
            RtValue av = eval(fr, in.args[0]);
            RtValue out = av;
            out.i =
                sem::truncate(av.i + in.auxB, sem::widthOf(tt, in.type));
            fr.regs[in.dst] = out;
            break;
          }
          case Opcode::PtrAdd: {
            RtValue av = eval(fr, in.args[0]);
            RtValue bv = eval(fr, in.args[1]);
            int64_t idx =
                in.args[1].isVReg()
                    ? sem::extend(bv.i, sem::widthOf(
                                            tt, f.vregs[in.args[1].index].type))
                    : in.args[1].imm;
            RtValue out = av;
            out.i = sem::truncate(
                static_cast<uint64_t>(static_cast<int64_t>(av.i) +
                                      idx * static_cast<int64_t>(in.auxA)),
                sem::widthOf(tt, in.type));
            fr.regs[in.dst] = out;
            break;
          }
          case Opcode::Load: {
            RtValue p = eval(fr, in.args[0]);
            fr.regs[in.dst] =
                loadTyped(static_cast<uint32_t>(p.i) & 0xFFFF, in.type);
            break;
          }
          case Opcode::Store: {
            RtValue p = eval(fr, in.args[0]);
            RtValue v = eval(fr, in.args[1]);
            storeTyped(static_cast<uint32_t>(p.i) & 0xFFFF, v, in.type);
            break;
          }
          case Opcode::Call: {
            const Function &callee = mod_.funcAt(in.callee);
            std::vector<RtValue> cargs;
            cargs.reserve(in.args.size());
            for (const auto &a : in.args)
                cargs.push_back(eval(fr, a));
            RtValue rv = callFunction(callee, cargs, depth + 1);
            if (in.hasDst())
                fr.regs[in.dst] = rv;
            break;
          }
          case Opcode::CallInd: {
            RtValue p = eval(fr, in.args[0]);
            uint64_t id = p.i;
            if (id == 0 || id > mod_.funcs().size() ||
                mod_.funcAt(static_cast<uint32_t>(id - 1)).dead) {
                trap(StopReason::BadIndirect, 0,
                     strfmt("indirect call through invalid fnptr %llu",
                            static_cast<unsigned long long>(id)));
            }
            callFunction(mod_.funcAt(static_cast<uint32_t>(id - 1)), {},
                         depth + 1);
            break;
          }
          case Opcode::Ret:
            if (!in.args.empty())
                ret = eval(fr, in.args[0]);
            running = false;
            break;
          case Opcode::Br:
            fr.block = in.b0;
            fr.ip = 0;
            break;
          case Opcode::CondBr: {
            RtValue c = eval(fr, in.args[0]);
            fr.block = (c.i != 0) ? in.b0 : in.b1;
            fr.ip = 0;
            break;
          }
          case Opcode::ChkNull: {
            RtValue p = eval(fr, in.args[0]);
            if ((p.i & 0xFFFF) == 0)
                trap(StopReason::SafetyFault, in.flid, "null pointer");
            break;
          }
          case Opcode::ChkUBound: {
            RtValue p = eval(fr, in.args[0]);
            uint32_t cur = static_cast<uint32_t>(p.i) & 0xFFFF;
            if (cur == 0)
                trap(StopReason::SafetyFault, in.flid, "null pointer");
            if (cur + in.auxA > p.end)
                trap(StopReason::SafetyFault, in.flid, "upper bound");
            break;
          }
          case Opcode::ChkBounds:
          case Opcode::ChkWild: {
            RtValue p = eval(fr, in.args[0]);
            uint32_t cur = static_cast<uint32_t>(p.i) & 0xFFFF;
            if (cur == 0)
                trap(StopReason::SafetyFault, in.flid, "null pointer");
            if (cur < p.base || cur + in.auxA > p.end)
                trap(StopReason::SafetyFault, in.flid, "bounds");
            break;
          }
          case Opcode::ChkFnPtr: {
            RtValue p = eval(fr, in.args[0]);
            if (p.i == 0 || p.i > mod_.funcs().size())
                trap(StopReason::SafetyFault, in.flid, "bad fnptr");
            break;
          }
          case Opcode::ChkCfiLabel: {
            RtValue p = eval(fr, in.args[0]);
            const Global &tbl = mod_.globalAt(in.args[1].index);
            if (p.i == 0 || p.i >= tbl.init.size() ||
                tbl.init[static_cast<size_t>(p.i)] != in.auxA) {
                trap(StopReason::SafetyFault, in.flid,
                     "cfi label mismatch");
            }
            break;
          }
          case Opcode::ChkAlign: {
            RtValue p = eval(fr, in.args[0]);
            if (in.auxA > 1 && (p.i % in.auxA) != 0)
                trap(StopReason::SafetyFault, in.flid, "misaligned");
            break;
          }
          case Opcode::Abort:
            trap(StopReason::SafetyFault, in.flid, "abort");
            break;
          case Opcode::AtomicBegin:
            savedIrq_.push_back(intEnabled_);
            intEnabled_ = false;
            ++atomicDepth_;
            break;
          case Opcode::AtomicEnd:
            if (atomicDepth_ > 0)
                --atomicDepth_;
            if (!savedIrq_.empty()) {
                bool prev = savedIrq_.back();
                savedIrq_.pop_back();
                intEnabled_ = in.auxA ? prev : true;
            } else {
                intEnabled_ = true;
            }
            break;
          case Opcode::HwRead:
            fr.regs[in.dst] = RtValue::ofInt(sem::truncate(
                bus_->read(in.auxA,
                           static_cast<uint8_t>(
                               mod_.typeSize(in.type) * 8)),
                sem::widthOf(tt, in.type)));
            break;
          case Opcode::HwWrite: {
            RtValue v = eval(fr, in.args[0]);
            bus_->write(in.auxA, static_cast<uint32_t>(v.i),
                        static_cast<uint8_t>(mod_.typeSize(in.type) * 8));
            break;
          }
          case Opcode::Sleep: {
            if (pending_.empty())
                trap(StopReason::Halted, 0, "sleep with nothing pending");
            uint64_t wake = pending_.front().step;
            if (wake > steps_)
                steps_ = wake;
            maybeDispatchInterrupts(depth);
            break;
          }
          case Opcode::Nop:
            break;
        }
    }
    stackPtr_ += frameSize;
    return ret;
}

InterpResult
Interp::run(const std::string &funcName, const std::vector<RtValue> &args)
{
    const Function *f = mod_.findFunc(funcName);
    if (!f)
        panic("interp: no such function: " + funcName);
    InterpResult res;
    try {
        res.retVal = callFunction(*f, args, 0);
        res.reason = StopReason::Returned;
        res.steps = steps_;
    } catch (TrapException &te) {
        res = te.result;
    }
    return res;
}

} // namespace stos::ir
