/**
 * @file
 * Mote simulator implementation: the legacy reference interpreter
 * (kept verbatim as the equivalence baseline), the machine state the
 * threaded core (sim/threaded.cpp) shares with it, and the windowed
 * multi-mote network.
 */
#include "sim/machine.h"

#include <algorithm>
#include <limits>

#include "support/util.h"

namespace stos::sim {

using namespace stos::backend;

Machine::Machine(const MProgram &prog, uint8_t nodeId, ExecMode mode)
    : mode_(mode), prog_(prog), dev_(nodeId)
{
    if (mode_ != ExecMode::Legacy)
        decoded_ = std::make_shared<const DecodedProgram>(prog_);
    if (decoded_) {
        failFnIdx_ = decoded_->failFnIdx();
        vectors_ = decoded_->vectors();
        numVectors_ = decoded_->numVectors();
        mem_ = decoded_->memInit();
    } else {
        for (uint32_t i = 0; i < prog_.funcs.size(); ++i) {
            funcByModuleId_[prog_.funcs[i].id] = i;
            if (prog_.funcs[i].name == "__st_fail" ||
                prog_.funcs[i].name == "__st_fail_msg") {
                if (failFnIdx_ == ~0u ||
                    prog_.funcs[i].name == "__st_fail")
                    failFnIdx_ = i;
            }
        }
        vectors_ = prog_.vectorTable.data();
        numVectors_ = prog_.vectorTable.size();
        mem_.assign(0x10000, 0);
        for (const auto &d : prog_.data) {
            dataByName_[d.name] = &d;
            for (size_t i = 0; i < d.init.size() && i < d.size; ++i)
                mem_[d.addr + i] = d.init[i];
        }
    }
    sp_ = prog_.romDataBase;  // stack below the ROM window
    computeRamSpan();
}

Machine::Machine(std::shared_ptr<const DecodedProgram> prog,
                 uint8_t nodeId)
    : mode_(ExecMode::Threaded), decoded_(std::move(prog)),
      prog_(decoded_->program()), dev_(nodeId)
{
    failFnIdx_ = decoded_->failFnIdx();
    vectors_ = decoded_->vectors();
    numVectors_ = decoded_->numVectors();
    mem_ = decoded_->memInit();
    sp_ = prog_.romDataBase;
    computeRamSpan();
}

void
Machine::computeRamSpan()
{
    // The RAM-globals span abstract fault addresses map into: flips
    // must land in mutable state, never the ROM data window.
    uint32_t lo = 0xFFFFFFFFu, hi = 0;
    for (const auto &d : prog_.data) {
        if (d.rom || d.addr >= prog_.romDataBase || d.size == 0)
            continue;
        lo = std::min(lo, d.addr);
        hi = std::max(hi, d.addr + d.size);
    }
    if (hi > lo) {
        dataLo_ = lo;
        dataHi_ = hi;
    }
}

void
Machine::boot()
{
    frames_.clear();
    shadow_.clear();
    enterFunction(prog_.entry, false);
}

void
Machine::setFaultEvents(std::vector<FaultEvent> events)
{
    faultEvents_ = std::move(events);
    std::stable_sort(faultEvents_.begin(), faultEvents_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    faultIdx_ = 0;
}

void
Machine::recordTrap(uint32_t flid, uint32_t pc)
{
    ++traps_;
    uint8_t kind = flid < prog_.flidKinds.size()
                       ? prog_.flidKinds[flid]
                       : static_cast<uint8_t>(kTrapKindMemory);
    if (kind != kTrapKindMemory)
        ++cfiTraps_;
    if (trapLog_.size() < kMaxTrapLog)
        trapLog_.push_back({flid, cycles_, pc, kind});
}

void
Machine::resetMemoryImage()
{
    if (decoded_) {
        mem_ = decoded_->memInit();
        return;
    }
    std::fill(mem_.begin(), mem_.end(), 0);
    for (const auto &d : prog_.data) {
        for (size_t i = 0; i < d.init.size() && i < d.size; ++i)
            mem_[d.addr + i] = d.init[i];
    }
}

void
Machine::startReboot()
{
    // A reboot is a power cycle: volatile state (RAM, registers,
    // stack, pending interrupts, device configuration) reverts to
    // power-on, while host-side observability — the reboot counter,
    // trap log, UART log, and every instrumentation counter —
    // persists across it.
    ++reboots_;
    down_ = true;
    downUntil_ = cycles_ + kRebootLatencyCycles;
    wedged_ = false;
    sleeping_ = false;
    iflag_ = true;
    frames_.clear();
    shadow_.clear();
    argBuf_.clear();
    retBuf_.clear();
    pendingIrqs_.clear();
    irqHead_ = 0;
    resetMemoryImage();
    sp_ = prog_.romDataBase;
    dev_.reset();
}

void
Machine::applyFault(const FaultEvent &e)
{
    switch (e.kind) {
      case FaultKind::MemFlip: {
        if (dataHi_ > dataLo_) {
            uint32_t addr = dataLo_ + e.addr % (dataHi_ - dataLo_);
            mem_[addr] ^= static_cast<uint8_t>(1u << (e.bit & 7));
        }
        break;
      }
      case FaultKind::RegFlip: {
        if (frames_.empty())
            break;
        Frame &fr = frames_.back();
        // Both cores agree only on the *declared* register-file size
        // (the decoded file is operand-padded past it), so the
        // selector folds into that shared bound.
        uint32_t bound = decoded_
                             ? fr.df->argRegs
                             : static_cast<uint32_t>(fr.regs.size());
        if (bound == 0)
            break;
        uint32_t r = e.addr % bound;
        if (r < fr.regs.size())
            fr.regs[r] ^= 1ull << (e.bit & 15);
        break;
      }
      case FaultKind::Crash:
        // Power glitch: the mote reboots regardless of policy.
        ++crashes_;
        startReboot();
        break;
      case FaultKind::PtrOverwrite: {
        // Targeted attack write: clobber the named RAM global with the
        // payload value. Degrades to a no-op if the global is absent
        // or lives in ROM (flash is not attacker-writable here).
        const MProgram::DataItem *d =
            decoded_ ? decoded_->findDataByName(e.targetGlobal)
                     : nullptr;
        if (!decoded_) {
            auto it = dataByName_.find(e.targetGlobal);
            d = it == dataByName_.end() ? nullptr : it->second;
        }
        if (!d || d->rom || d->addr >= prog_.romDataBase ||
            d->size == 0)
            break;
        storeMem(d->addr, e.value,
                 static_cast<uint8_t>(std::min<uint32_t>(d->size, 8) *
                                      8));
        break;
      }
      case FaultKind::RetSmash: {
        // Stack smash: rewrite the caller frame's return linkage so
        // the current call "returns" into the entry of the function
        // selected by the payload. No-op at call depth < 2 (there is
        // no stored return linkage to smash).
        if (frames_.size() < 2 || prog_.funcs.empty())
            break;
        Frame &parent = frames_[frames_.size() - 2];
        uint32_t idx =
            static_cast<uint32_t>(e.value % prog_.funcs.size());
        parent.funcIdx = idx;
        parent.block = 0;
        parent.ip = 0;
        // fp and fromIrq survive the smash (the attacker rewrites the
        // return address, not the frame bookkeeping).
        if (decoded_) {
            parent.df = &decoded_->funcs().at(idx);
            parent.regs.assign(parent.df->numRegs, 0);
        } else {
            parent.regs.assign(
                std::max<uint32_t>(prog_.funcs[idx].numRegs, 1), 0);
        }
        break;
      }
    }
}

void
Machine::applyFaultsDue()
{
    while (faultIdx_ < faultEvents_.size() &&
           faultEvents_[faultIdx_].at <= cycles_) {
        applyFault(faultEvents_[faultIdx_++]);
        if (down_)
            break;  // remaining due events land right after reboot
    }
}

void
Machine::enterFunction(uint32_t funcIdx, bool fromIrq)
{
    // Reuse a recycled frame where possible: its regs vector keeps
    // its capacity, so steady-state call/return pairs never allocate.
    if (framePool_.empty()) {
        frames_.emplace_back();
    } else {
        frames_.push_back(std::move(framePool_.back()));
        framePool_.pop_back();
    }
    Frame &fr = frames_.back();
    fr.funcIdx = funcIdx;
    fr.block = 0;
    fr.ip = 0;
    fr.fp = 0;
    fr.df = nullptr;
    // How many incoming arguments may land in registers: the legacy
    // core bounds this by its register-file size, so the decoded core
    // must use the *declared* size, not the operand-padded one.
    size_t argBound;
    if (decoded_) {
        fr.df = &decoded_->funcs().at(funcIdx);
        fr.regs.assign(fr.df->numRegs, 0);
        argBound = fr.df->argRegs;
    } else {
        const MFunc &f = prog_.funcs.at(funcIdx);
        fr.regs.assign(std::max<uint32_t>(f.numRegs, 1), 0);
        argBound = fr.regs.size();
    }
    fr.fromIrq = fromIrq;
    // Incoming arguments land in the first registers (the selector
    // allocates parameter tuples first, in slot order).
    for (size_t i = 0; i < argBuf_.size() && i < argBound; ++i)
        fr.regs[i] = argBuf_[i];
    argBuf_.clear();
    if (frames_.size() > 64) {
        halted_ = true;  // runaway recursion
    }
}

void
Machine::popFrame()
{
    framePool_.push_back(std::move(frames_.back()));
    frames_.pop_back();
}

uint64_t
Machine::loadMem(uint32_t addr, uint8_t w) const
{
    uint64_t v = 0;
    uint32_t n = w / 8;
    for (uint32_t i = 0; i < n; ++i)
        v |= static_cast<uint64_t>(mem_[(addr + i) & 0xFFFF]) << (8 * i);
    return v;
}

void
Machine::storeMem(uint32_t addr, uint64_t v, uint8_t w)
{
    uint32_t n = w / 8;
    for (uint32_t i = 0; i < n; ++i)
        mem_[(addr + i) & 0xFFFF] = static_cast<uint8_t>(v >> (8 * i));
}

void
Machine::dispatchIrqs()
{
    if (!iflag_ || !irqPending())
        return;
    // O(1) pop-front: a read index over the vector, compacted when
    // the queue drains (the erase(begin()) this replaces was O(n)
    // per dispatch).
    int vec = pendingIrqs_[irqHead_++];
    if (irqHead_ == pendingIrqs_.size()) {
        pendingIrqs_.clear();
        irqHead_ = 0;
    }
    if (vec < 0 || vec >= static_cast<int>(numVectors_) ||
        vectors_[vec] < 0) {
        return;
    }
    iflag_ = false;
    cycles_ += 8;  // hardware interrupt latency
    enterFunction(static_cast<uint32_t>(vectors_[vec]), true);
}

uint64_t
Machine::readGlobal(const std::string &name, uint32_t size) const
{
    const MProgram::DataItem *d =
        decoded_ ? decoded_->findDataByName(name) : nullptr;
    if (!decoded_) {
        auto it = dataByName_.find(name);
        d = it == dataByName_.end() ? nullptr : it->second;
    }
    if (!d)
        return 0;
    return loadMem(d->addr, static_cast<uint8_t>(size * 8));
}

bool
Machine::hasGlobal(const std::string &name) const
{
    if (decoded_)
        return decoded_->findDataByName(name) != nullptr;
    return dataByName_.count(name) > 0;
}

void
Machine::runUntilCycle(uint64_t target)
{
    if (mode_ == ExecMode::Threaded)
        runThreaded(target);
    else
        runLegacy(target);
}

//---------------------------------------------------------------------
// Run-loop preamble shared by both cores
//---------------------------------------------------------------------

bool
Machine::readyToStep(uint64_t target)
{
    if (down_) {
        // Rebooting: powered but not executing until downUntil_.
        if (downUntil_ > target) {
            downCycles_ += target - cycles_;
            cycles_ = target;
            return false;
        }
        downCycles_ += downUntil_ - cycles_;
        cycles_ = downUntil_;
        down_ = false;
        boot();
        return false;
    }
    applyFaultsDue();
    if (down_)
        return false;  // a crash fault rebooted us
    if (wedged_) {
        if (recovery_ == RecoveryPolicy::RebootOnWedge) {
            startReboot();
            return false;
        }
        // Spinning awake in the failure stub -- but a scheduled crash
        // can still power-cycle a wedged mote, so only fast-forward to
        // the next fault.
        uint64_t stop = std::min(target, nextFaultAt());
        wedgedCycles_ += stop - cycles_;
        cycles_ = stop;
        return false;
    }
    if (sleeping_) {
        uint64_t next = std::min(dev_.nextEventAt(), nextFaultAt());
        if (next == UINT64_MAX || next > target) {
            sleepCycles_ += target - cycles_;
            cycles_ = target;
            return false;
        }
        if (next > cycles_) {
            sleepCycles_ += next - cycles_;
            cycles_ = next;
        }
        if (dev_.nextEventAt() > cycles_) {
            // Only a fault is due: injecting state does not wake a
            // sleeping CPU, so apply it and stay asleep.
            applyFaultsDue();
            return false;
        }
        sleeping_ = false;  // the event below wakes the core
    }
    // Device events and interrupts first.
    drainDeviceEvents();
    dispatchIrqs();
    if (frames_.empty()) {
        halted_ = true;
        return false;
    }
    return true;
}

void
Machine::drainDeviceEvents()
{
    irqScratch_.clear();
    dev_.advanceTo(cycles_, irqScratch_);
    for (int v : irqScratch_)
        pendingIrqs_.push_back(v);
}

//---------------------------------------------------------------------
// Legacy core (the reference interpreter, preserved verbatim)
//---------------------------------------------------------------------

void
Machine::runLegacy(uint64_t target)
{
    while (cycles_ < target && !halted_) {
        if (readyToStep(target))
            step();
    }
}

void
Machine::step()
{
    Frame &fr = frames_.back();
    const MFunc &f = prog_.funcs[fr.funcIdx];
    if (fr.block >= f.blocks.size()) {
        halted_ = true;
        return;
    }
    const MBlock &bb = f.blocks[fr.block];
    if (fr.ip >= bb.instrs.size()) {
        // Fall through to the next block.
        ++fr.block;
        fr.ip = 0;
        if (fr.block >= f.blocks.size())
            halted_ = true;
        return;
    }
    const MInstr &in = bb.instrs[fr.ip];
    ++fr.ip;
    ++instrs_;
    cycles_ += prog_.instrCycles(in);
    uint64_t mask = widthMask(in.w);
    auto reg = [&](uint32_t r) -> uint64_t {
        return r < fr.regs.size() ? fr.regs[r] : 0;
    };
    auto setReg = [&](uint32_t r, uint64_t v) {
        if (r >= fr.regs.size())
            fr.regs.resize(r + 1, 0);
        fr.regs[r] = v & mask;
    };

    switch (in.op) {
      case MOp::Ldi:
        setReg(in.rd, static_cast<uint64_t>(in.imm));
        break;
      case MOp::Mov:
        setReg(in.rd, reg(in.ra));
        break;
      case MOp::Add: case MOp::Sub: case MOp::Mul:
      case MOp::DivU: case MOp::DivS: case MOp::RemU: case MOp::RemS:
      case MOp::And: case MOp::Or: case MOp::Xor:
      case MOp::Shl: case MOp::ShrU: case MOp::ShrS:
      case MOp::Neg: case MOp::Not: case MOp::BNot:
        setReg(in.rd, aluEval(in.op, reg(in.ra), reg(in.rb), in.w));
        break;
      case MOp::AddI: case MOp::AndI: case MOp::Sext:
        setReg(in.rd, aluEval(in.op, reg(in.ra),
                              static_cast<uint64_t>(in.imm), in.w));
        break;
      case MOp::SetC:
        setReg(in.rd,
               evalCond(in.cond, reg(in.ra), reg(in.rb), in.w) ? 1 : 0);
        break;
      case MOp::CmpBr:
        if (evalCond(in.cond, reg(in.ra), reg(in.rb), in.w)) {
            fr.block = in.target;
            fr.ip = 0;
        }
        break;
      case MOp::Jmp: {
        // A single-instruction block jumping to itself is a halt loop
        // (the failure handler's final state): spin awake forever.
        if (in.target == fr.block && bb.instrs.size() == 1) {
            wedged_ = true;
            return;
        }
        fr.block = in.target;
        fr.ip = 0;
        break;
      }
      case MOp::Ld:
        setReg(in.rd, loadMem(static_cast<uint32_t>(
                                  (reg(in.ra) + in.imm) & 0xFFFF),
                              in.w));
        break;
      case MOp::St:
        storeMem(
            static_cast<uint32_t>((reg(in.ra) + in.imm) & 0xFFFF),
            reg(in.rb), in.w);
        break;
      case MOp::Lea: {
        const MProgram::DataItem *d = prog_.findData(in.gid);
        setReg(in.rd, d ? (d->addr + in.imm) & 0xFFFF : 0);
        break;
      }
      case MOp::Leal:
        setReg(in.rd, (fr.fp + in.imm) & 0xFFFF);
        break;
      case MOp::Enter: {
        uint32_t size = static_cast<uint32_t>(in.imm);
        if (sp_ < size + 0x200) {
            halted_ = true;  // stack overflow
            return;
        }
        sp_ -= size;
        fr.fp = sp_;
        for (uint32_t i = 0; i < size; ++i)
            mem_[fr.fp + i] = 0;
        break;
      }
      case MOp::Leave:
        sp_ += static_cast<uint32_t>(in.imm);
        break;
      case MOp::SetArg: {
        size_t slot = static_cast<size_t>(in.imm);
        if (argBuf_.size() <= slot)
            argBuf_.resize(slot + 1, 0);
        argBuf_[slot] = reg(in.ra) & mask;
        break;
      }
      case MOp::GetRet: {
        size_t slot = static_cast<size_t>(in.imm);
        setReg(in.rd, slot < retBuf_.size() ? retBuf_[slot] : 0);
        break;
      }
      case MOp::SetRet: {
        size_t slot = static_cast<size_t>(in.imm);
        if (retBuf_.size() <= slot)
            retBuf_.resize(slot + 1, 0);
        retBuf_[slot] = reg(in.ra) & mask;
        break;
      }
      case MOp::Call: {
        auto it = funcByModuleId_.find(in.fn);
        if (it == funcByModuleId_.end()) {
            halted_ = true;
            return;
        }
        if (it->second == failFnIdx_) {
            recordTrap(argBuf_.empty()
                           ? 0
                           : static_cast<uint32_t>(argBuf_[0]),
                       fr.funcIdx);
            if (recovery_ == RecoveryPolicy::RebootOnTrap) {
                startReboot();
                return;
            }
        }
        retBuf_.clear();
        enterFunction(it->second, false);
        break;
      }
      case MOp::CallR: {
        uint64_t id = reg(in.ra);
        if (id == 0) {
            wedged_ = true;  // wild jump; model as a crash
            return;
        }
        auto it = funcByModuleId_.find(static_cast<uint32_t>(id - 1));
        if (it == funcByModuleId_.end()) {
            wedged_ = true;
            return;
        }
        retBuf_.clear();
        enterFunction(it->second, false);
        break;
      }
      case MOp::Ret:
      case MOp::Reti: {
        bool fromIrq = fr.fromIrq;
        // Implicit shadow pop: interrupt frames were never pushed
        // (dispatch is not a Call), and non-CFI images leave the
        // shadow empty, so the guard makes this universally safe.
        if (!fromIrq && !shadow_.empty())
            shadow_.pop_back();
        popFrame();
        if (in.op == MOp::Reti || fromIrq)
            iflag_ = true;
        if (frames_.empty())
            halted_ = true;
        break;
      }
      case MOp::SSPush:
        shadow_.push_back(fr.funcIdx);
        break;
      case MOp::SSChk:
        // Shadow-stack return check: the frame we are about to resume
        // must be the one that pushed at the call site. Taken like a
        // CmpBr into the failure stub on mismatch.
        if (!fr.fromIrq && frames_.size() >= 2 && !shadow_.empty() &&
            shadow_.back() != frames_[frames_.size() - 2].funcIdx) {
            fr.block = in.target;
            fr.ip = 0;
        }
        break;
      case MOp::Sei:
        iflag_ = true;
        break;
      case MOp::Cli:
        iflag_ = false;
        break;
      case MOp::GetIf:
        setReg(in.rd, iflag_ ? 1 : 0);
        break;
      case MOp::SetIf:
        iflag_ = (reg(in.ra) & 1) != 0;
        break;
      case MOp::In:
        setReg(in.rd, dev_.ioRead(in.port, cycles_));
        break;
      case MOp::Out:
        dev_.ioWrite(in.port, static_cast<uint32_t>(reg(in.ra) & mask),
                     cycles_);
        break;
      case MOp::Sleep:
        // Low-power mode: time passes in runUntilCycle until the next
        // device event (or an incoming radio packet) wakes us.
        sleeping_ = true;
        break;
      case MOp::Halt:  // backend never emits this (decoded sentinel)
        halted_ = true;
        break;
      case MOp::Nop:
        break;
      // Decode-time superinstructions live only in the threaded
      // stream; the legacy core never sees them.
      case MOp::FCmpBrI: case MOp::FMov2: case MOp::FLd2:
      case MOp::FSt2: case MOp::FLea2: case MOp::FLeal2:
      case MOp::FSetArg2: case MOp::FLdiArg: case MOp::FSetCI:
      case MOp::FLdiMov: case MOp::FLdiAlu: case MOp::FAluMov:
      case MOp::FMovJmp:
        break;
    }
}

//---------------------------------------------------------------------
// Network
//---------------------------------------------------------------------

Machine &
Network::attachMote(std::unique_ptr<Machine> m)
{
    motes_.push_back(std::move(m));
    Machine *self = motes_.back().get();
    size_t selfIdx = motes_.size() - 1;
    self->devices().onSend = [this, selfIdx](const Packet &p) {
        uint64_t at = motes_[selfIdx]->cycles() + kAirLatency;
        deliverFrom(selfIdx, p, at);
    };
    return *self;
}

void
Network::deliverFrom(size_t senderIdx, const Packet &p, uint64_t at)
{
    const bool faulty = opts_.faults.faultsRadio();
    for (size_t i = 0; i < motes_.size(); ++i) {
        if (i == senderIdx)
            continue;
        DeviceHub &rx = motes_[i]->devices();
        if (!faulty) {
            rx.deliver(p, at);
            continue;
        }
        // Addressed elsewhere: the hub would ignore it anyway — skip
        // the draw so loss/corruption counters only count packets the
        // mote would actually have received.
        if (p.dest != 0xFF && p.dest != rx.nodeId())
            continue;
        // Per-link fault draw. Pure function of (seed, src, dst, at,
        // payload), so the lockstep and lookahead schedulers — which
        // deliver the same (packet, at) pairs — draw identical faults
        // regardless of call order.
        RadioFaultDecision d = radioFaultsFor(opts_.faults, p.src,
                                              rx.nodeId(), at, p.bytes);
        if (d.drop) {
            rx.noteDropped();
            continue;
        }
        if (d.corrupt && !p.bytes.empty()) {
            Packet bad = p;
            bad.bytes[d.corruptByte % bad.bytes.size()] ^=
                static_cast<uint8_t>(1u << d.corruptBit);
            rx.noteCorrupted();
            rx.deliver(bad, at);
        } else {
            rx.deliver(p, at);
        }
        if (d.dup) {
            // The duplicate trails the original by one retransmission
            // time — strictly later, so lookahead windows stay sound.
            rx.noteDuplicated();
            rx.deliver(p, at + DeviceHub::kCyclesPerRadioByte *
                                   std::max<uint64_t>(1, p.bytes.size()));
        }
    }
}

Machine &
Network::addMote(const MProgram &prog, uint8_t nodeId)
{
    return attachMote(
        std::make_unique<Machine>(prog, nodeId, opts_.mode));
}

Machine &
Network::addMote(std::shared_ptr<const DecodedProgram> prog,
                 uint8_t nodeId)
{
    return attachMote(std::make_unique<Machine>(std::move(prog), nodeId));
}

uint64_t
Network::windowEnd(uint64_t t, uint64_t end) const
{
    if (!opts_.lookahead)
        return std::min(t + kQuantum, end);
    // A lone mote has nobody to synchronize with.
    if (motes_.size() <= 1)
        return end;
    // Conservative lookahead: the window may extend to the earliest
    // cycle at which one mote could influence another. Transmitting
    // one radio byte takes kCyclesPerRadioByte cycles and propagation
    // another kAirLatency, so a transmission *started* inside the
    // window cannot arrive before
    //   start + kCyclesPerRadioByte + kAirLatency;
    // a sleeping mote cannot start one before its next wakeup, and a
    // transmission already in flight arrives no earlier than its
    // completion + kAirLatency. Windows also close at the next
    // already-queued delivery so they align with radio activity. For
    // the paper's duty-cycle workloads (motes asleep between timer
    // ticks) this fast-forwards whole sleep periods per window, the
    // Avrora sleep/event trick combined with lookahead.
    uint64_t te = end;
    for (const auto &m : motes_) {
        const Machine &mote = *m;
        if (mote.halted())
            continue;  // permanently dead: cannot transmit
        if (mote.wedged()) {
            // A wedged mote executes nothing — unless recovery will
            // revive it (RebootOnWedge reboots the moment it is next
            // stepped; a scheduled crash power-cycles it at the fault
            // time). Earliest possible transmission follows the
            // reboot latency.
            uint64_t reviveAt;
            if (mote.recoveryPolicy() == RecoveryPolicy::RebootOnWedge)
                reviveAt = mote.cycles() + kRebootLatencyCycles;
            else if (mote.nextFaultAt() != UINT64_MAX)
                reviveAt = mote.nextFaultAt() + kRebootLatencyCycles;
            else
                continue;  // wedged forever: cannot transmit
            uint64_t influence = std::max(t, reviveAt) +
                                 DeviceHub::kCyclesPerRadioByte +
                                 kAirLatency;
            if (influence < te)
                te = influence;
            continue;
        }
        if (mote.down()) {
            // Mid-reboot: nothing happens until downUntil().
            uint64_t influence = std::max(t, mote.downUntil()) +
                                 DeviceHub::kCyclesPerRadioByte +
                                 kAirLatency;
            if (influence < te)
                te = influence;
            continue;
        }
        const DeviceHub &dev = mote.devices();
        uint64_t at = dev.nextRxDeliveryAt();
        if (at > t && at < te)
            te = at;
        uint64_t tx = dev.txDoneAt();
        if (tx != UINT64_MAX && tx + kAirLatency < te)
            te = tx + kAirLatency;
        uint64_t wake = t;
        if (mote.sleeping()) {
            // A scheduled crash can cut a sleep short (reboot, then
            // execute), so the wakeup bound includes the fault time.
            uint64_t next =
                std::min(dev.nextEventAt(), mote.nextFaultAt());
            if (next == UINT64_MAX)
                continue;  // sleeps forever: cannot transmit
            wake = std::max(t, next);
        }
        uint64_t influence =
            wake + DeviceHub::kCyclesPerRadioByte + kAirLatency;
        if (influence < te)
            te = influence;
    }
    return std::max(te, t + 1);  // guarantee forward progress
}

bool
Network::allMotesDead() const
{
    for (const auto &m : motes_) {
        if (m->halted())
            continue;
        // A wedged mote is terminally dead only if nothing can revive
        // it: no RebootOnWedge policy and no pending fault (a crash
        // would power-cycle it).
        if (m->wedged() &&
            m->recoveryPolicy() != RecoveryPolicy::RebootOnWedge &&
            m->nextFaultAt() == UINT64_MAX)
            continue;
        return false;
    }
    return !motes_.empty();
}

bool
Network::pastDeadline() const
{
    return hasDeadline_ &&
           std::chrono::steady_clock::now() > deadline_;
}

void
Network::runWindows(uint64_t start, uint64_t end)
{
    for (uint64_t t = start; t < end;) {
        if (opts_.earlyExit && allMotesDead()) {
            // Every mote is terminally halted or wedged: one final
            // fast-forward per mote produces identical stats to
            // thousands of idle windows.
            for (auto &m : motes_)
                m->runUntilCycle(end);
            return;
        }
        if (pastDeadline()) {
            timedOut_ = true;
            return;
        }
        // Clamp the final window so a request that is not a multiple
        // of the window never runs past `end` (it would inflate every
        // duty-cycle measurement).
        uint64_t te = windowEnd(t, end);
        ++windows_;
        for (auto &m : motes_)
            m->runUntilCycle(te);
        t = te;
    }
}

void
Network::run(uint64_t cycles)
{
    if (motes_.empty())
        return;
    if (!booted_) {
        for (auto &m : motes_)
            m->boot();
        booted_ = true;
        // Compile the fault campaign against the span of this first
        // run. Node 1 is the mote under test; companions are faulted
        // only on request so multi-mote workloads keep a live peer.
        if (opts_.faults.anyFaults()) {
            for (auto &m : motes_) {
                m->setRecoveryPolicy(opts_.faults.recovery);
                uint8_t nid = m->devices().nodeId();
                if (opts_.faults.injectsState() &&
                    (nid == 1 || opts_.faults.faultCompanions)) {
                    m->setFaultEvents(scheduleFaults(
                        opts_.faults, nid, m->cycles(),
                        m->cycles() + cycles));
                }
            }
        }
    }
    uint64_t start = motes_[0]->cycles();
    uint64_t end = start + cycles;

    timedOut_ = false;
    // A limit the clock cannot represent from now means no deadline:
    // adding it to now() would overflow.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const double ticks =
        std::chrono::duration<double, Clock::period>(
            std::chrono::duration<double, std::milli>(opts_.wallLimitMs))
            .count();
    hasDeadline_ =
        opts_.wallLimitMs > 0.0 &&
        ticks < static_cast<double>(
                    std::numeric_limits<Clock::rep>::max()) &&
        static_cast<Clock::rep>(ticks) <=
            (Clock::time_point::max() - now).count();
    if (hasDeadline_)
        deadline_ = now + Clock::duration(static_cast<Clock::rep>(ticks));
    // With a watchdog armed, subdivide the span so even a lone mote
    // (whose lookahead window is the whole run) hits deadline checks.
    // Window subdivision is behaviour-transparent: every window
    // boundary is a pure synchronization point.
    uint64_t slice = hasDeadline_ ? (uint64_t{1} << 22) : UINT64_MAX;
    for (uint64_t t = start; t < end && !timedOut_;) {
        uint64_t stop = end - t > slice ? t + slice : end;
        if (hasDeadline_ && pastDeadline()) {
            timedOut_ = true;
            break;
        }
        runWindows(t, stop);
        t = stop;
    }
    if (timedOut_) {
        throw SimAbort(
            "simulation wall-clock watchdog expired after " +
            std::to_string(opts_.wallLimitMs) + " ms (simulated " +
            std::to_string(motes_[0]->cycles() - start) + " of " +
            std::to_string(cycles) + " cycles)");
    }
}

} // namespace stos::sim
