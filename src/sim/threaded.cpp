/**
 * @file
 * The direct-threaded interpreter core (ExecMode::Threaded).
 *
 * Executes DFunc::instrs — the decoded stream, with the
 * superinstructions the decode-time fusion pass substitutes
 * (sim/decoded.cpp) — with computed-goto dispatch: every handler ends
 * by jumping straight to the next handler through a label table, so
 * the branch predictor sees one indirect branch per opcode site
 * instead of a single shared dispatch branch. Labels-as-values is a
 * GNU extension; the library already requires a GNU-compatible
 * compiler.
 *
 * Equivalence contract (held by tests/test_sim_equivalence.cpp, the
 * frozen simulator manifest, and the differential fuzzer): this core
 * is byte-identical to the legacy reference on every observable
 * counter — cycles, instructions, faults, CFI traps, the trap log, and
 * the UART log. The mechanisms:
 *
 *  - Both cores run one fault/recovery/sleep preamble,
 *    Machine::readyToStep, so faults land at the same instruction
 *    boundaries.
 *  - Device events and interrupts are drained and dispatched once per
 *    event horizon — min(target, next device event, next fault) —
 *    instead of between every instruction. No device event or fault
 *    can fire before the horizon, so the instructions in between see
 *    exactly what the per-step legacy loop would show them.
 *  - A superinstruction executes its two sub-instructions with the
 *    original per-instruction accounting, and re-checks the event
 *    horizon between them. `ip` is incremented before each sub-op
 *    executes, so a mid-pair stop leaves `ip` on the pair's second
 *    original instruction — kept in place by the fusion pass exactly
 *    for this — and the outer loop resumes there, unfused.
 *  - When interrupts are already deliverable at loop entry (an
 *    unhandled vector was popped with more queued), the local horizon
 *    `hz` is forced to 0 so exactly one original instruction runs per
 *    dispatch opportunity, as in the legacy per-step loop.
 *  - Every first sub-instruction of a fused pair is pure (registers,
 *    memory, argBuf only), so between sub-ops only the horizon can
 *    have moved; likewise pure handlers re-check only the horizon,
 *    while handlers that can halt/wedge/sleep/reboot or touch the
 *    interrupt flag run the full exit check (EXIT_FULL below).
 *
 * Adaptive horizons: after an In/Out the horizon is re-aimed only when
 * DeviceHub::scheduleVersion() moved, which register reads never do —
 * so an awake busy-wait loop polling a device register batches
 * instructions up to the real horizon instead of consulting the hub
 * every iteration (asserted by the adaptive-horizon test in
 * tests/test_sim.cpp).
 */
#include "sim/machine.h"

#include <algorithm>

namespace stos::sim {

using namespace stos::backend;

void
Machine::runThreaded(uint64_t target)
{
    while (cycles_ < target && !halted_) {
        if (!readyToStep(target))
            continue;
        // Event horizon: no device event (or scheduled fault) can
        // fire before this cycle. `hz` is the local copy every
        // handler's exit check compares against; it is forced to 0
        // when interrupts are already deliverable so exactly one
        // instruction runs before the outer loop dispatches them
        // (the legacy core dispatches between every step).
        uint64_t horizon =
            std::min({target, dev_.nextEventAt(), nextFaultAt()});
        uint64_t schedVer = dev_.scheduleVersion();
        uint64_t hz = (iflag_ && irqPending()) ? 0 : horizon;
        Frame *frp = &frames_.back();
        const DInstr *code = frp->df->instrs.data();
        uint64_t *regs = frp->regs.data();
        const DInstr *in = nullptr;
        // VM state lives in locals across the dispatch loop: handler
        // stores through regs/mem_ could alias the Machine members in
        // the compiler's view, which would force a spill-and-reload
        // of ip / cycle count / instruction count around every
        // handler. SYNC() writes the architectural state back
        // whenever control leaves the loop or reaches code that
        // reads the members (recordTrap, the outer scheduler).
        size_t ip = frp->ip;
        uint64_t cyc = cycles_;
        uint64_t nexec = instrs_;
        auto refreshFrame = [&] {
            frp = &frames_.back();
            code = frp->df->instrs.data();
            regs = frp->regs.data();
            ip = frp->ip;
        };
        // Version-gated horizon re-aim after I/O: register reads
        // never bump the schedule version, so polling loops skip the
        // hub consultations entirely.
        auto reaim = [&] {
            if (dev_.scheduleVersion() != schedVer) {
                schedVer = dev_.scheduleVersion();
                horizon = std::min(
                    {target, dev_.nextEventAt(), nextFaultAt()});
                hz = (iflag_ && irqPending()) ? 0 : horizon;
            }
        };

// Per-instruction accounting, identical to the legacy core: ip is
// bumped before the handler body runs (so control-flow handlers can
// overwrite it and mid-pair stops resume correctly).
#define ACCT1()                                                        \
    do {                                                               \
        ++ip;                                                          \
        ++nexec;                                                       \
        cyc += in->cycles;                                             \
    } while (0)
// Second sub-instruction of a fused pair (cycles2 = its original
// cost). Control flow is handled by the caller.
#define ACCT2()                                                        \
    do {                                                               \
        ++ip;                                                          \
        ++nexec;                                                       \
        cyc += in->cycles2;                                            \
    } while (0)
// Write the in-register VM state back to the architectural members.
#define SYNC()                                                         \
    do {                                                               \
        frp->ip = ip;                                                  \
        cycles_ = cyc;                                                 \
        instrs_ = nexec;                                               \
    } while (0)
// Exit checks. CHEAP is for handlers that can only advance time;
// FULL stops on every machine-state change the outer loop must see:
// halt, wedge, sleep, reboot, a deliverable interrupt, or the horizon.
#define EXIT_CHEAP()                                                   \
    do {                                                               \
        if (cyc >= hz)                                                 \
            goto out;                                                  \
    } while (0)
#define EXIT_FULL()                                                    \
    do {                                                               \
        if (halted_ || wedged_ || sleeping_ || down_)                  \
            goto out;                                                  \
        if (iflag_ && irqPending())                                    \
            goto out;                                                  \
        if (cyc >= hz)                                                 \
            goto out;                                                  \
    } while (0)

#define OP(name) L_##name:
#define NEXT()                                                         \
    do {                                                               \
        in = &code[ip];                                                \
        goto *table[static_cast<size_t>(in->op)];                      \
    } while (0)
// One ALU instruction. The op is a constant at each use, so aluEval
// inlines to just that op's arithmetic.
#define ALU(name, y)                                                   \
    OP(name)                                                           \
    {                                                                  \
        ACCT1();                                                       \
        regs[in->rd] = aluEval(MOp::name, regs[in->ra], (y), in->w);   \
        EXIT_CHEAP();                                                  \
        NEXT();                                                        \
    }
        static const void *const table[kNumMOps] = {
            &&L_Ldi,     &&L_Mov,     &&L_Add,     &&L_Sub,
            &&L_Mul,     &&L_DivU,    &&L_DivS,    &&L_RemU,
            &&L_RemS,    &&L_And,     &&L_Or,      &&L_Xor,
            &&L_Shl,     &&L_ShrU,    &&L_ShrS,    &&L_AddI,
            &&L_AndI,    &&L_Neg,     &&L_Not,     &&L_BNot,
            &&L_Sext,    &&L_SetC,    &&L_CmpBr,   &&L_Jmp,
            &&L_Ld,      &&L_St,      &&L_Lea,     &&L_Leal,
            &&L_Call,    &&L_CallR,   &&L_SetArg,  &&L_GetRet,
            &&L_SetRet,  &&L_Ret,     &&L_Reti,    &&L_Enter,
            &&L_Leave,   &&L_Sei,     &&L_Cli,     &&L_GetIf,
            &&L_SetIf,   &&L_In,      &&L_Out,     &&L_Sleep,
            &&L_Nop,     &&L_SSPush,  &&L_SSChk,   &&L_Halt,
            &&L_FCmpBrI, &&L_FMov2,   &&L_FLd2,    &&L_FSt2,
            &&L_FLea2,   &&L_FLeal2,  &&L_FSetArg2, &&L_FLdiArg,
            &&L_FSetCI,  &&L_FLdiMov, &&L_FLdiAlu, &&L_FAluMov,
            &&L_FMovJmp,
        };
        static_assert(kNumMOps == 61,
                      "dispatch table must cover every opcode");
        NEXT();

        OP(Ldi)
        {
            ACCT1();
            regs[in->rd] = static_cast<uint64_t>(frp->df->imm(*in)) &
                           widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(Mov)
        {
            ACCT1();
            regs[in->rd] = regs[in->ra] & widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        ALU(Add, regs[in->rb])
        ALU(Sub, regs[in->rb])
        ALU(Mul, regs[in->rb])
        ALU(DivU, regs[in->rb])
        ALU(DivS, regs[in->rb])
        ALU(RemU, regs[in->rb])
        ALU(RemS, regs[in->rb])
        ALU(And, regs[in->rb])
        ALU(Or, regs[in->rb])
        ALU(Xor, regs[in->rb])
        ALU(Shl, regs[in->rb])
        ALU(ShrU, regs[in->rb])
        ALU(ShrS, regs[in->rb])
        ALU(AddI, static_cast<uint64_t>(frp->df->imm(*in)))
        ALU(AndI, static_cast<uint64_t>(frp->df->imm(*in)))
        ALU(Neg, 0)
        ALU(Not, 0)
        ALU(BNot, 0)
        ALU(Sext, static_cast<uint64_t>(in->imm))
        OP(SetC)
        {
            ACCT1();
            regs[in->rd] = evalCond(in->cond, regs[in->ra],
                                    regs[in->rb], in->w)
                               ? 1
                               : 0;
            EXIT_CHEAP();
            NEXT();
        }
        OP(CmpBr)
        {
            ACCT1();
            if (evalCond(in->cond, regs[in->ra], regs[in->rb], in->w))
                ip = in->target();
            EXIT_CHEAP();
            NEXT();
        }
        OP(Jmp)
        {
            ACCT1();
            if (in->wedge()) {
                wedged_ = true;
                goto out;
            }
            ip = in->target();
            EXIT_CHEAP();
            NEXT();
        }
        OP(Ld)
        {
            ACCT1();
            regs[in->rd] =
                loadMem(static_cast<uint32_t>(
                            (regs[in->ra] +
                             static_cast<uint64_t>(frp->df->imm(*in))) &
                            0xFFFF),
                        in->w) &
                widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(St)
        {
            ACCT1();
            storeMem(static_cast<uint32_t>(
                         (regs[in->ra] +
                          static_cast<uint64_t>(frp->df->imm(*in))) &
                         0xFFFF),
                     regs[in->rb], in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(Lea)
        {
            ACCT1();
            // Resolved to an absolute address at decode time.
            regs[in->rd] =
                static_cast<uint64_t>(static_cast<uint32_t>(in->imm)) &
                widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(Leal)
        {
            ACCT1();
            regs[in->rd] =
                ((frp->fp + in->imm) & 0xFFFF) & widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(Call)
        {
            ACCT1();
            const int32_t callIdx = in->callIdx();
            if (callIdx < 0) {
                halted_ = true;
                goto out;
            }
            if (in->callsFail()) {
                SYNC();  // recordTrap stamps the architectural cycle
                recordTrap(argBuf_.empty()
                               ? 0
                               : static_cast<uint32_t>(argBuf_[0]),
                           frp->funcIdx);
                if (recovery_ == RecoveryPolicy::RebootOnTrap) {
                    // startReboot clears frames_: the cached
                    // frp/code/regs are dead — leave immediately
                    // (state was synced above).
                    startReboot();
                    goto out_dead;
                }
            }
            retBuf_.clear();
            frp->ip = ip;  // resume point for the matching Ret
            enterFunction(static_cast<uint32_t>(callIdx), false);
            refreshFrame();
            EXIT_FULL();
            NEXT();
        }
        OP(CallR)
        {
            ACCT1();
            uint64_t id = regs[in->ra];
            // Mirror the legacy core exactly: the function id is
            // truncated to 32 bits before resolution.
            int32_t idx = id == 0
                              ? -1
                              : decoded_->funcIndexForId(
                                    static_cast<uint32_t>(id - 1));
            if (idx < 0) {
                wedged_ = true;  // wild jump; model as a crash
                goto out;
            }
            retBuf_.clear();
            frp->ip = ip;  // resume point for the matching Ret
            enterFunction(static_cast<uint32_t>(idx), false);
            refreshFrame();
            EXIT_FULL();
            NEXT();
        }
        OP(SetArg)
        {
            ACCT1();
            size_t slot = static_cast<size_t>(in->imm);
            if (argBuf_.size() <= slot)
                argBuf_.resize(slot + 1, 0);
            argBuf_[slot] = regs[in->ra] & widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(GetRet)
        {
            ACCT1();
            size_t slot = static_cast<size_t>(in->imm);
            regs[in->rd] =
                (slot < retBuf_.size() ? retBuf_[slot] : 0) &
                widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(SetRet)
        {
            ACCT1();
            size_t slot = static_cast<size_t>(in->imm);
            if (retBuf_.size() <= slot)
                retBuf_.resize(slot + 1, 0);
            retBuf_[slot] = regs[in->ra] & widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(Ret)
        OP(Reti)
        {
            ACCT1();
            bool fromIrq = frp->fromIrq;
            // Implicit shadow pop — mirrors the legacy core.
            if (!fromIrq && !shadow_.empty())
                shadow_.pop_back();
            popFrame();
            if (in->op == MOp::Reti || fromIrq)
                iflag_ = true;
            if (frames_.empty()) {
                halted_ = true;
                // The frame is gone; persist only the counters.
                cycles_ = cyc;
                instrs_ = nexec;
                goto out_dead;
            }
            refreshFrame();
            EXIT_FULL();
            NEXT();
        }
        OP(Enter)
        {
            ACCT1();
            uint32_t size = static_cast<uint32_t>(in->imm);
            if (sp_ < size + 0x200) {
                halted_ = true;  // stack overflow
                goto out;
            }
            sp_ -= size;
            frp->fp = sp_;
            for (uint32_t i = 0; i < size; ++i)
                mem_[frp->fp + i] = 0;
            EXIT_CHEAP();
            NEXT();
        }
        OP(Leave)
        {
            ACCT1();
            sp_ += static_cast<uint32_t>(in->imm);
            EXIT_CHEAP();
            NEXT();
        }
        OP(Sei)
        {
            ACCT1();
            iflag_ = true;
            EXIT_FULL();
            NEXT();
        }
        OP(Cli)
        {
            ACCT1();
            iflag_ = false;
            EXIT_CHEAP();
            NEXT();
        }
        OP(GetIf)
        {
            ACCT1();
            regs[in->rd] = iflag_ ? 1 : 0;
            EXIT_CHEAP();
            NEXT();
        }
        OP(SetIf)
        {
            ACCT1();
            iflag_ = (regs[in->ra] & 1) != 0;
            EXIT_FULL();
            NEXT();
        }
        OP(In)
        {
            ACCT1();
            regs[in->rd] =
                dev_.ioRead(in->port(), cyc) & widthMask(in->w);
            reaim();
            EXIT_CHEAP();
            NEXT();
        }
        OP(Out)
        {
            ACCT1();
            dev_.ioWrite(in->port(),
                         static_cast<uint32_t>(regs[in->ra] &
                                               widthMask(in->w)),
                         cyc);
            reaim();
            EXIT_CHEAP();
            NEXT();
        }
        OP(Sleep)
        {
            ACCT1();
            sleeping_ = true;
            goto out;
        }
        OP(Nop)
        {
            ACCT1();
            EXIT_CHEAP();
            NEXT();
        }
        OP(SSPush)
        {
            ACCT1();
            shadow_.push_back(frp->funcIdx);
            EXIT_CHEAP();
            NEXT();
        }
        OP(SSChk)
        {
            ACCT1();
            // Shadow-stack return check — mirrors the legacy core
            // (target is a flat instruction offset here).
            if (!frp->fromIrq && frames_.size() >= 2 &&
                !shadow_.empty() &&
                shadow_.back() != frames_[frames_.size() - 2].funcIdx)
                ip = in->target();
            EXIT_CHEAP();
            NEXT();
        }
        OP(Halt)
        {
            // End-of-function sentinel: halts before accounting, as
            // the legacy core does when execution runs off the last
            // block.
            halted_ = true;
            goto out;
        }

        //--- superinstructions -----------------------------------
        // ip advances before each sub-op, so a mid-pair horizon stop
        // leaves ip on the pair's second original instruction.

        OP(FCmpBrI)
        {
            // Ldi rd, imm ; CmpBr ra <cond> rd -> target
            ACCT1();
            regs[in->rd] = static_cast<uint64_t>(frp->df->imm(*in)) &
                           widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            if (evalCond(in->cond, regs[in->ra], regs[in->rd],
                         in->w))
                ip = in->target();
            EXIT_CHEAP();
            NEXT();
        }
        OP(FMov2)
        {
            // Mov rd, ra ; Mov rb, aux
            ACCT1();
            regs[in->rd] = regs[in->ra] & widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            regs[in->rb] = regs[in->aux] & widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(FLd2)
        {
            // Ld rd, [ra+imm] ; Ld rb, [ra+aux] — the base register
            // is re-read between the halves, so a first load that
            // clobbers it behaves exactly as the unfused pair.
            ACCT1();
            regs[in->rd] =
                loadMem(static_cast<uint32_t>(
                            (regs[in->ra] +
                             static_cast<uint64_t>(frp->df->imm(*in))) &
                            0xFFFF),
                        in->w2) &
                widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            regs[in->rb] =
                loadMem(static_cast<uint32_t>(
                            (regs[in->ra] +
                             static_cast<uint64_t>(
                                 frp->df->imm2(*in))) &
                            0xFFFF),
                        in->w) &
                widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(FSt2)
        {
            // St [ra+imm], rb ; St [ra+aux], rd
            ACCT1();
            storeMem(static_cast<uint32_t>(
                         (regs[in->ra] +
                          static_cast<uint64_t>(frp->df->imm(*in))) &
                         0xFFFF),
                     regs[in->rb], in->w2);
            EXIT_CHEAP();
            ACCT2();
            storeMem(static_cast<uint32_t>(
                         (regs[in->ra] +
                          static_cast<uint64_t>(frp->df->imm2(*in))) &
                         0xFFFF),
                     regs[in->rd], in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(FLea2)
        {
            // Lea rd, <imm> ; Lea rb, <aux> (resolved addresses)
            ACCT1();
            regs[in->rd] =
                static_cast<uint64_t>(static_cast<uint32_t>(in->imm)) &
                widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            regs[in->rb] =
                static_cast<uint64_t>(in->aux) & widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(FLeal2)
        {
            // Leal rd, fp+imm ; Leal rb, fp+aux
            ACCT1();
            regs[in->rd] =
                ((frp->fp + in->imm) & 0xFFFF) & widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            regs[in->rb] =
                ((frp->fp + static_cast<int32_t>(in->aux)) & 0xFFFF) &
                widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(FSetArg2)
        {
            // SetArg imm, ra ; SetArg aux, rb
            ACCT1();
            {
                size_t slot = static_cast<size_t>(frp->df->imm(*in));
                if (argBuf_.size() <= slot)
                    argBuf_.resize(slot + 1, 0);
                argBuf_[slot] = regs[in->ra] & widthMask(in->w2);
            }
            EXIT_CHEAP();
            ACCT2();
            {
                size_t slot = static_cast<size_t>(in->aux);
                if (argBuf_.size() <= slot)
                    argBuf_.resize(slot + 1, 0);
                argBuf_[slot] = regs[in->rb] & widthMask(in->w);
            }
            EXIT_CHEAP();
            NEXT();
        }
        OP(FLdiArg)
        {
            // Ldi rd, imm ; SetArg aux, rd
            ACCT1();
            regs[in->rd] = static_cast<uint64_t>(frp->df->imm(*in)) &
                           widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            {
                size_t slot = static_cast<size_t>(in->aux);
                if (argBuf_.size() <= slot)
                    argBuf_.resize(slot + 1, 0);
                argBuf_[slot] = regs[in->rd] & widthMask(in->w);
            }
            EXIT_CHEAP();
            NEXT();
        }
        OP(FSetCI)
        {
            // Ldi rd, imm ; SetC rb = (ra <cond> rd)
            ACCT1();
            regs[in->rd] = static_cast<uint64_t>(frp->df->imm(*in)) &
                           widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            regs[in->rb] = evalCond(in->cond, regs[in->ra],
                                    regs[in->rd], in->w)
                               ? 1
                               : 0;
            EXIT_CHEAP();
            NEXT();
        }
        OP(FLdiMov)
        {
            // Ldi rd, imm ; Mov rb, rd
            ACCT1();
            regs[in->rd] = static_cast<uint64_t>(frp->df->imm(*in)) &
                           widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            regs[in->rb] = regs[in->rd] & widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(FLdiAlu)
        {
            // Ldi rd, imm ; <aux-op> rb = ra OP rd
            ACCT1();
            regs[in->rd] = static_cast<uint64_t>(frp->df->imm(*in)) &
                           widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            regs[in->rb] = aluEval(static_cast<MOp>(in->aux),
                                   regs[in->ra], regs[in->rd], in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(FAluMov)
        {
            // <op in aux&0xFF> rd = ra OP rb ; Mov (aux>>8), rd
            ACCT1();
            regs[in->rd] = aluEval(static_cast<MOp>(in->aux & 0xFF),
                                   regs[in->ra], regs[in->rb],
                                   in->w2);
            EXIT_CHEAP();
            ACCT2();
            regs[in->aux >> 8] = regs[in->rd] & widthMask(in->w);
            EXIT_CHEAP();
            NEXT();
        }
        OP(FMovJmp)
        {
            // Mov rd, ra ; Jmp target (the fusion pass never admits
            // a wedge-marked Jmp)
            ACCT1();
            regs[in->rd] = regs[in->ra] & widthMask(in->w2);
            EXIT_CHEAP();
            ACCT2();
            ip = in->target();
            EXIT_CHEAP();
            NEXT();
        }

    out:
        SYNC();
    out_dead:;
#undef OP
#undef NEXT
#undef ALU
#undef ACCT1
#undef ACCT2
#undef SYNC
#undef EXIT_CHEAP
#undef EXIT_FULL
    }
}

} // namespace stos::sim
