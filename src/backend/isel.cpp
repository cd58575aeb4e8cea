/**
 * @file
 * Instruction selection and linking. Lowers TinyCIL to the machine
 * representation: fat pointers become register tuples (cur[,base]
 * [,end]), dynamic checks become compare-and-branch sequences feeding
 * per-site failure stubs, and atomic sections become IRQ-flag
 * manipulation. The link step garbage-collects unreferenced functions
 * and data (this is what kills dead check-tag strings in the Figure 2
 * methodology) and lays out RAM/ROM.
 */
#include "backend/backend.h"

#include <algorithm>
#include <map>
#include <optional>

#include "cfi/cfi.h"
#include "ir/defs.h"
#include "ir/semantics.h"
#include "opt/passes.h"
#include "safety/runtime.h"
#include "support/util.h"

namespace stos::backend {

using namespace stos::ir;

MOp
aluOpOf(BinOp op)
{
    switch (op) {
      case BinOp::Add: return MOp::Add;
      case BinOp::Sub: return MOp::Sub;
      case BinOp::Mul: return MOp::Mul;
      case BinOp::DivU: return MOp::DivU;
      case BinOp::DivS: return MOp::DivS;
      case BinOp::RemU: return MOp::RemU;
      case BinOp::RemS: return MOp::RemS;
      case BinOp::And: return MOp::And;
      case BinOp::Or: return MOp::Or;
      case BinOp::Xor: return MOp::Xor;
      case BinOp::Shl: return MOp::Shl;
      case BinOp::ShrU: return MOp::ShrU;
      case BinOp::ShrS: return MOp::ShrS;
      default: return MOp::Nop;
    }
}

MOp
aluOpOf(UnOp op)
{
    switch (op) {
      case UnOp::Neg: return MOp::Neg;
      case UnOp::Not: return MOp::Not;
      case UnOp::BNot: return MOp::BNot;
    }
    return MOp::Nop;
}

MCond
condOf(BinOp op)
{
    switch (op) {
      case BinOp::Eq: return MCond::Eq;
      case BinOp::Ne: return MCond::Ne;
      case BinOp::LtU: return MCond::LtU;
      case BinOp::LtS: return MCond::LtS;
      case BinOp::LeU: return MCond::LeU;
      case BinOp::LeS: return MCond::LeS;
      case BinOp::GtU: return MCond::GtU;
      case BinOp::GtS: return MCond::GtS;
      case BinOp::GeU: return MCond::GeU;
      default: return MCond::GeS;
    }
}

namespace {

/** Fat-pointer component layout within a register tuple. */
struct PtrLayout {
    uint32_t words = 1;
    int curIdx = 0;
    int baseIdx = -1;  ///< -1: not present
    int endIdx = -1;
};

PtrLayout
layoutOf(PtrKind k)
{
    switch (k) {
      case PtrKind::Unchecked:
      case PtrKind::Safe:
        return {1, 0, -1, -1};
      case PtrKind::FSeq:
      case PtrKind::Wild:
        return {2, 0, -1, 1};
      case PtrKind::Seq:
        return {3, 0, 1, 2};
    }
    return {1, 0, -1, -1};
}

class Selector {
  public:
    Selector(const Module &m, MProgram &prog, bool cfi)
        : mod_(m), prog_(prog), cfi_(cfi) {}

    MFunc
    select(const Function &f)
    {
        cur_ = MFunc{};
        cur_.id = f.id;
        cur_.name = f.name;
        cur_.interruptVector = f.attrs.interruptVector;
        cur_.isTask = f.attrs.isTask;
        func_ = &f;
        defs_ = Defs(f);
        nextReg_ = 0;
        irqSave_ = ~0u;
        regBase_.assign(f.vregs.size(), ~0u);
        failBlocks_.clear();

        // Frame layout for memory locals.
        localOff_.assign(f.locals.size(), 0);
        uint32_t off = 0;
        for (uint32_t l = 0; l < f.locals.size(); ++l) {
            off = alignUp(off, mod_.typeAlign(f.locals[l].type));
            localOff_[l] = off;
            off += std::max(1u, mod_.typeSize(f.locals[l].type));
        }
        cur_.frameBytes = alignUp(off, 2);

        // Pre-allocate parameter tuples in argument-slot order.
        for (uint32_t p : f.params)
            (void)regsOf(p);

        // Machine blocks mirror IR blocks one-to-one; fail stubs are
        // appended afterwards.
        cur_.blocks.resize(f.blocks.size());
        for (const auto &bb : f.blocks) {
            out_ = &cur_.blocks[bb.id];
            if (bb.id == 0) {
                MInstr enter;
                enter.op = MOp::Enter;
                enter.imm = cur_.frameBytes;
                out_->instrs.push_back(enter);
            }
            for (const auto &in : bb.instrs)
                lower(in);
        }
        // Append fail stubs.
        for (auto &fb : failBlocks_)
            cur_.blocks.push_back(std::move(fb));
        cur_.numRegs = nextReg_;
        return std::move(cur_);
    }

  private:
    //--- register tuples ------------------------------------------

    uint32_t
    regsOf(uint32_t vreg)
    {
        if (regBase_[vreg] != ~0u)
            return regBase_[vreg];
        const Type &ty = mod_.types().get(func_->vregs[vreg].type);
        uint32_t words = 1;
        if (ty.kind == TypeKind::Ptr)
            words = layoutOf(ty.ptrKind).words;
        regBase_[vreg] = nextReg_;
        nextReg_ += words;
        return regBase_[vreg];
    }

    uint32_t
    tempReg()
    {
        return nextReg_++;
    }

    uint8_t
    widthOfType(TypeId t) const
    {
        return sem::widthOf(mod_.types(), t).bits;
    }

    PtrLayout
    ptrLayoutOfType(TypeId t) const
    {
        const Type &ty = mod_.types().get(t);
        if (ty.kind == TypeKind::Ptr)
            return layoutOf(ty.ptrKind);
        return {1, 0, -1, -1};
    }

    void
    emit(MInstr in)
    {
        out_->instrs.push_back(in);
    }

    void
    emitLdi(uint32_t rd, int64_t imm, uint8_t w)
    {
        MInstr in;
        in.op = MOp::Ldi;
        in.rd = rd;
        in.imm = imm;
        in.w = w;
        emit(in);
    }

    void
    emitMov(uint32_t rd, uint32_t ra, uint8_t w)
    {
        MInstr in;
        in.op = MOp::Mov;
        in.rd = rd;
        in.ra = ra;
        in.w = w;
        emit(in);
    }

    /** Materialize an operand's primary word into a register. */
    uint32_t
    valueReg(const Operand &op, uint8_t w)
    {
        switch (op.kind) {
          case OperandKind::VReg:
            return regsOf(op.index);
          case OperandKind::ImmInt: {
            uint32_t r = tempReg();
            emitLdi(r, op.imm, w);
            return r;
          }
          case OperandKind::Func: {
            uint32_t r = tempReg();
            emitLdi(r, static_cast<int64_t>(op.index) + 1, 16);
            return r;
          }
          case OperandKind::Global: {
            uint32_t r = tempReg();
            MInstr lea;
            lea.op = MOp::Lea;
            lea.rd = r;
            lea.gid = op.index;
            lea.w = 16;
            emit(lea);
            return r;
          }
          case OperandKind::None:
            break;
        }
        return tempReg();
    }

    /**
     * Copy the fat components of a pointer-typed operand into the
     * destination tuple, translating between layouts.
     */
    void
    copyPtr(uint32_t dstBase, const PtrLayout &dl, const Operand &src,
            TypeId srcType)
    {
        if (src.isVReg()) {
            PtrLayout sl = ptrLayoutOfType(srcType);
            uint32_t sb = regsOf(src.index);
            emitMov(dstBase + dl.curIdx, sb + sl.curIdx, 16);
            if (dl.endIdx >= 0) {
                if (sl.endIdx >= 0)
                    emitMov(dstBase + dl.endIdx, sb + sl.endIdx, 16);
                else
                    emitLdi(dstBase + dl.endIdx, 0xFFFF, 16);
            }
            if (dl.baseIdx >= 0) {
                if (sl.baseIdx >= 0)
                    emitMov(dstBase + dl.baseIdx, sb + sl.baseIdx, 16);
                else
                    emitLdi(dstBase + dl.baseIdx, 0, 16);
            }
            return;
        }
        // Immediate (null or int-constant pointer).
        int64_t v = src.isImm() ? src.imm : 0;
        emitLdi(dstBase + dl.curIdx, v, 16);
        if (dl.endIdx >= 0)
            emitLdi(dstBase + dl.endIdx, v == 0 ? 0 : 0xFFFF, 16);
        if (dl.baseIdx >= 0)
            emitLdi(dstBase + dl.baseIdx, 0, 16);
    }

    //--- fail stubs --------------------------------------------------

    /** Lazily create the per-site failure stub; returns block index. */
    uint32_t
    failStubFor(const Instr &chk)
    {
        uint32_t idx = static_cast<uint32_t>(func_->blocks.size() +
                                             failBlocks_.size());
        MBlock stub;
        auto emitTo = [&](MInstr in) { stub.instrs.push_back(in); };
        const Function *failMsg = mod_.findFunc(safety::kFailMsgFn);
        const Function *fail = mod_.findFunc(safety::kFailFn);
        // Keep the shadow stack balanced: under CFI every executed
        // Call is preceded by a push, fail-stub calls included.
        auto pushShadow = [&] {
            if (cfi_) {
                MInstr ss;
                ss.op = MOp::SSPush;
                emitTo(ss);
            }
        };
        if (chk.auxB != 0 && failMsg) {
            // Pass the string's fat pointer per the handler's
            // inferred parameter kind.
            const Global &g = mod_.globalAt(chk.auxB - 1);
            TypeId pt = failMsg->vregs[failMsg->params[0]].type;
            PtrLayout pl = ptrLayoutOfType(pt);
            uint32_t r = nextReg_;
            nextReg_ += 3;
            MInstr lea;
            lea.op = MOp::Lea;
            lea.rd = r + pl.curIdx;
            lea.gid = g.id;
            lea.w = 16;
            emitTo(lea);
            if (pl.baseIdx >= 0) {
                MInstr lb = lea;
                lb.rd = r + pl.baseIdx;
                emitTo(lb);
            }
            if (pl.endIdx >= 0) {
                MInstr le = lea;
                le.rd = r + pl.endIdx;
                le.imm = mod_.typeSize(g.type);
                emitTo(le);
            }
            for (uint32_t wslot = 0; wslot < pl.words; ++wslot) {
                MInstr sa;
                sa.op = MOp::SetArg;
                sa.imm = wslot;
                sa.ra = r + wslot;
                sa.w = 16;
                emitTo(sa);
            }
            pushShadow();
            MInstr call;
            call.op = MOp::Call;
            call.fn = failMsg->id;
            emitTo(call);
        } else if (fail) {
            uint32_t r = nextReg_++;
            MInstr ldi;
            ldi.op = MOp::Ldi;
            ldi.rd = r;
            ldi.imm = chk.flid;
            ldi.w = 16;
            emitTo(ldi);
            MInstr sa;
            sa.op = MOp::SetArg;
            sa.imm = 0;
            sa.ra = r;
            sa.w = 16;
            emitTo(sa);
            pushShadow();
            MInstr call;
            call.op = MOp::Call;
            call.fn = fail->id;
            emitTo(call);
        }
        MInstr self;
        self.op = MOp::Jmp;
        self.target = idx;
        emitTo(self);
        failBlocks_.push_back(std::move(stub));
        return idx;
    }

    void
    emitCheckBranch(uint32_t ra, MCond c, uint32_t rb, uint32_t flid,
                    uint32_t target)
    {
        MInstr br;
        br.op = MOp::CmpBr;
        br.cond = c;
        br.ra = ra;
        br.rb = rb;
        br.target = target;
        br.w = 16;
        br.isCheck = true;
        br.flid = flid;
        emit(br);
    }

    //--- main lowering ----------------------------------------------

    void
    lower(const Instr &in)
    {
        const TypeTable &tt = mod_.types();
        switch (in.op) {
          case Opcode::ConstI: {
            const Type &ty = tt.get(in.type);
            if (ty.kind == TypeKind::Ptr) {
                PtrLayout pl = layoutOf(ty.ptrKind);
                copyPtr(regsOf(in.dst), pl, in.args[0], in.type);
            } else {
                emitLdi(regsOf(in.dst), in.args[0].imm,
                        widthOfType(in.type));
            }
            break;
          }
          case Opcode::Mov: {
            const Type &ty = tt.get(in.type);
            if (ty.kind == TypeKind::Ptr) {
                TypeId st = sem::operandType(*func_, in);
                copyPtr(regsOf(in.dst), layoutOf(ty.ptrKind), in.args[0],
                        st);
            } else {
                uint8_t w = widthOfType(in.type);
                uint32_t ra = valueReg(in.args[0], w);
                emitMov(regsOf(in.dst), ra, w);
            }
            break;
          }
          case Opcode::Bin: {
            uint8_t w = widthOfType(sem::operandType(*func_, in));
            uint32_t ra = valueReg(in.args[0], w);
            uint32_t rb = valueReg(in.args[1], w);
            uint32_t rd = regsOf(in.dst);
            if (binOpIsComparison(in.bop)) {
                MInstr sc;
                sc.op = MOp::SetC;
                sc.cond = condOf(in.bop);
                sc.rd = rd;
                sc.ra = ra;
                sc.rb = rb;
                sc.w = w;
                emit(sc);
                break;
            }
            MInstr op;
            op.rd = rd;
            op.ra = ra;
            op.rb = rb;
            op.w = widthOfType(in.type);
            op.op = aluOpOf(in.bop);
            emit(op);
            break;
          }
          case Opcode::Un: {
            uint8_t w = widthOfType(in.type);
            uint32_t ra = valueReg(in.args[0], w);
            MInstr op;
            op.rd = regsOf(in.dst);
            op.ra = ra;
            op.w = w;
            op.op = aluOpOf(in.uop);
            emit(op);
            break;
          }
          case Opcode::Cast: {
            const Type &to = tt.get(in.type);
            if (to.kind == TypeKind::Ptr) {
                TypeId st = sem::operandType(*func_, in);
                const Type &sty = tt.get(st);
                if (sty.kind == TypeKind::Ptr) {
                    copyPtr(regsOf(in.dst), layoutOf(to.ptrKind),
                            in.args[0], st);
                } else {
                    // int -> pointer
                    PtrLayout pl = layoutOf(to.ptrKind);
                    uint32_t rd = regsOf(in.dst);
                    uint32_t ra = valueReg(in.args[0], 16);
                    emitMov(rd + pl.curIdx, ra, 16);
                    if (pl.endIdx >= 0)
                        emitLdi(rd + pl.endIdx, 0xFFFF, 16);
                    if (pl.baseIdx >= 0)
                        emitLdi(rd + pl.baseIdx, 0, 16);
                }
                break;
            }
            uint8_t w = widthOfType(in.type);
            sem::Width sw =
                sem::widthOf(tt, sem::operandType(*func_, in));
            uint32_t ra = valueReg(in.args[0], sw.bits);
            uint32_t rd = regsOf(in.dst);
            if (sw.isSigned && sw.bits < w) {
                MInstr sx;
                sx.op = MOp::Sext;
                sx.rd = rd;
                sx.ra = ra;
                sx.imm = sw.bits;
                sx.w = w;
                emit(sx);
            } else {
                emitMov(rd, ra, w);
            }
            break;
          }
          case Opcode::AddrGlobal: {
            const Type &ty = tt.get(in.type);
            PtrLayout pl = layoutOf(ty.ptrKind);
            uint32_t rd = regsOf(in.dst);
            const Global &g = mod_.globalAt(in.args[0].index);
            MInstr lea;
            lea.op = MOp::Lea;
            lea.rd = rd + pl.curIdx;
            lea.gid = g.id;
            lea.w = 16;
            emit(lea);
            if (pl.baseIdx >= 0) {
                MInstr lb = lea;
                lb.rd = rd + pl.baseIdx;
                emit(lb);
            }
            if (pl.endIdx >= 0) {
                MInstr le = lea;
                le.rd = rd + pl.endIdx;
                le.imm = mod_.typeSize(g.type);
                emit(le);
            }
            break;
          }
          case Opcode::AddrLocal: {
            const Type &ty = tt.get(in.type);
            PtrLayout pl = layoutOf(ty.ptrKind);
            uint32_t rd = regsOf(in.dst);
            uint32_t off = localOff_[in.auxA];
            uint32_t size =
                std::max(1u, mod_.typeSize(func_->locals[in.auxA].type));
            MInstr lea;
            lea.op = MOp::Leal;
            lea.rd = rd + pl.curIdx;
            lea.imm = off;
            lea.w = 16;
            emit(lea);
            if (pl.baseIdx >= 0) {
                MInstr lb = lea;
                lb.rd = rd + pl.baseIdx;
                emit(lb);
            }
            if (pl.endIdx >= 0) {
                MInstr le = lea;
                le.rd = rd + pl.endIdx;
                le.imm = off + size;
                emit(le);
            }
            break;
          }
          case Opcode::Gep: {
            const Type &ty = tt.get(in.type);
            PtrLayout dl = layoutOf(ty.ptrKind);
            uint32_t rd = regsOf(in.dst);
            TypeId st = func_->vregs[in.args[0].index].type;
            copyPtr(rd, dl, in.args[0], st);
            if (in.auxB != 0) {
                MInstr add;
                add.op = MOp::AddI;
                add.rd = rd + dl.curIdx;
                add.ra = rd + dl.curIdx;
                add.imm = in.auxB;
                add.w = 16;
                emit(add);
            }
            break;
          }
          case Opcode::PtrAdd: {
            const Type &ty = tt.get(in.type);
            PtrLayout dl = layoutOf(ty.ptrKind);
            uint32_t rd = regsOf(in.dst);
            TypeId st = in.args[0].isVReg()
                            ? func_->vregs[in.args[0].index].type
                            : in.type;
            copyPtr(rd, dl, in.args[0], st);
            if (in.args[1].isImm()) {
                int64_t delta = in.args[1].imm *
                                static_cast<int64_t>(in.auxA);
                if (delta != 0) {
                    MInstr add;
                    add.op = MOp::AddI;
                    add.rd = rd + dl.curIdx;
                    add.ra = rd + dl.curIdx;
                    add.imm = delta;
                    add.w = 16;
                    emit(add);
                }
            } else {
                uint32_t idx = valueReg(in.args[1], 16);
                uint32_t scaled = idx;
                if (in.auxA != 1) {
                    scaled = tempReg();
                    uint32_t esz = tempReg();
                    emitLdi(esz, in.auxA, 16);
                    MInstr mul;
                    mul.op = MOp::Mul;
                    mul.rd = scaled;
                    mul.ra = idx;
                    mul.rb = esz;
                    mul.w = 16;
                    emit(mul);
                }
                MInstr add;
                add.op = MOp::Add;
                add.rd = rd + dl.curIdx;
                add.ra = rd + dl.curIdx;
                add.rb = scaled;
                add.w = 16;
                emit(add);
            }
            break;
          }
          case Opcode::Load: {
            const Type &ty = tt.get(in.type);
            uint32_t addr =
                regsOf(in.args[0].index) +
                ptrLayoutOfType(func_->vregs[in.args[0].index].type)
                    .curIdx;
            bool rom = loadsRom(in.args[0].index);
            uint32_t rd = regsOf(in.dst);
            if (ty.kind == TypeKind::Ptr) {
                PtrLayout pl = layoutOf(ty.ptrKind);
                for (uint32_t wd = 0; wd < pl.words; ++wd) {
                    MInstr ld;
                    ld.op = MOp::Ld;
                    ld.rd = rd + wd;
                    ld.ra = addr;
                    ld.imm = wd * 2;
                    ld.w = 16;
                    ld.romData = rom;
                    emit(ld);
                }
            } else {
                MInstr ld;
                ld.op = MOp::Ld;
                ld.rd = rd;
                ld.ra = addr;
                ld.w = widthOfType(in.type);
                ld.romData = rom;
                emit(ld);
            }
            break;
          }
          case Opcode::Store: {
            const Type &ty = tt.get(in.type);
            uint32_t addr =
                regsOf(in.args[0].index) +
                ptrLayoutOfType(func_->vregs[in.args[0].index].type)
                    .curIdx;
            if (ty.kind == TypeKind::Ptr) {
                PtrLayout pl = layoutOf(ty.ptrKind);
                // Materialize the source tuple (handles null imms).
                uint32_t src = nextReg_;
                nextReg_ += pl.words;
                TypeId st = in.args[1].isVReg()
                                ? func_->vregs[in.args[1].index].type
                                : in.type;
                copyPtr(src, pl, in.args[1], st);
                for (uint32_t wd = 0; wd < pl.words; ++wd) {
                    MInstr stI;
                    stI.op = MOp::St;
                    stI.ra = addr;
                    stI.rb = src + wd;
                    stI.imm = wd * 2;
                    stI.w = 16;
                    emit(stI);
                }
            } else {
                uint8_t w = widthOfType(in.type);
                uint32_t rb = valueReg(in.args[1], w);
                MInstr stI;
                stI.op = MOp::St;
                stI.ra = addr;
                stI.rb = rb;
                stI.w = w;
                emit(stI);
            }
            break;
          }
          case Opcode::Call: {
            const Function &callee = mod_.funcAt(in.callee);
            uint32_t slot = 0;
            for (size_t i = 0; i < in.args.size(); ++i) {
                TypeId pt = callee.vregs[callee.params[i]].type;
                const Type &pty = tt.get(pt);
                if (pty.kind == TypeKind::Ptr) {
                    PtrLayout pl = layoutOf(pty.ptrKind);
                    uint32_t src = nextReg_;
                    nextReg_ += pl.words;
                    TypeId st =
                        in.args[i].isVReg()
                            ? func_->vregs[in.args[i].index].type
                            : pt;
                    copyPtr(src, pl, in.args[i], st);
                    for (uint32_t wd = 0; wd < pl.words; ++wd) {
                        MInstr sa;
                        sa.op = MOp::SetArg;
                        sa.imm = slot++;
                        sa.ra = src + wd;
                        sa.w = 16;
                        emit(sa);
                    }
                } else {
                    uint8_t w = widthOfType(pt);
                    uint32_t ra = valueReg(in.args[i], w);
                    MInstr sa;
                    sa.op = MOp::SetArg;
                    sa.imm = slot++;
                    sa.ra = ra;
                    sa.w = w;
                    emit(sa);
                }
            }
            emitShadowPush();
            MInstr call;
            call.op = MOp::Call;
            call.fn = in.callee;
            emit(call);
            if (in.hasDst()) {
                const Type &rt = tt.get(in.type);
                if (rt.kind == TypeKind::Ptr) {
                    PtrLayout pl = layoutOf(rt.ptrKind);
                    uint32_t rd = regsOf(in.dst);
                    for (uint32_t wd = 0; wd < pl.words; ++wd) {
                        MInstr gr;
                        gr.op = MOp::GetRet;
                        gr.rd = rd + wd;
                        gr.imm = wd;
                        gr.w = 16;
                        emit(gr);
                    }
                } else {
                    MInstr gr;
                    gr.op = MOp::GetRet;
                    gr.rd = regsOf(in.dst);
                    gr.w = widthOfType(in.type);
                    emit(gr);
                }
            }
            break;
          }
          case Opcode::CallInd: {
            uint32_t ra = valueReg(in.args[0], 16);
            emitShadowPush();
            MInstr call;
            call.op = MOp::CallR;
            call.ra = ra;
            emit(call);
            break;
          }
          case Opcode::Ret: {
            if (cfi_ && in.flid != 0) {
                // Shadow-stack return check: compare the shadow top
                // against the caller frame before unwinding.
                MInstr chk;
                chk.op = MOp::SSChk;
                chk.target = failStubFor(in);
                chk.isCheck = true;
                chk.flid = in.flid;
                emit(chk);
            }
            if (!in.args.empty()) {
                const Type &rt = tt.get(func_->retType);
                if (rt.kind == TypeKind::Ptr) {
                    PtrLayout pl = layoutOf(rt.ptrKind);
                    uint32_t src = nextReg_;
                    nextReg_ += pl.words;
                    TypeId st =
                        in.args[0].isVReg()
                            ? func_->vregs[in.args[0].index].type
                            : func_->retType;
                    copyPtr(src, pl, in.args[0], st);
                    for (uint32_t wd = 0; wd < pl.words; ++wd) {
                        MInstr sr;
                        sr.op = MOp::SetRet;
                        sr.ra = src + wd;
                        sr.imm = wd;
                        sr.w = 16;
                        emit(sr);
                    }
                } else {
                    uint8_t w = widthOfType(func_->retType);
                    uint32_t ra = valueReg(in.args[0], w);
                    MInstr sr;
                    sr.op = MOp::SetRet;
                    sr.ra = ra;
                    sr.w = w;
                    emit(sr);
                }
            }
            MInstr leave;
            leave.op = MOp::Leave;
            leave.imm = cur_.frameBytes;
            emit(leave);
            MInstr ret;
            ret.op = func_->attrs.interruptVector >= 0 ? MOp::Reti
                                                       : MOp::Ret;
            emit(ret);
            break;
          }
          case Opcode::Br: {
            MInstr j;
            j.op = MOp::Jmp;
            j.target = in.b0;
            emit(j);
            break;
          }
          case Opcode::CondBr: {
            uint32_t ra = valueReg(in.args[0], 8);
            uint32_t zero = tempReg();
            emitLdi(zero, 0, 8);
            MInstr br;
            br.op = MOp::CmpBr;
            br.cond = MCond::Ne;
            br.ra = ra;
            br.rb = zero;
            br.w = 8;
            br.target = in.b0;
            emit(br);
            MInstr j;
            j.op = MOp::Jmp;
            j.target = in.b1;
            emit(j);
            break;
          }
          case Opcode::ChkNull: {
            uint32_t fb = failStubFor(in);
            uint32_t base = regsOf(in.args[0].index);
            PtrLayout pl = ptrLayoutOfType(
                func_->vregs[in.args[0].index].type);
            uint32_t zero = tempReg();
            emitLdi(zero, 0, 16);
            emitCheckBranch(base + pl.curIdx, MCond::Eq, zero, in.flid,
                            fb);
            break;
          }
          case Opcode::ChkUBound:
          case Opcode::ChkWild: {
            uint32_t fb = failStubFor(in);
            uint32_t base = regsOf(in.args[0].index);
            PtrLayout pl = ptrLayoutOfType(
                func_->vregs[in.args[0].index].type);
            uint32_t zero = tempReg();
            emitLdi(zero, 0, 16);
            emitCheckBranch(base + pl.curIdx, MCond::Eq, zero, in.flid,
                            fb);
            uint32_t tmp = tempReg();
            MInstr add;
            add.op = MOp::AddI;
            add.rd = tmp;
            add.ra = base + pl.curIdx;
            add.imm = in.auxA;
            add.w = 16;
            emit(add);
            if (pl.endIdx >= 0) {
                emitCheckBranch(tmp, MCond::GtU, base + pl.endIdx,
                                in.flid, fb);
            }
            break;
          }
          case Opcode::ChkBounds: {
            uint32_t fb = failStubFor(in);
            uint32_t base = regsOf(in.args[0].index);
            PtrLayout pl = ptrLayoutOfType(
                func_->vregs[in.args[0].index].type);
            uint32_t zero = tempReg();
            emitLdi(zero, 0, 16);
            emitCheckBranch(base + pl.curIdx, MCond::Eq, zero, in.flid,
                            fb);
            if (pl.baseIdx >= 0) {
                emitCheckBranch(base + pl.curIdx, MCond::LtU,
                                base + pl.baseIdx, in.flid, fb);
            }
            uint32_t tmp = tempReg();
            MInstr add;
            add.op = MOp::AddI;
            add.rd = tmp;
            add.ra = base + pl.curIdx;
            add.imm = in.auxA;
            add.w = 16;
            emit(add);
            if (pl.endIdx >= 0) {
                emitCheckBranch(tmp, MCond::GtU, base + pl.endIdx,
                                in.flid, fb);
            }
            break;
          }
          case Opcode::ChkFnPtr: {
            uint32_t fb = failStubFor(in);
            uint32_t ra = valueReg(in.args[0], 16);
            uint32_t zero = tempReg();
            emitLdi(zero, 0, 16);
            emitCheckBranch(ra, MCond::Eq, zero, in.flid, fb);
            uint32_t lim = tempReg();
            emitLdi(lim, static_cast<int64_t>(mod_.funcs().size()), 16);
            emitCheckBranch(ra, MCond::GtU, lim, in.flid, fb);
            break;
          }
          case Opcode::ChkCfiLabel: {
            uint32_t fb = failStubFor(in);
            uint32_t ra = valueReg(in.args[0], 16);
            uint32_t zero = tempReg();
            emitLdi(zero, 0, 16);
            emitCheckBranch(ra, MCond::Eq, zero, in.flid, fb);
            uint32_t lim = tempReg();
            emitLdi(lim, static_cast<int64_t>(mod_.funcs().size()), 16);
            emitCheckBranch(ra, MCond::GtU, lim, in.flid, fb);
            // label = table[id]: byte load from the ROM label table.
            uint32_t tbl = tempReg();
            MInstr lea;
            lea.op = MOp::Lea;
            lea.rd = tbl;
            lea.gid = in.args[1].index;
            lea.w = 16;
            emit(lea);
            uint32_t addr = tempReg();
            MInstr add;
            add.op = MOp::Add;
            add.rd = addr;
            add.ra = tbl;
            add.rb = ra;
            add.w = 16;
            emit(add);
            uint32_t lab = tempReg();
            MInstr ld;
            ld.op = MOp::Ld;
            ld.rd = lab;
            ld.ra = addr;
            ld.w = 8;
            ld.romData = true;
            emit(ld);
            uint32_t exp = tempReg();
            emitLdi(exp, in.auxA, 16);
            emitCheckBranch(lab, MCond::Ne, exp, in.flid, fb);
            break;
          }
          case Opcode::ChkAlign: {
            uint32_t fb = failStubFor(in);
            uint32_t base = regsOf(in.args[0].index);
            PtrLayout pl = ptrLayoutOfType(
                func_->vregs[in.args[0].index].type);
            uint32_t tmp = tempReg();
            MInstr andi;
            andi.op = MOp::AndI;
            andi.rd = tmp;
            andi.ra = base + pl.curIdx;
            andi.imm = in.auxA > 0 ? in.auxA - 1 : 0;
            andi.w = 16;
            emit(andi);
            uint32_t zero = tempReg();
            emitLdi(zero, 0, 16);
            emitCheckBranch(tmp, MCond::Ne, zero, in.flid, fb);
            break;
          }
          case Opcode::Abort: {
            uint32_t fb = failStubFor(in);
            MInstr j;
            j.op = MOp::Jmp;
            j.target = fb;
            emit(j);
            break;
          }
          case Opcode::AtomicBegin: {
            if (in.auxA) {
                MInstr gi;
                gi.op = MOp::GetIf;
                gi.rd = irqSaveReg();
                emit(gi);
            }
            MInstr cli;
            cli.op = MOp::Cli;
            emit(cli);
            break;
          }
          case Opcode::AtomicEnd: {
            if (in.auxA) {
                MInstr si;
                si.op = MOp::SetIf;
                si.ra = irqSaveReg();
                emit(si);
            } else {
                MInstr sei;
                sei.op = MOp::Sei;
                emit(sei);
            }
            break;
          }
          case Opcode::HwRead: {
            MInstr io;
            io.op = MOp::In;
            io.rd = regsOf(in.dst);
            io.port = in.auxA;
            io.w = widthOfType(in.type);
            emit(io);
            break;
          }
          case Opcode::HwWrite: {
            uint8_t w = widthOfType(in.type);
            uint32_t ra = valueReg(in.args[0], w);
            MInstr io;
            io.op = MOp::Out;
            io.ra = ra;
            io.port = in.auxA;
            io.w = w;
            emit(io);
            break;
          }
          case Opcode::Sleep: {
            MInstr s;
            s.op = MOp::Sleep;
            emit(s);
            break;
          }
          case Opcode::Nop:
            break;
        }
    }

    uint32_t
    irqSaveReg()
    {
        if (irqSave_ == ~0u)
            irqSave_ = tempReg();
        return irqSave_;
    }

    /** Under CFI, every call site pushes onto the shadow stack. */
    void
    emitShadowPush()
    {
        if (!cfi_)
            return;
        MInstr ss;
        ss.op = MOp::SSPush;
        emit(ss);
    }

    /** Is this address chain rooted at a ROM global? */
    bool
    loadsRom(uint32_t vreg) const
    {
        const Def *d = defs_.chase(vreg, {Opcode::Gep, Opcode::PtrAdd,
                                          Opcode::Mov, Opcode::Cast});
        return d && d->op == Opcode::AddrGlobal &&
               mod_.globalAt(d->a.index).section == Section::Rom;
    }

    const Module &mod_;
    MProgram &prog_;
    const Function *func_ = nullptr;
    Defs defs_;  ///< of *func_
    MFunc cur_;
    MBlock *out_ = nullptr;
    std::vector<uint32_t> regBase_;
    std::vector<uint32_t> localOff_;
    std::vector<MBlock> failBlocks_;
    uint32_t nextReg_ = 0;
    uint32_t irqSave_ = ~0u;
    bool cfi_ = false;
};

} // namespace

MProgram
compileToTarget(Module &m, const TargetInfo &target,
                const BackendOptions &opts)
{
    runGccStyleOpts(m, opts.gcc);
    // Linker GC: functions unreachable from the entry points go away
    // even without cXprop (GCC/ld can do this much).
    opt::removeDeadFunctions(m);

    MProgram prog;
    prog.target = target;

    // FLID -> trap-kind table, and whether the module carries CFI
    // instrumentation (the CFI pass stamps every return site, so a
    // cfi-ret entry is present iff CFI ran — even with no indirect
    // calls). The flid table is never pruned, so this survives DCE.
    bool hasCfi = false;
    prog.flidKinds.assign(m.flidTable().size() + 1, kTrapKindMemory);
    for (const auto &e : m.flidTable()) {
        if (e.flid >= prog.flidKinds.size())
            prog.flidKinds.resize(e.flid + 1, kTrapKindMemory);
        if (e.checkKind == cfi::kForwardKind) {
            prog.flidKinds[e.flid] = kTrapKindCfiForward;
            hasCfi = true;
        } else if (e.checkKind == cfi::kReturnKind) {
            prog.flidKinds[e.flid] = kTrapKindCfiReturn;
            hasCfi = true;
        }
    }

    // Map module function ids to program indices (live funcs only).
    std::map<uint32_t, uint32_t> funcIndex;
    Selector sel(m, prog, hasCfi);
    for (const auto &f : m.funcs()) {
        if (f.dead)
            continue;
        funcIndex[f.id] = static_cast<uint32_t>(prog.funcs.size());
        prog.funcs.push_back(sel.select(f));
    }

    // Entry point and vector table.
    prog.vectorTable.assign(16, -1);
    prog.entry = 0;
    for (const auto &mf : prog.funcs) {
        if (mf.name == "main")
            prog.entry = funcIndex[mf.id];
        if (mf.interruptVector >= 0 &&
            mf.interruptVector < static_cast<int>(prog.vectorTable.size()))
            prog.vectorTable[mf.interruptVector] =
                static_cast<int>(funcIndex[mf.id]);
    }

    // Data GC: only globals referenced by surviving code are laid out.
    std::vector<bool> usedGlobal(m.globals().size(), false);
    for (const auto &mf : prog.funcs) {
        for (const auto &bb : mf.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.op == MOp::Lea)
                    usedGlobal[in.gid] = true;
            }
        }
    }
    uint32_t ram = prog.ramBase;
    uint32_t rom = prog.romDataBase;
    for (const auto &g : m.globals()) {
        if (g.dead || !usedGlobal[g.id])
            continue;
        MProgram::DataItem d;
        d.globalId = g.id;
        d.name = g.name;
        d.size = std::max(1u, m.typeSize(g.type));
        d.rom = g.section == Section::Rom;
        d.init = g.init;
        d.isCheckTag = g.attrs.isCheckTag;
        d.isErrorString = g.attrs.isErrorString;
        uint32_t &cursor = d.rom ? rom : ram;
        cursor = alignUp(cursor, m.typeAlign(g.type));
        d.addr = cursor;
        cursor += d.size;
        prog.data.push_back(std::move(d));
    }
    prog.ramDataEnd = ram;
    prog.romDataEnd = rom;
    return prog;
}

} // namespace stos::backend
