/**
 * @file
 * cXprop engine implementation.
 */
#include "opt/cxprop.h"

#include <algorithm>
#include <deque>

#include "analysis/callgraph.h"
#include "analysis/concurrency.h"
#include "analysis/liveness.h"
#include "analysis/pointsto.h"
#include "ir/semantics.h"
#include "opt/passes.h"
#include "support/util.h"

namespace stos::opt {

using namespace stos::ir;
using namespace stos::analysis;

namespace {

/** Outer analyze-and-transform rounds; most programs settle sooner. */
constexpr int kMaxRounds = 6;

/**
 * Per-slot widening policy. A summary slot counts the fixpoint rounds
 * in which it changed. It joins plainly for its first kWidenAfter
 * changing rounds, then widens to the next threshold, and from its
 * kTypeBoundAfter-th changing round on widens to its type's bounds
 * (widenToType).
 */
constexpr uint8_t kWidenAfter = 2;
constexpr uint8_t kTypeBoundAfter = 8;

/**
 * Append every immediate operand of a comparison in `f`, with its
 * off-by-one neighbours for < and <= bounds. Every extra threshold is
 * one more step a climbing slot must take before its type-bound jump,
 * so only comparisons count, and only their immediates: constants
 * that still sit in ConstI vregs (fresh frontend output, before copy
 * propagation) are not chased. Chasing them admits every library
 * loop bound on the first outer round, and EventLogRotate's ring
 * index then climbed through them one round at a time and lost its
 * bound (8 -> 12 checks in "safe, FLIDs, cXprop").
 */
void
compareConstants(const Function &f, std::vector<int64_t> &out)
{
    for (const auto &bb : f.blocks) {
        for (const auto &in : bb.instrs) {
            if (in.op != Opcode::Bin || !binOpIsComparison(in.bop))
                continue;
            for (const auto &a : in.args) {
                if (a.isImm() && a.imm >= -65536 && a.imm <= 65536)
                    out.insert(out.end(), {a.imm - 1, a.imm, a.imm + 1});
            }
        }
    }
}

/** Size in bytes of an abstract memory object, if known. */
std::optional<uint32_t>
objSize(const Module &m, const MemObj &o)
{
    switch (o.kind) {
      case MemObj::GlobalObj:
        return m.typeSize(m.globalAt(o.index).type);
      case MemObj::LocalObj:
        return m.typeSize(m.funcAt(o.func).locals.at(o.index).type);
      case MemObj::Universal:
        return std::nullopt;
    }
    return std::nullopt;
}

/** Decode a little-endian scalar from a global's init image. */
int64_t
initValueOf(const Module &m, const Global &g)
{
    uint32_t sz = m.typeSize(g.type);
    uint64_t v = 0;
    for (uint32_t i = 0; i < sz && i < 8 && i < g.init.size(); ++i)
        v |= static_cast<uint64_t>(g.init[i]) << (8 * i);
    if (m.types().isInt(g.type))
        return sem::extend(v, sem::widthOf(m.types(), g.type));
    return static_cast<int64_t>(v);
}

bool
isScalar(const TypeTable &tt, TypeId t)
{
    return tt.isScalarInt(t);
}

/**
 * One interprocedural analysis of a module. The whole-program state is
 * a flat array of summary *slots*: one per global invariant, one per
 * function return summary, one per function parameter. Every slot
 * records the tick at which it last changed, and every analysis of a
 * function records its *read set*: the slots it read (entry params,
 * global loads, callee return summaries) and every slot it joined
 * into (a join reads its target). Each slot also carries its own
 * widening policy state, the number of fixpoint rounds in which it
 * changed (see kWidenAfter), which moves only when the slot's value
 * does. A function's analysis is a deterministic function of its IR,
 * the engine's constant analyses and the slots it reads, values and
 * policy state; so when no slot of its read set changed since its
 * last analysis began, re-running it would repeat the same joins with
 * the same operands and change nothing. Such functions are skipped,
 * and their converged block-entry states are kept for the transform.
 *
 * A block-entry state covers only the vregs live-in at that block,
 * listed once per Engine from analysis::Liveness (a function's IR
 * does not change before its own transform). Joins, block visits and
 * the transform walk those lists; a block loads its live-ins into one
 * scratch vreg vector and leaves every other entry stale. That is
 * sound: a vreg not live-in at `b` is redefined on every path from
 * `b`'s entry before any read, so its entry value is never observed
 * and a stale scratch value is never read. It does move
 * CxpropReport's counters: a join into a dead vreg no longer counts as
 * a change, so a successor is re-queued only when a live value
 * changed, and block-level widening (visits_ > 12) starts later.
 */
class Engine {
  public:
    Engine(Module &m, const CxpropOptions &opts, CxpropReport &rep)
        : mod_(m), opts_(opts), rep_(rep), cg_(m), pts_(m),
          conc_(m, cg_, pts_)
    {
        size_t nf = m.funcs().size();
        size_t ng = m.globals().size();
        paramBase_.resize(nf);
        size_t nslots = ng + nf;
        for (const auto &f : m.funcs()) {
            paramBase_[f.id] = static_cast<uint32_t>(nslots);
            nslots += f.params.size();
        }
        slots_.assign(nslots, AbsVal::bottom());
        slotType_.assign(nslots, kInvalidType);
        slotTick_.assign(nslots, 0);
        slotRound_.assign(nslots, 0);
        slotRounds_.assign(nslots, 0);
        readMark_.assign(nslots, 0);
        memo_.resize(nf);
        for (const auto &g : m.globals())
            slotType_[globalSlot(g.id)] = g.type;
        for (const auto &f : m.funcs()) {
            slotType_[retSlot(f.id)] = f.retType;
            for (size_t i = 0; i < f.params.size(); ++i)
                slotType_[paramSlot(f.id, i)] = f.vregs[f.params[i]].type;
        }
        seedGlobals();
        seedRoots();
        // Threshold widening seeded from the constants the program
        // compares against, so loop bounds like `i < 10` survive.
        std::vector<int64_t> consts;
        for (const auto &f : m.funcs()) {
            if (!f.dead)
                compareConstants(f, consts);
        }
        widenTs_.add(consts);
    }

    /**
     * Re-analyze every function whose read set changed until a round
     * changes no slot. This always ends before the panic: a round
     * continues only if some slot changed in it; a slot changes in at
     * most kTypeBoundAfter rounds before its type-bound jump, and
     * after it, widenToType lets it change at most
     * kTypeBoundMaxChanges more times. So at most slots x (both
     * constants) rounds change anything, and the next one is quiet.
     */
    void
    analyzeToFixpoint()
    {
        size_t maxRounds =
            slots_.size() * (kTypeBoundAfter + kTypeBoundMaxChanges) + 1;
        for (size_t round = 0; round < maxRounds; ++round) {
            ++round_;
            changed_ = false;
            ++rep_.fixpointRounds;
            for (auto &f : mod_.funcs()) {
                if (!f.dead && !skipIfClean(f))
                    analyzeFunction(f);
            }
            if (!changed_)
                return;
        }
        panic("cxprop interprocedural analysis failed to converge");
    }

    void
    transformAll()
    {
        // A transform may still join into a slot (an unreachable block
        // storing through an unknown pointer), so each function's
        // kept entry states are replayed only while it is clean.
        for (auto &f : mod_.funcs()) {
            if (f.dead)
                continue;
            if (!skipIfClean(f))
                analyzeFunction(f);
            transformFunction(f);
        }
    }

    const ConcurrencyAnalysis &conc() const { return conc_; }
    const PointsTo &pts() const { return pts_; }

  private:
    /**
     * One forwarded store: the exact byte offset and store width pin
     * down which later loads must-alias it. An object-keyed map alone
     * is not enough — a store to ft[2] must never forward to a load
     * of ft[1].
     */
    struct FwdSlot {
        MemObj obj;
        int64_t off = 0;
        uint32_t size = 0;
        AbsVal val;
    };

    struct State {
        std::vector<AbsVal> regs;
        /** Block-local store forwarding, at most one slot per object;
         *  a block touches few objects, so a linear scan is enough. */
        std::vector<FwdSlot> mem;

        FwdSlot *
        fwd(const MemObj &o)
        {
            for (FwdSlot &s : mem) {
                if (s.obj == o)
                    return &s;
            }
            return nullptr;
        }
        void
        dropFwd(const MemObj &o)
        {
            if (FwdSlot *s = fwd(o)) {
                *s = mem.back();
                mem.pop_back();
            }
        }
    };

    /** What the last analysis of one function read and produced. */
    struct FuncMemo {
        bool valid = false;
        uint64_t startTick = 0;
        std::vector<uint32_t> reads;  ///< slot ids, each once
        /** Vregs live-in at each block, ascending; built once. */
        std::vector<std::vector<uint32_t>> liveIn;
        /** Entry state of each block, index-parallel to liveIn[b]. */
        std::vector<std::vector<AbsVal>> blockIn;
    };

    uint32_t globalSlot(uint32_t g) const { return g; }
    uint32_t
    retSlot(uint32_t f) const
    {
        return static_cast<uint32_t>(mod_.globals().size()) + f;
    }
    uint32_t
    paramSlot(uint32_t f, size_t i) const
    {
        return paramBase_[f] + static_cast<uint32_t>(i);
    }

    /** Read a slot, adding it to the running analysis' read set. */
    const AbsVal &
    readSlot(uint32_t s)
    {
        noteRead(s);
        return slots_[s];
    }

    void
    noteRead(uint32_t s)
    {
        if (reads_ && readMark_[s] != tick_) {
            readMark_[s] = tick_;
            reads_->push_back(s);
        }
    }

    /**
     * Count one analysis request for `f` and return true when it can
     * be skipped because re-analyzing could change nothing: no slot of
     * its read set changed since its last analysis started.
     */
    bool
    skipIfClean(const Function &f)
    {
        ++rep_.funcAnalyses;
        const FuncMemo &m = memo_[f.id];
        if (!m.valid)
            return false;
        for (uint32_t s : m.reads) {
            if (slotTick_[s] >= m.startTick)
                return false;
        }
        ++rep_.funcAnalysesSkipped;
        return true;
    }

    void
    seedGlobals()
    {
        for (const auto &g : mod_.globals()) {
            if (g.dead)
                continue;
            if (isScalar(mod_.types(), g.type))
                slots_[globalSlot(g.id)] =
                    AbsVal::constant(initValueOf(mod_, g));
            else
                slots_[globalSlot(g.id)] = AbsVal::top();
        }
    }

    void
    seedRoots()
    {
        // Entry points get Top parameters.
        for (const auto &f : mod_.funcs()) {
            if (f.dead)
                continue;
            bool root = f.name == "main" ||
                        f.attrs.interruptVector >= 0 ||
                        f.attrs.usedFromStart ||
                        cg_.isAddressTaken(f.id);
            if (root) {
                for (size_t i = 0; i < f.params.size(); ++i)
                    slots_[paramSlot(f.id, i)] = AbsVal::top();
            }
        }
    }

    bool
    isRacy(const MemObj &o) const
    {
        return o.kind == MemObj::Universal ||
               conc_.racyObjects().count(o) > 0;
    }

    AbsVal
    evalOperand(const State &st, const Operand &op)
    {
        switch (op.kind) {
          case OperandKind::VReg:
            return st.regs[op.index];
          case OperandKind::ImmInt:
            return AbsVal::constant(op.imm);
          case OperandKind::Global:
            return AbsVal::pointer(MemObj::global(op.index), 0);
          case OperandKind::Func:
            return AbsVal::constant(static_cast<int64_t>(op.index) + 1);
          case OperandKind::None:
            break;
        }
        return AbsVal::top();
    }

    /** Join `v` into slot `s` under the slot's widening policy. */
    void
    joinInto(uint32_t s, const AbsVal &v)
    {
        noteRead(s);
        AbsVal &slot = slots_[s];
        uint8_t &n = slotRounds_[s];
        AbsVal nv = n >= kTypeBoundAfter
                        ? widenToType(slot, v, mod_.types(), slotType_[s])
                    : n >= kWidenAfter ? widen(slot, v, widenTs_)
                                       : join(slot, v, opts_.domains);
        if (!(nv == slot)) {
            slot = nv;
            slotTick_[s] = tick_;
            changed_ = true;
            if (slotRound_[s] != round_) {
                slotRound_[s] = round_;
                if (n < kTypeBoundAfter)
                    ++n;
            }
        }
    }

    /**
     * Record a call's argument values into the callee's summary.
     * Pointer provenance (object identity + offsets) is deliberately
     * dropped at call boundaries: cXprop is context-insensitive, and
     * merging bounds information from every caller at a callee is
     * exactly what makes un-inlined check elimination weak (paper
     * §3.1) — inlining restores the precision by removing the call.
     */
    void
    recordCall(const State &st, const Instr &in)
    {
        const Function &callee = mod_.funcAt(in.callee);
        for (size_t i = 0;
             i < in.args.size() && i < callee.params.size(); ++i) {
            AbsVal v = evalOperand(st, in.args[i]);
            v = clampToType(v, mod_.types(),
                            callee.vregs[callee.params[i]].type,
                            opts_.domains);
            if (v.kind == AbsVal::Ptr) {
                AbsVal degraded;
                degraded.kind = AbsVal::Ptr;
                degraded.nonNull = v.nonNull;
                v = degraded;
            }
            joinInto(paramSlot(in.callee, i), v);
        }
    }

    /**
     * Transfer one instruction. In transform mode (`rep` non-null)
     * the instruction may be rewritten in place; returns true if the
     * caller should delete it.
     */
    bool
    transfer(Function &f, State &st, Instr &in, CxpropReport *rep)
    {
        const TypeTable &tt = mod_.types();
        auto ev = [&](size_t i) { return evalOperand(st, in.args[i]); };
        auto setDst = [&](AbsVal v) {
            if (in.hasDst())
                st.regs[in.dst] =
                    clampToType(v, tt, f.vregs[in.dst].type,
                                opts_.domains);
        };
        auto tryFold = [&](const AbsVal &v) {
            if (!rep || !in.hasDst())
                return;
            if (!isScalar(tt, f.vregs[in.dst].type))
                return;
            auto c = v.asConst();
            if (!c)
                return;
            if (in.op == Opcode::ConstI)
                return;
            in.op = Opcode::ConstI;
            in.args = {Operand::immInt(*c)};
            in.auxA = in.auxB = 0;
            ++rep->instrsConstFolded;
        };

        switch (in.op) {
          case Opcode::ConstI:
            setDst(AbsVal::constant(in.args[0].imm));
            break;
          case Opcode::Mov: {
            AbsVal v = ev(0);
            setDst(v);
            tryFold(v);
            break;
          }
          case Opcode::Bin: {
            AbsVal v = evalBin(in.bop, ev(0), ev(1), tt,
                               sem::operandType(f, in), in.type,
                               opts_.domains);
            // Comparison bookkeeping for branch refinement.
            if (binOpIsComparison(in.bop) && in.hasDst()) {
                VregFacts &fact = facts_[in.dst];
                fact.cmpEpoch = epoch_;
                CmpInfo &ci = fact.cmp;
                ci.op = in.bop;
                ci.lhsVreg = in.args[0].isVReg() ? in.args[0].index
                                                 : kNoVReg;
                ci.rhsVreg = in.args[1].isVReg() ? in.args[1].index
                                                 : kNoVReg;
                ci.lhs = ev(0);
                ci.rhs = ev(1);
            }
            setDst(v);
            tryFold(v);
            break;
          }
          case Opcode::Un: {
            AbsVal v = evalUn(in.uop, ev(0), tt, in.type, opts_.domains);
            setDst(v);
            tryFold(v);
            break;
          }
          case Opcode::Cast: {
            AbsVal v = ev(0);
            const Type &toTy = tt.get(in.type);
            // Remember injective integer widenings so conditional
            // refinement can flow back to the original variable (u8
            // operands are promoted through casts before compares).
            if (in.args[0].isVReg() && in.hasDst() &&
                tt.isScalarInt(in.type) &&
                tt.isScalarInt(f.vregs[in.args[0].index].type)) {
                sem::Width sw =
                    sem::widthOf(tt, f.vregs[in.args[0].index].type);
                if (sem::widthOf(tt, in.type).bits >= sw.bits &&
                    !sw.isSigned) {
                    facts_[in.dst].castEpoch = epoch_;
                    facts_[in.dst].castSrc = in.args[0].index;
                }
            }
            if (toTy.kind == TypeKind::Ptr) {
                if (v.kind == AbsVal::Ptr) {
                    setDst(v);
                } else if (v.isConst()) {
                    AbsVal p;
                    p.kind = AbsVal::Ptr;
                    p.nonNull = *v.asConst() != 0;
                    setDst(p);
                } else {
                    AbsVal p;
                    p.kind = AbsVal::Ptr;
                    setDst(p);
                }
            } else if (v.kind == AbsVal::Ptr) {
                setDst(AbsVal::top());
            } else {
                AbsVal c = clampToType(v, tt, in.type, opts_.domains);
                setDst(c);
                tryFold(c);
            }
            break;
          }
          case Opcode::AddrGlobal:
            setDst(AbsVal::pointer(MemObj::global(in.args[0].index), 0));
            break;
          case Opcode::AddrLocal:
            setDst(AbsVal::pointer(MemObj::local(f.id, in.auxA), 0));
            break;
          case Opcode::Gep: {
            AbsVal v = ev(0);
            if (v.kind == AbsVal::Ptr) {
                v.offLo += in.auxB;
                v.offHi += in.auxB;
            }
            setDst(v);
            break;
          }
          case Opcode::PtrAdd: {
            AbsVal v = ev(0);
            AbsVal idx = ev(1);
            if (v.kind == AbsVal::Ptr && idx.kind == AbsVal::Int &&
                !idx.isTop()) {
                v.offLo += idx.lo * static_cast<int64_t>(in.auxA);
                v.offHi += idx.hi * static_cast<int64_t>(in.auxA);
            } else if (v.kind == AbsVal::Ptr) {
                v.exactObj = false;
            }
            setDst(v);
            break;
          }
          case Opcode::Load: {
            AbsVal addr = in.args[0].isVReg() ? ev(0) : AbsVal::top();
            AbsVal result = AbsVal::top();
            if (addr.kind == AbsVal::Ptr && addr.exactObj) {
                // Racy objects cannot use block-local forwarding, and
                // multi-byte racy reads can tear; but a single-byte
                // read is atomic on these MCUs, so the whole-program
                // invariant still applies to it.
                bool racy = isRacy(addr.obj);
                const FwdSlot *fwd = st.fwd(addr.obj);
                if (!racy && fwd && addr.offLo == addr.offHi &&
                    fwd->off == addr.offLo &&
                    fwd->size == mod_.typeSize(in.type)) {
                    result = fwd->val;
                } else if (addr.obj.kind == MemObj::GlobalObj &&
                           addr.offLo == 0 && addr.offHi == 0 &&
                           isScalar(tt, in.type) &&
                           isScalar(tt,
                                    mod_.globalAt(addr.obj.index).type) &&
                           (!racy || mod_.typeSize(in.type) == 1)) {
                    result = readSlot(globalSlot(addr.obj.index));
                }
            }
            result = clampToType(result, tt, in.type, opts_.domains);
            setDst(result);
            tryFold(result);
            break;
          }
          case Opcode::Store: {
            AbsVal addr = in.args[0].isVReg() ? ev(0) : AbsVal::top();
            AbsVal val = ev(1);
            val = clampToType(val, tt, in.type, opts_.domains);
            if (addr.kind == AbsVal::Ptr && addr.exactObj) {
                // Strong update in the block-local map when the
                // offset is exact (must-alias); weak otherwise.
                if (addr.offLo == addr.offHi && !isRacy(addr.obj)) {
                    FwdSlot slot{addr.obj, addr.offLo,
                                 mod_.typeSize(in.type), val};
                    if (FwdSlot *old = st.fwd(addr.obj))
                        *old = slot;
                    else
                        st.mem.push_back(slot);
                } else {
                    st.dropFwd(addr.obj);
                }
                if (addr.obj.kind == MemObj::GlobalObj)
                    joinInto(globalSlot(addr.obj.index), val);
            } else {
                // Unknown target: all forwarding is invalid and every
                // may-target global learns Top.
                st.mem.clear();
                if (in.args[0].isVReg()) {
                    for (const MemObj &o :
                         pts_.vregPts(f.id, in.args[0].index)) {
                        if (o.kind == MemObj::GlobalObj) {
                            joinInto(globalSlot(o.index), AbsVal::top());
                        } else if (o.kind == MemObj::Universal) {
                            havocAllGlobals();
                        }
                    }
                    if (pts_.vregPts(f.id, in.args[0].index).empty())
                        havocAllGlobals();
                } else {
                    havocAllGlobals();
                }
            }
            break;
          }
          case Opcode::Call: {
            recordCall(st, in);
            st.mem.clear();  // callee may write anything it reaches
            if (in.hasDst())
                setDst(readSlot(retSlot(in.callee)));
            break;
          }
          case Opcode::CallInd:
            st.mem.clear();
            setDst(AbsVal::top());  // unknown callee (builder sets none)
            break;
          case Opcode::Ret:
            if (!in.args.empty()) {
                AbsVal v = evalOperand(st, in.args[0]);
                joinInto(retSlot(f.id), v);
            }
            break;
          case Opcode::HwRead:
            setDst(AbsVal::top());
            break;
          case Opcode::ChkNull: {
            AbsVal v = ev(0);
            bool safe = (v.kind == AbsVal::Ptr && v.nonNull) ||
                        (v.kind == AbsVal::Int && (v.lo > 0 || v.hi < 0));
            if (safe && rep) {
                ++rep->checksRemoved;
                return true;
            }
            // After the check passes, the pointer is non-null.
            if (in.args[0].isVReg()) {
                AbsVal nv = st.regs[in.args[0].index];
                if (nv.kind == AbsVal::Ptr)
                    nv.nonNull = true;
                st.regs[in.args[0].index] = nv;
            }
            break;
          }
          case Opcode::ChkUBound:
          case Opcode::ChkBounds:
          case Opcode::ChkWild: {
            AbsVal v = ev(0);
            if (v.kind == AbsVal::Ptr && v.exactObj) {
                auto size = objSize(mod_, v.obj);
                bool lowerOk = in.op == Opcode::ChkUBound
                                   ? v.nonNull || v.offLo >= 0
                                   : v.offLo >= 0;
                if (size && lowerOk && v.offLo >= 0 &&
                    v.offHi + static_cast<int64_t>(in.auxA) <=
                        static_cast<int64_t>(*size)) {
                    if (rep) {
                        ++rep->checksRemoved;
                        return true;
                    }
                }
            }
            break;
          }
          case Opcode::ChkFnPtr: {
            AbsVal v = ev(0);
            auto c = v.asConst();
            if (c && *c >= 1 &&
                *c <= static_cast<int64_t>(mod_.funcs().size())) {
                if (rep) {
                    ++rep->checksRemoved;
                    return true;
                }
            }
            break;
          }
          case Opcode::ChkCfiLabel: {
            // Removable when the fnptr is a known constant whose ROM
            // label-table entry matches the site's expected label.
            AbsVal v = ev(0);
            auto c = v.asConst();
            if (c && *c >= 1 &&
                *c <= static_cast<int64_t>(mod_.funcs().size()) &&
                in.args.size() >= 2 && in.args[1].isGlobal()) {
                const ir::Global &tbl = mod_.globalAt(in.args[1].index);
                size_t idx = static_cast<size_t>(*c);
                if (idx < tbl.init.size() && tbl.init[idx] == in.auxA) {
                    if (rep) {
                        ++rep->checksRemoved;
                        return true;
                    }
                }
            }
            break;
          }
          case Opcode::ChkAlign: {
            AbsVal v = ev(0);
            if (in.auxA <= 1) {
                if (rep) {
                    ++rep->checksRemoved;
                    return true;
                }
            }
            (void)v;
            break;
          }
          default:
            break;
        }
        return false;
    }

    void
    havocAllGlobals()
    {
        for (uint32_t g = 0; g < mod_.globals().size(); ++g)
            joinInto(globalSlot(g), AbsVal::top());
    }

    struct CmpInfo {
        BinOp op = BinOp::Eq;
        uint32_t lhsVreg = kNoVReg;
        uint32_t rhsVreg = kNoVReg;
        AbsVal lhs, rhs;
    };

    /**
     * What the block being walked recorded about one vreg: the last
     * comparison that defined it and the vreg an injective widening
     * cast copied into it. A fact holds only while its stamp equals
     * epoch_, which every block start bumps, so no block clears them.
     */
    struct VregFacts {
        uint64_t cmpEpoch = 0;
        uint64_t castEpoch = 0;
        uint32_t castSrc = kNoVReg;
        CmpInfo cmp;
    };

    BinOp
    swapCompare(BinOp op)
    {
        switch (op) {
          case BinOp::LtU: return BinOp::GtU;
          case BinOp::LtS: return BinOp::GtS;
          case BinOp::LeU: return BinOp::GeU;
          case BinOp::LeS: return BinOp::GeS;
          case BinOp::GtU: return BinOp::LtU;
          case BinOp::GtS: return BinOp::LtS;
          case BinOp::GeU: return BinOp::LeU;
          case BinOp::GeS: return BinOp::LeS;
          default: return op;
        }
    }

    /**
     * Dataflow half: iterate `f`'s blocks to a local fixpoint under
     * the current summaries, keeping the block-entry states and the
     * read set in `f`'s memo.
     */
    void
    analyzeFunction(Function &f)
    {
        FuncMemo &memo = memo_[f.id];
        if (!memo.valid)
            memo.liveIn = liveInLists(f);
        ++tick_;
        memo.valid = true;
        memo.startTick = tick_;
        memo.reads.clear();
        reads_ = &memo.reads;

        size_t nb = f.blocks.size();
        auto &blockIn = memo.blockIn;
        blockIn.resize(nb);
        for (size_t b = 0; b < nb; ++b)
            blockIn[b].assign(memo.liveIn[b].size(), AbsVal::bottom());
        visits_.assign(nb, 0);
        inWork_.assign(nb, false);
        // Entry: parameters from the interprocedural summary. Every
        // parameter's slot is read, live at entry or not.
        const std::vector<uint32_t> &entry = memo.liveIn[0];
        for (size_t i = 0; i < f.params.size(); ++i) {
            const AbsVal &v = readSlot(paramSlot(f.id, i));
            auto it = std::lower_bound(entry.begin(), entry.end(),
                                       f.params[i]);
            if (it != entry.end() && *it == f.params[i])
                blockIn[0][it - entry.begin()] = v;
        }
        std::deque<uint32_t> work{0};
        inWork_[0] = true;

        State &st = scratch_;
        prepareScratch(f);
        uint32_t blockVisits = 0;
        while (!work.empty()) {
            uint32_t b = work.front();
            work.pop_front();
            inWork_[b] = false;
            ++blockVisits;
            beginBlock(memo, b);
            BasicBlock &bb = f.blocks[b];
            for (auto &in : bb.instrs)
                transfer(f, st, in, nullptr);
            if (!bb.instrs.empty())
                propagate(f, st, bb.instrs.back(), work);
        }
        rep_.blockVisits += blockVisits;
        reads_ = nullptr;
    }

    /** Every block's live-in vregs, in ascending order. */
    std::vector<std::vector<uint32_t>>
    liveInLists(const Function &f) const
    {
        Liveness live(mod_, f);
        std::vector<std::vector<uint32_t>> lists(f.blocks.size());
        for (uint32_t b = 0; b < lists.size(); ++b) {
            const std::vector<bool> &in = live.liveIn(b);
            for (uint32_t v = 0; v < in.size(); ++v) {
                if (in[v])
                    lists[b].push_back(v);
            }
        }
        return lists;
    }

    /** Size the scratch state and the vreg facts for `f`. */
    void
    prepareScratch(const Function &f)
    {
        scratch_.regs.assign(f.vregs.size(), AbsVal::bottom());
        if (facts_.size() < f.vregs.size())
            facts_.resize(f.vregs.size());
    }

    /**
     * Start a walk of block `b`: load its entry state into the scratch
     * vreg vector, drop store forwarding and retire the vreg facts.
     */
    void
    beginBlock(const FuncMemo &memo, uint32_t b)
    {
        const std::vector<uint32_t> &live = memo.liveIn[b];
        const std::vector<AbsVal> &vals = memo.blockIn[b];
        for (size_t k = 0; k < live.size(); ++k)
            scratch_.regs[live[k]] = vals[k];
        scratch_.mem.clear();
        ++epoch_;
    }

    /**
     * Join the block's exit state into each successor's live-in
     * vregs, refined by the branch condition on conditional edges.
     * The at most 16 refined vregs are written into `st` in place and
     * restored after the join, so no edge copies the vreg vector.
     */
    void
    propagate(const Function &f, State &st, const Instr &t,
              std::deque<uint32_t> &work)
    {
        FuncMemo &memo = memo_[f.id];
        auto &blockIn = memo.blockIn;
        size_t nb = blockIn.size();
        struct Saved {
            uint32_t vreg;
            AbsVal val;
        };
        Saved saved[16];
        int nsaved = 0;
        auto push = [&](uint32_t s, bool taken, bool isCond) {
            if (s == kNoBlock || s >= nb)
                return;
            nsaved = 0;
            if (isCond && t.args[0].isVReg() &&
                facts_[t.args[0].index].cmpEpoch == epoch_) {
                const CmpInfo &info = facts_[t.args[0].index].cmp;
                auto refineChain = [&](uint32_t v, BinOp op,
                                       const AbsVal &rhs) {
                    // Refine the vreg and, through any recorded
                    // widening casts, the variable it came from.
                    for (int d = 0; d < 8 && v != kNoVReg; ++d) {
                        saved[nsaved++] = {v, st.regs[v]};
                        st.regs[v] = clampToType(
                            refineByCompare(st.regs[v], op, rhs, taken,
                                            opts_.domains),
                            mod_.types(), f.vregs[v].type,
                            opts_.domains);
                        v = facts_[v].castEpoch == epoch_
                                ? facts_[v].castSrc
                                : kNoVReg;
                    }
                };
                if (info.lhsVreg != kNoVReg)
                    refineChain(info.lhsVreg, info.op, info.rhs);
                if (info.rhsVreg != kNoVReg)
                    refineChain(info.rhsVreg, swapCompare(info.op),
                                info.lhs);
            }
            const std::vector<uint32_t> &live = memo.liveIn[s];
            std::vector<AbsVal> &in = blockIn[s];
            bool widenNow = visits_[s] > 12;
            bool changed = false;
            for (size_t k = 0; k < live.size(); ++k) {
                const AbsVal &next = st.regs[live[k]];
                AbsVal nv = widenNow
                                ? widen(in[k], next, widenTs_)
                                : join(in[k], next, opts_.domains);
                if (!(nv == in[k])) {
                    in[k] = nv;
                    changed = true;
                }
            }
            // Undo the refinements, latest first, so a vreg refined
            // twice gets its original value back.
            while (nsaved > 0) {
                --nsaved;
                st.regs[saved[nsaved].vreg] = saved[nsaved].val;
            }
            if ((changed || visits_[s] == 0) && !inWork_[s]) {
                ++visits_[s];
                inWork_[s] = true;
                work.push_back(s);
            }
        };
        if (t.op == Opcode::Br) {
            push(t.b0, true, false);
        } else if (t.op == Opcode::CondBr) {
            push(t.b0, true, true);
            push(t.b1, false, true);
        }
    }

    /**
     * Transform half: replay every block once from its converged
     * entry state in `f`'s memo, rewriting instructions in place.
     */
    void
    transformFunction(Function &f)
    {
        ++tick_;
        CxpropReport *rep = &rep_;
        const FuncMemo &memo = memo_[f.id];
        State &st = scratch_;
        prepareScratch(f);
        std::vector<Instr> out;
        for (uint32_t b = 0; b < f.blocks.size(); ++b) {
            beginBlock(memo, b);
            BasicBlock &bb = f.blocks[b];
            out.clear();
            out.reserve(bb.instrs.size());
            for (auto &in : bb.instrs) {
                // Evaluate the branch condition before the transfer in
                // case folding rewrites operands.
                if (in.op == Opcode::CondBr && in.args[0].isVReg()) {
                    AbsVal c = evalOperand(st, in.args[0]);
                    if (auto cv = c.asConst()) {
                        in.op = Opcode::Br;
                        in.b0 = *cv ? in.b0 : in.b1;
                        in.b1 = kNoBlock;
                        in.args.clear();
                        ++rep->branchesFolded;
                        out.push_back(in);
                        continue;
                    }
                }
                bool drop = transfer(f, st, in, rep);
                if (!drop)
                    out.push_back(in);
            }
            bb.instrs.swap(out);
        }
    }

    Module &mod_;
    const CxpropOptions &opts_;
    CxpropReport &rep_;
    CallGraph cg_;
    PointsTo pts_;
    ConcurrencyAnalysis conc_;
    /** Summary slots: globals, then return summaries, then params. */
    std::vector<AbsVal> slots_;
    std::vector<TypeId> slotType_;     ///< bounds widenToType jumps to
    std::vector<uint32_t> paramBase_;  ///< first param slot per function
    std::vector<uint64_t> slotTick_;   ///< tick of each slot's last change
    std::vector<uint64_t> slotRound_;  ///< round of each slot's last change
    /** Fixpoint rounds in which each slot changed, up to
     *  kTypeBoundAfter: the slot's widening policy state. */
    std::vector<uint8_t> slotRounds_;
    uint64_t round_ = 0;               ///< current fixpoint round
    std::vector<uint64_t> readMark_;   ///< tick that last noted each slot
    uint64_t tick_ = 0;                ///< bumped per analysis/transform
    std::vector<uint32_t> *reads_ = nullptr;  ///< running read set
    std::vector<FuncMemo> memo_;
    State scratch_;
    std::vector<int> visits_;
    std::vector<bool> inWork_;
    std::vector<VregFacts> facts_;  ///< per vreg, stamped by epoch_
    uint64_t epoch_ = 0;             ///< bumped per block walk
    WidenThresholds widenTs_;
    bool changed_ = false;
};

} // namespace

CxpropReport
runCxprop(Module &m, const CxpropOptions &opts)
{
    CxpropReport rep;
    if (opts.inlineFirst)
        rep.funcsInlined = inlineFunctions(m);
    bool atomicsDone = false;
    for (int round = 0; round < kMaxRounds; ++round) {
        rep.rounds = round + 1;
        uint32_t before = rep.checksRemoved + rep.instrsConstFolded +
                          rep.branchesFolded;
        Engine engine(m, opts, rep);
        engine.analyzeToFixpoint();
        engine.transformAll();

        uint32_t cleanupChanges = 0;
        for (auto &f : m.funcs()) {
            if (f.dead)
                continue;
            cleanupChanges += simplifyCfg(f);
            if (opts.strongDce) {
                rep.copiesPropagated += localCopyProp(m, f);
                uint32_t n = removeDeadInstrs(m, f);
                rep.deadInstrsRemoved += n;
                cleanupChanges += n;
            }
        }
        if (opts.strongDce) {
            PointsTo freshPts(m);
            uint32_t ds = removeDeadStores(m, freshPts);
            rep.deadStoresRemoved += ds;
            uint32_t dg = removeDeadGlobals(m);
            rep.deadGlobalsRemoved += dg;
            uint32_t df = removeDeadFunctions(m);
            rep.deadFuncsRemoved += df;
            cleanupChanges += ds + dg + df;
        }
        if (opts.optimizeAtomics && !atomicsDone) {
            atomicsDone = true;
            AtomicOptReport ar = optimizeAtomics(m, engine.conc());
            rep.atomicsRemoved +=
                ar.nestedRemoved + ar.handlerAtomicsRemoved;
            rep.atomicSavesDowngraded += ar.savesDowngraded;
        }
        uint32_t after = rep.checksRemoved + rep.instrsConstFolded +
                         rep.branchesFolded;
        if (after == before && cleanupChanges == 0)
            break;
    }
    return rep;
}

} // namespace stos::opt
