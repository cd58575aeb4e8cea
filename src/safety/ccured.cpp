/**
 * @file
 * Safety transformer implementation.
 */
#include "safety/ccured.h"

#include <algorithm>
#include <optional>

#include "analysis/callgraph.h"
#include "analysis/pointsto.h"
#include "cfi/cfi.h"
#include "ir/defs.h"
#include "safety/flid.h"
#include "safety/hwrefactor.h"
#include "safety/kinds.h"
#include "safety/runtime.h"
#include "support/util.h"

namespace stos::safety {

using namespace stos::ir;
using namespace stos::analysis;

namespace {

/** Result of statically resolving an access address. */
struct StaticAccess {
    bool resolved = false;       ///< chain ends at a known object
    bool direct = false;         ///< no PtrAdd at all (plain variable)
    bool constant = false;       ///< offset fully constant
    int64_t offset = 0;
    uint32_t objectSize = 0;
    uint32_t rootVreg = 0;       ///< where the chain stopped
};

class Transformer {
  public:
    Transformer(Module &m, const SafetyConfig &cfg, const SourceManager *sm)
        : mod_(m), cfg_(cfg), sm_(sm) {}

    SafetyReport
    run()
    {
        refactorHardwareAccesses(mod_);
        generateRuntime(mod_, cfg_);

        if (cfg_.memoryChecks) {
            // Pointer-kind inference fattens pointer types; the
            // CfiOnly column keeps the baseline memory layout.
            KindInference kinds(mod_);
            kinds.run();
            report_.kindHistogram = kinds.histogram();
        }

        CallGraph cg(mod_);
        PointsTo pts(mod_);
        if (cfg_.memoryChecks) {
            ConcurrencyAnalysis conc(mod_, cg, pts);
            mod_.racyGlobals().assign(conc.racyGlobals().begin(),
                                      conc.racyGlobals().end());
            report_.racyGlobals =
                static_cast<uint32_t>(conc.racyGlobals().size());

            for (auto &f : mod_.funcs()) {
                if (f.dead || f.attrs.isRuntime)
                    continue;
                instrumentFunction(f, pts, conc);
            }
        }

        if (cfg_.cfi) {
            cfi::CfiInfo ci = cfi::applyCfi(mod_, cg, pts, sm_);
            report_.cfiClasses = ci.classes;
            report_.cfiForwardChecks = ci.forwardChecks;
            report_.cfiReturnSites = ci.returnSites;
            report_.checksInserted += ci.forwardChecks;
            report_.checksByKind[cfi::kForwardKind] += ci.forwardChecks;
        }
        return report_;
    }

  private:
    //--- static access resolution ----------------------------------

    StaticAccess
    resolveStatic(const Function &f, const Defs &defs,
                  uint32_t addrVreg) const
    {
        StaticAccess sa;
        sa.direct = true;
        sa.constant = true;
        uint32_t cur = addrVreg;
        // An acyclic chain visits each vreg at most once.
        for (size_t step = 0; step <= f.vregs.size(); ++step) {
            sa.rootVreg = cur;
            const Def *in = defs.single(cur);
            if (!in)
                return sa;
            switch (in->op) {
              case Opcode::AddrGlobal: {
                const Global &g = mod_.globalAt(in->a.index);
                sa.resolved = true;
                sa.objectSize = mod_.typeSize(g.type);
                return sa;
              }
              case Opcode::AddrLocal:
                sa.resolved = true;
                sa.objectSize = mod_.typeSize(f.locals[in->auxA].type);
                return sa;
              case Opcode::Gep:
                sa.offset += in->auxB;
                if (in->a.isVReg()) {
                    cur = in->a.index;
                    continue;
                }
                return sa;
              case Opcode::PtrAdd: {
                sa.direct = false;
                std::optional<int64_t> idx;
                if (in->b.isImm()) {
                    idx = in->b.imm;
                } else if (in->b.isVReg()) {
                    // Chase a constant index through its definition
                    // (frontend lowering materializes literal indices
                    // into ConstI vregs).
                    const Def *id = defs.single(in->b.index);
                    if (id && id->op == Opcode::ConstI)
                        idx = id->a.imm;
                }
                if (idx)
                    sa.offset += *idx * static_cast<int64_t>(in->auxA);
                else
                    sa.constant = false;
                if (in->a.isVReg()) {
                    cur = in->a.index;
                    continue;
                }
                return sa;
              }
              case Opcode::Mov:
              case Opcode::Cast:
                if (in->a.isVReg()) {
                    cur = in->a.index;
                    continue;
                }
                return sa;
              default:
                return sa;
            }
        }
        // A cycle of single definitions has no root: check the
        // address itself.
        sa.rootVreg = addrVreg;
        return sa;
    }

    //--- error-message materialization --------------------------------

    /** Create the per-check error string global, per config. */
    uint32_t
    makeErrorGlobal(const Instr &access, const std::string &kindName,
                    const Function &f)
    {
        std::string text;
        Section sec = Section::Ram;
        switch (cfg_.errorMode) {
          case ErrorMode::VerboseRam:
          case ErrorMode::VerboseRom: {
            std::string file = sm_ && access.loc.valid()
                                   ? sm_->fileName(access.loc.file)
                                   : "<unknown>";
            text = strfmt("%s:%u: %s check failed in %s()",
                          file.c_str(), access.loc.line,
                          kindName.c_str(), f.name.c_str());
            sec = cfg_.errorMode == ErrorMode::VerboseRom ? Section::Rom
                                                          : Section::Ram;
            break;
          }
          case ErrorMode::Terse:
            // Short code: check initial + line number.
            text = strfmt("%c@%u", kindName[0], access.loc.line);
            sec = Section::Ram;
            break;
          case ErrorMode::Flid:
            return 0;  // no device-side string
        }
        Global g;
        g.name = strfmt("__err%u", errCounter_++);
        uint32_t len = static_cast<uint32_t>(text.size()) + 1;
        g.type = mod_.types().arrayTy(mod_.types().u8(), len);
        g.section = sec;
        g.attrs.isString = true;
        g.attrs.isErrorString = true;
        g.init.assign(len, 0);
        for (size_t i = 0; i < text.size(); ++i)
            g.init[i] = static_cast<uint8_t>(text[i]);
        return mod_.addGlobal(std::move(g)) + 1;
    }

    /** Figure-2 methodology: unique tag string per check. */
    uint32_t
    makeCheckTag()
    {
        std::string text = strfmt("__CHECK_%u__", tagCounter_++);
        Global g;
        g.name = strfmt("__tag%u", tagCounter_);
        uint32_t len = static_cast<uint32_t>(text.size()) + 1;
        g.type = mod_.types().arrayTy(mod_.types().u8(), len);
        g.section = Section::Rom;
        g.attrs.isString = true;
        g.attrs.isCheckTag = true;
        g.init.assign(len, 0);
        for (size_t i = 0; i < text.size(); ++i)
            g.init[i] = static_cast<uint8_t>(text[i]);
        return mod_.addGlobal(std::move(g)) + 1;
    }

    //--- instrumentation -------------------------------------------

    struct PendingCheck {
        Opcode op;
        uint32_t vreg;
        uint32_t accessSize;
        const char *kindName;
    };

    /** Which checks does an access through this pointer type need? */
    std::vector<PendingCheck>
    checksFor(const Function &f, uint32_t addrVreg, uint32_t accessSize,
              const StaticAccess &sa)
    {
        const Type &pt = mod_.types().get(f.vregs[addrVreg].type);
        PtrKind k =
            pt.kind == TypeKind::Ptr ? pt.ptrKind : PtrKind::Safe;
        std::vector<PendingCheck> out;
        switch (k) {
          case PtrKind::Unchecked:
          case PtrKind::Safe:
            // Null check on the chain root: the Gep offsets cannot
            // un-null a pointer, and checking the root lets the
            // optimizers see through repeated field accesses.
            out.push_back({Opcode::ChkNull, sa.rootVreg, accessSize,
                           "null"});
            break;
          case PtrKind::FSeq:
            out.push_back({Opcode::ChkUBound, addrVreg, accessSize,
                           "upper-bound"});
            break;
          case PtrKind::Seq:
            out.push_back({Opcode::ChkBounds, addrVreg, accessSize,
                           "bounds"});
            break;
          case PtrKind::Wild:
            out.push_back({Opcode::ChkWild, addrVreg, accessSize,
                           "wild"});
            break;
        }
        if (cfg_.naiveRuntime && accessSize > 1) {
            // The x86 runtime's four-byte alignment checks (§2.3),
            // meaningless on the AVR but present in a straight port.
            // Word alignment is the strongest guarantee a 16-bit
            // target provides; the check still costs code and cycles.
            out.push_back({Opcode::ChkAlign, addrVreg, 2u,
                           "alignment"});
        }
        return out;
    }

    void
    instrumentFunction(Function &f, const PointsTo &pts,
                       const ConcurrencyAnalysis &conc)
    {
        // The table copies what it reads, so it stays valid while the
        // blocks below are replaced.
        const Defs defs(f);
        for (auto &bb : f.blocks) {
            std::vector<Instr> out;
            out.reserve(bb.instrs.size());
            // (check op, vreg) pairs already performed since the last
            // redefinition of the vreg — CCured's redundant-check
            // elimination.
            std::vector<std::pair<Opcode, uint32_t>> done;
            int atomicDepth = 0;
            for (auto &in : bb.instrs) {
                if (in.op == Opcode::AtomicBegin)
                    ++atomicDepth;
                if (in.op == Opcode::AtomicEnd)
                    atomicDepth = atomicDepth > 0 ? atomicDepth - 1 : 0;

                std::vector<PendingCheck> checks;
                bool racy = false;
                if ((in.op == Opcode::Load || in.op == Opcode::Store) &&
                    in.args[0].isVReg()) {
                    uint32_t addr = in.args[0].index;
                    StaticAccess sa = resolveStatic(f, defs, addr);
                    uint32_t accessSize =
                        std::max(1u, mod_.typeSize(in.type));
                    bool skip = false;
                    if (sa.resolved && sa.direct) {
                        // Plain variable / constant field access: not a
                        // pointer dereference at the source level.
                        skip = true;
                        ++report_.staticallySafeAccesses;
                    } else if (cfg_.ccuredOptimizer && sa.resolved &&
                               sa.constant && sa.offset >= 0 &&
                               sa.offset + accessSize <= sa.objectSize) {
                        // CCured optimizer: constant index provably in
                        // bounds of a known object.
                        skip = true;
                        ++report_.staticallySafeAccesses;
                    }
                    if (!skip) {
                        checks = checksFor(f, addr, accessSize, sa);
                        racy = isRacyAccess(f, addr, pts, conc);
                    }
                } else if (in.op == Opcode::CallInd &&
                           in.args[0].isVReg() && !cfg_.cfi) {
                    // Under CFI the label check subsumes the null +
                    // range fnptr check.
                    checks.push_back({Opcode::ChkFnPtr,
                                      in.args[0].index, 0, "fnptr"});
                }

                // Drop checks already performed on the same vreg.
                if (cfg_.ccuredOptimizer) {
                    std::vector<PendingCheck> kept;
                    for (const auto &c : checks) {
                        bool dup = false;
                        for (const auto &[op, v] : done) {
                            if (op == c.op && v == c.vreg) {
                                dup = true;
                                break;
                            }
                        }
                        if (dup)
                            ++report_.redundantChecksDropped;
                        else
                            kept.push_back(c);
                    }
                    checks = std::move(kept);
                }

                // §2.2: wrap checks on racy variables in atomic
                // sections.
                bool needLock = racy &&
                                atomicDepth == 0 && !checks.empty() &&
                                funcCanBePreempted(f, conc);
                if (needLock) {
                    Instr ab;
                    ab.op = Opcode::AtomicBegin;
                    ab.auxA = conc.atomicNeedsIrqSave(f.id) ? 1 : 0;
                    ab.loc = in.loc;
                    out.push_back(ab);
                    ++report_.locksInserted;
                }
                for (const auto &c : checks) {
                    Instr chk;
                    chk.op = c.op;
                    chk.args = {Operand::vreg(c.vreg)};
                    chk.auxA = c.accessSize;
                    chk.loc = in.loc;
                    chk.flid =
                        allocFlid(mod_, sm_, in.loc, c.kindName, f.name);
                    if (cfg_.insertCheckTags)
                        chk.auxB = makeCheckTag();
                    else
                        chk.auxB = makeErrorGlobal(in, c.kindName, f);
                    out.push_back(chk);
                    ++report_.checksInserted;
                    ++report_.checksByKind[c.kindName];
                    done.push_back({c.op, c.vreg});
                }
                out.push_back(in);
                if (needLock) {
                    Instr ae;
                    ae.op = Opcode::AtomicEnd;
                    ae.auxA = conc.atomicNeedsIrqSave(f.id) ? 1 : 0;
                    ae.loc = in.loc;
                    out.push_back(ae);
                }
                if (in.hasDst()) {
                    // Redefinition invalidates recorded checks.
                    done.erase(std::remove_if(
                                   done.begin(), done.end(),
                                   [&](const auto &p) {
                                       return p.second == in.dst;
                                   }),
                               done.end());
                }
            }
            bb.instrs = std::move(out);
        }
    }

    bool
    funcCanBePreempted(const Function &f,
                       const ConcurrencyAnalysis &conc) const
    {
        // Code that only ever runs inside interrupt handlers cannot be
        // preempted on the AVR (IRQs are off); locking there would be
        // pure overhead.
        const auto &ctx = conc.contextsOf(f.id);
        return ctx.task;
    }

    bool
    isRacyAccess(const Function &f, uint32_t addrVreg, const PointsTo &pts,
                 const ConcurrencyAnalysis &conc) const
    {
        PtsSet targets = pts.accessTargets(f.id, addrVreg);
        for (const MemObj &o : targets) {
            if (o.kind == MemObj::Universal)
                return true;
            if (conc.racyObjects().count(o))
                return true;
        }
        return false;
    }

    Module &mod_;
    const SafetyConfig &cfg_;
    const SourceManager *sm_;
    SafetyReport report_;
    uint32_t errCounter_ = 0;
    uint32_t tagCounter_ = 0;
};

} // namespace

SafetyReport
applySafety(Module &m, const SafetyConfig &cfg, const SourceManager *sm)
{
    Transformer t(m, cfg, sm);
    return t.run();
}

} // namespace stos::safety
