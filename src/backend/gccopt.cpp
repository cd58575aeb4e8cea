/**
 * @file
 * The GCC-model late optimizer. Intentionally weaker than cXprop:
 * block-local constant folding only (no intervals, no interprocedural
 * facts), a single-pass DCE that does not touch memory operations
 * ("the DCE pass in GCC is not very strong", §2.1), easy-check
 * elimination (redundant and provably-non-null checks), and an
 * optional late inliner that is not followed by re-optimization.
 */
#include "backend/backend.h"

#include <algorithm>
#include <map>

#include "analysis/liveness.h"
#include "ir/defs.h"
#include "ir/semantics.h"
#include "opt/inliner.h"
#include "opt/passes.h"
#include "support/util.h"

namespace stos::backend {

using namespace stos::ir;

namespace {

/** Single-definition chase to an Addr root (for easy null checks). */
bool
rootIsAddr(const Defs &defs, uint32_t vreg)
{
    const Def *d =
        defs.chase(vreg, {Opcode::Gep, Opcode::Mov, Opcode::Cast});
    return d && (d->op == Opcode::AddrGlobal || d->op == Opcode::AddrLocal);
}

/** GCC's block-local folder handles these operators only. */
bool
gccFolds(BinOp op)
{
    return op == BinOp::Add || op == BinOp::Sub || op == BinOp::Mul ||
           op == BinOp::And || op == BinOp::Or || op == BinOp::Xor ||
           op == BinOp::Shl || op == BinOp::Eq || op == BinOp::Ne;
}

uint32_t
localConstFold(Module &m, Function &f, GccReport &rep)
{
    uint32_t changed = 0;
    const TypeTable &tt = m.types();
    for (auto &bb : f.blocks) {
        // vreg -> the bits it holds, as the interpreter would.
        std::map<uint32_t, uint64_t> consts;
        for (auto &in : bb.instrs) {
            auto constOf = [&](const Operand &o) -> std::optional<uint64_t> {
                if (o.isImm())
                    return static_cast<uint64_t>(o.imm);
                if (o.isVReg()) {
                    auto it = consts.find(o.index);
                    if (it != consts.end())
                        return it->second;
                }
                return std::nullopt;
            };
            if (in.op == Opcode::Bin && tt.isScalarInt(in.type) &&
                gccFolds(in.bop)) {
                auto a = constOf(in.args[0]);
                auto b = constOf(in.args[1]);
                if (a && b) {
                    sem::Width rw = sem::widthOf(tt, in.type);
                    uint64_t r = sem::bin(
                        in.bop, *a, *b,
                        sem::widthOf(tt, sem::operandType(f, in)), rw);
                    in.op = Opcode::ConstI;
                    in.args = {Operand::immInt(sem::extend(r, rw))};
                    ++rep.constsFolded;
                    ++changed;
                }
            }
            if (in.op == Opcode::ConstI && in.hasDst())
                consts[in.dst] =
                    sem::truncate(static_cast<uint64_t>(in.args[0].imm),
                                  sem::widthOf(tt, in.type));
            else if (in.hasDst())
                consts.erase(in.dst);
            if (in.op == Opcode::CondBr) {
                auto c = constOf(in.args[0]);
                if (c) {
                    in.op = Opcode::Br;
                    in.b0 = *c ? in.b0 : in.b1;
                    in.b1 = kNoBlock;
                    in.args.clear();
                    ++changed;
                }
            }
        }
    }
    return changed;
}

/** Weak DCE: one pass, register-only ops; memory ops are kept. */
uint32_t
weakDce(Module &m, Function &f)
{
    analysis::Liveness live(m, f);
    uint32_t removed = 0;
    std::vector<bool> dead;
    for (auto &bb : f.blocks) {
        live.deadDefs(bb.id, dead);
        std::vector<Instr> out;
        for (size_t i = 0; i < bb.instrs.size(); ++i) {
            Instr &in = bb.instrs[i];
            bool pure = in.op == Opcode::ConstI || in.op == Opcode::Mov ||
                        in.op == Opcode::Bin || in.op == Opcode::Un ||
                        in.op == Opcode::Cast;
            if (pure && dead[i]) {
                ++removed;
                continue;
            }
            out.push_back(std::move(in));
        }
        bb.instrs = std::move(out);
    }
    return removed;
}

uint32_t
easyCheckElim(Module &m, Function &f, GccReport &rep)
{
    (void)m;
    uint32_t removed = 0;
    // The table copies what it reads, so it stays valid while the
    // blocks below are replaced.
    const Defs defs(f);
    for (auto &bb : f.blocks) {
        std::vector<std::pair<Opcode, uint32_t>> done;
        std::vector<Instr> out;
        for (auto &in : bb.instrs) {
            if (in.isCheck() && in.args[0].isVReg()) {
                // GCC's power here is the "easy" eliminations only:
                // same-block redundant checks, plus null checks whose
                // operand is visibly a variable's address (and even
                // that only for the null kind — bounds need the range
                // reasoning GCC doesn't have).
                bool dup = false;
                for (const auto &[op, v] : done) {
                    if (op == in.op && v == in.args[0].index)
                        dup = true;
                }
                bool easyNull = in.op == Opcode::ChkNull &&
                                rootIsAddr(defs, in.args[0].index);
                if (dup || easyNull) {
                    ++removed;
                    ++rep.checksRemoved;
                    continue;
                }
                done.push_back({in.op, in.args[0].index});
            }
            if (in.hasDst()) {
                done.erase(std::remove_if(done.begin(), done.end(),
                                          [&](const auto &p) {
                                              return p.second == in.dst;
                                          }),
                           done.end());
            }
            out.push_back(std::move(in));
        }
        bb.instrs = std::move(out);
    }
    return removed;
}

} // namespace

GccReport
runGccStyleOpts(Module &m, const GccOptions &opts)
{
    GccReport rep;
    if (opts.lateInline) {
        opt::InlineOptions io;
        io.maxRounds = 2;
        rep.sitesInlined = opt::inlineFunctions(m, io);
    }
    for (auto &f : m.funcs()) {
        if (f.dead)
            continue;
        localConstFold(m, f, rep);
        easyCheckElim(m, f, rep);
        rep.instrsRemoved += weakDce(m, f);
        opt::simplifyCfg(f);
    }
    return rep;
}

} // namespace stos::backend
