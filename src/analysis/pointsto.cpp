/**
 * @file
 * Andersen-style points-to analysis implementation.
 */
#include "analysis/pointsto.h"

namespace stos::analysis {

using namespace stos::ir;

PointsTo::PointsTo(const Module &m) : mod_(m)
{
    build();
}

uint32_t
PointsTo::vregKey(uint32_t fn, uint32_t vreg) const
{
    return funcVregBase_.at(fn) + vreg;
}

uint32_t
PointsTo::memKey(const MemObj &obj) const
{
    switch (obj.kind) {
      case MemObj::Universal:
        return objKeyBase_.at(mod_.funcs().size());
      case MemObj::GlobalObj:
        return objKeyBase_.at(mod_.funcs().size()) + 1 + obj.index;
      case MemObj::LocalObj:
        return objKeyBase_.at(obj.func) + obj.index;
    }
    return 0;
}

bool
PointsTo::hasUniversal(const PtsSet &s)
{
    return s.count(MemObj::universal()) > 0;
}

namespace {

/** Does this type contain a pointer that memory analysis must track? */
bool
typeHoldsPointer(const TypeTable &tt, TypeId t)
{
    const Type &ty = tt.get(t);
    switch (ty.kind) {
      case TypeKind::Ptr:
        return true;
      case TypeKind::Array:
        return typeHoldsPointer(tt, ty.elem);
      default:
        return false;
    }
}

} // namespace

void
PointsTo::build()
{
    const auto &funcs = mod_.funcs();
    // Assign key ranges: vregs per function, then locals per function,
    // then [universal][globals].
    uint32_t next = 0;
    funcVregBase_.resize(funcs.size());
    objKeyBase_.resize(funcs.size() + 1);
    for (const auto &f : funcs) {
        funcVregBase_[f.id] = next;
        next += static_cast<uint32_t>(f.vregs.size());
    }
    for (const auto &f : funcs) {
        objKeyBase_[f.id] = next;
        next += static_cast<uint32_t>(f.locals.size());
    }
    objKeyBase_[funcs.size()] = next;
    next += 1 + static_cast<uint32_t>(mod_.globals().size());
    numKeys_ = next;

    pts_.assign(numKeys_, {});
    succ_.assign(numKeys_, {});
    defs_.assign(funcs.size(), {});

    // Load/Store constraints, by the key of the pointer they go through.
    struct DerefCons { uint32_t valKey; bool isLoad; };
    std::vector<std::vector<DerefCons>> derefsOf(numKeys_);

    const TypeTable &tt = mod_.types();
    uint32_t universalKey = memKey(MemObj::universal());
    pts_[universalKey].insert(MemObj::universal());

    for (const auto &f : funcs) {
        if (f.dead)
            continue;
        defs_[f.id] = Defs(f);
        auto vkey = [&](uint32_t v) { return vregKey(f.id, v); };
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                switch (in.op) {
                  case Opcode::AddrGlobal:
                    pts_[vkey(in.dst)].insert(
                        MemObj::global(in.args[0].index));
                    break;
                  case Opcode::AddrLocal:
                    pts_[vkey(in.dst)].insert(MemObj::local(f.id, in.auxA));
                    break;
                  case Opcode::Mov:
                  case Opcode::Gep:
                  case Opcode::PtrAdd:
                  case Opcode::Cast: {
                    if (!tt.isPtr(in.type))
                        break;
                    const Operand &src = in.args[0];
                    if (src.isVReg()) {
                        if (tt.isPtr(f.vregs[src.index].type) ||
                            in.op != Opcode::Cast) {
                            succ_[vkey(src.index)].push_back(vkey(in.dst));
                        } else {
                            // int -> pointer: unknown target.
                            pts_[vkey(in.dst)].insert(MemObj::universal());
                        }
                    } else if (src.isImm() && src.imm != 0) {
                        pts_[vkey(in.dst)].insert(MemObj::universal());
                    }
                    break;
                  }
                  case Opcode::ConstI:
                    if (tt.isPtr(in.type) && in.args[0].imm != 0)
                        pts_[vkey(in.dst)].insert(MemObj::universal());
                    break;
                  case Opcode::Load:
                    if (tt.isPtr(in.type) && in.args[0].isVReg()) {
                        derefsOf[vkey(in.args[0].index)].push_back(
                            {vkey(in.dst), true});
                    }
                    break;
                  case Opcode::Store: {
                    if (!tt.isPtr(in.type))
                        break;
                    if (in.args[0].isVReg() && in.args[1].isVReg()) {
                        derefsOf[vkey(in.args[0].index)].push_back(
                            {vkey(in.args[1].index), false});
                    }
                    break;
                  }
                  case Opcode::Call: {
                    const Function &callee = mod_.funcAt(in.callee);
                    for (size_t i = 0; i < in.args.size() &&
                                       i < callee.params.size();
                         ++i) {
                        if (in.args[i].isVReg() &&
                            tt.isPtr(f.vregs[in.args[i].index].type)) {
                            succ_[vkey(in.args[i].index)].push_back(
                                vregKey(callee.id, callee.params[i]));
                        }
                    }
                    if (in.hasDst() && tt.isPtr(in.type)) {
                        // Returns flow back: handled below via ret scan.
                    }
                    break;
                  }
                  default:
                    break;
                }
            }
        }
    }
    // Return-value flow: for each call with a pointer dst, add edges
    // from every Ret operand of the callee.
    for (const auto &f : funcs) {
        if (f.dead)
            continue;
        for (const auto &bb : f.blocks) {
            for (const auto &in : bb.instrs) {
                if (in.op != Opcode::Call || !in.hasDst() ||
                    !tt.isPtr(in.type)) {
                    continue;
                }
                const Function &callee = mod_.funcAt(in.callee);
                for (const auto &cbb : callee.blocks) {
                    for (const auto &cin : cbb.instrs) {
                        if (cin.op == Opcode::Ret && !cin.args.empty() &&
                            cin.args[0].isVReg()) {
                            succ_[vregKey(callee.id, cin.args[0].index)]
                                .push_back(vregKey(f.id, in.dst));
                        }
                    }
                }
            }
        }
    }

    // Worklist over inclusion edges: a key is queued whenever its set
    // grows, and processing it expands the deref constraints on it
    // into edges before pushing its set along its out-edges. Andersen's
    // least solution does not depend on the visit order.
    std::set<std::pair<uint32_t, uint32_t>> edgeSeen;
    for (uint32_t k = 0; k < numKeys_; ++k) {
        for (uint32_t s : succ_[k])
            edgeSeen.insert({k, s});
    }
    std::vector<uint32_t> work;
    std::vector<bool> queued(numKeys_, false);
    auto flow = [&](uint32_t from, uint32_t to) {
        size_t before = pts_[to].size();
        pts_[to].insert(pts_[from].begin(), pts_[from].end());
        if (pts_[to].size() != before && !queued[to]) {
            queued[to] = true;
            work.push_back(to);
        }
    };
    for (uint32_t k = 0; k < numKeys_; ++k) {
        if (!pts_[k].empty()) {
            queued[k] = true;
            work.push_back(k);
        }
    }
    while (!work.empty()) {
        uint32_t k = work.back();
        work.pop_back();
        queued[k] = false;
        if (!derefsOf[k].empty()) {
            const PtsSet objs = pts_[k];
            for (const auto &d : derefsOf[k]) {
                for (const MemObj &obj : objs) {
                    uint32_t mk = memKey(obj);
                    uint32_t from = d.isLoad ? mk : d.valKey;
                    uint32_t to = d.isLoad ? d.valKey : mk;
                    if (edgeSeen.insert({from, to}).second) {
                        succ_[from].push_back(to);
                        flow(from, to);
                    }
                }
            }
        }
        for (uint32_t s : succ_[k]) {
            if (s != k)
                flow(k, s);
        }
    }
}

const PtsSet &
PointsTo::vregPts(uint32_t fn, uint32_t vreg) const
{
    return pts_.at(vregKey(fn, vreg));
}

const PtsSet &
PointsTo::memPts(const MemObj &obj) const
{
    return pts_.at(memKey(obj));
}

bool
PointsTo::mayAlias(uint32_t fnA, uint32_t vregA, uint32_t fnB,
                   uint32_t vregB) const
{
    const PtsSet &a = vregPts(fnA, vregA);
    const PtsSet &b = vregPts(fnB, vregB);
    if (hasUniversal(a) || hasUniversal(b))
        return true;
    for (const auto &o : a) {
        if (b.count(o))
            return true;
    }
    return false;
}

std::optional<MemObj>
PointsTo::resolveExact(uint32_t fn, uint32_t vreg) const
{
    const Def *d = defs_.at(fn).chase(
        vreg, {Opcode::Mov, Opcode::Cast, Opcode::Gep, Opcode::PtrAdd});
    if (d && d->op == Opcode::AddrGlobal)
        return MemObj::global(d->a.index);
    if (d && d->op == Opcode::AddrLocal)
        return MemObj::local(fn, d->auxA);
    return std::nullopt;
}

PtsSet
PointsTo::accessTargets(uint32_t fn, uint32_t vreg) const
{
    PtsSet s = vregPts(fn, vreg);
    if (auto exact = resolveExact(fn, vreg); exact && s.empty())
        s.insert(*exact);
    return s;
}

} // namespace stos::analysis
