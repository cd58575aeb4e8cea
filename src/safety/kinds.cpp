/**
 * @file
 * Pointer-kind inference implementation: union-find with kind join.
 */
#include "safety/kinds.h"

#include <optional>
#include <vector>

#include "ir/defs.h"
#include "support/util.h"

namespace stos::safety {

using namespace stos::ir;

namespace {

/** Lattice join: higher kinds dominate. */
PtrKind
joinKind(PtrKind a, PtrKind b)
{
    auto rank = [](PtrKind k) {
        switch (k) {
          case PtrKind::Unchecked: return 0;
          case PtrKind::Safe: return 0;
          case PtrKind::FSeq: return 1;
          case PtrKind::Seq: return 2;
          case PtrKind::Wild: return 3;
        }
        return 0;
    };
    return rank(a) >= rank(b) ? a : b;
}

class Solver {
  public:
    explicit Solver(Module &m) : mod_(m) {}

    void
    run(std::map<std::string, uint32_t> &histo)
    {
        allocateNodes();
        buildDefTables();
        generateConstraints();
        materialize(histo);
    }

    PtrKind
    vregKind(uint32_t fn, uint32_t vreg) const
    {
        auto it = vregNode_.find(key(fn, vreg));
        if (it == vregNode_.end())
            return PtrKind::Safe;
        return kindOf(it->second);
    }

  private:
    //--- node space -----------------------------------------------

    static uint64_t
    key(uint32_t a, uint32_t b)
    {
        return (static_cast<uint64_t>(a) << 32) | b;
    }

    uint32_t
    newNode()
    {
        parent_.push_back(static_cast<uint32_t>(parent_.size()));
        kind_.push_back(PtrKind::Safe);
        return static_cast<uint32_t>(parent_.size() - 1);
    }

    uint32_t
    find(uint32_t n) const
    {
        while (parent_[n] != n) {
            parent_[n] = parent_[parent_[n]];
            n = parent_[n];
        }
        return n;
    }

    void
    unify(uint32_t a, uint32_t b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return;
        parent_[b] = a;
        kind_[a] = joinKind(kind_[a], kind_[b]);
    }

    void
    raise(uint32_t n, PtrKind k)
    {
        n = find(n);
        kind_[n] = joinKind(kind_[n], k);
    }

    PtrKind kindOf(uint32_t n) const { return kind_[find(n)]; }

    /** Does the type contain a pointer declaration site? */
    bool
    holdsPtr(TypeId t) const
    {
        const Type &ty = mod_.types().get(t);
        if (ty.kind == TypeKind::Ptr)
            return true;
        if (ty.kind == TypeKind::Array)
            return holdsPtr(ty.elem);
        return false;
    }

    void
    allocateNodes()
    {
        const TypeTable &tt = mod_.types();
        for (const auto &f : mod_.funcs()) {
            if (f.dead)
                continue;
            for (uint32_t v = 0; v < f.vregs.size(); ++v) {
                if (tt.isPtr(f.vregs[v].type))
                    vregNode_[key(f.id, v)] = newNode();
            }
            for (uint32_t l = 0; l < f.locals.size(); ++l) {
                if (holdsPtr(f.locals[l].type))
                    localNode_[key(f.id, l)] = newNode();
            }
        }
        for (const auto &g : mod_.globals()) {
            if (!g.dead && holdsPtr(g.type))
                globalNode_[g.id] = newNode();
        }
        for (uint32_t s = 0; s < mod_.numStructs(); ++s) {
            const StructType &st = mod_.structAt(s);
            for (uint32_t fi = 0; fi < st.fields.size(); ++fi) {
                if (holdsPtr(st.fields[fi].type))
                    fieldNode_[key(s, fi)] = newNode();
            }
        }
    }

    std::optional<uint32_t>
    nodeOfVReg(uint32_t fn, uint32_t v) const
    {
        auto it = vregNode_.find(key(fn, v));
        if (it == vregNode_.end())
            return std::nullopt;
        return it->second;
    }

    //--- def chains --------------------------------------------------

    void
    buildDefTables()
    {
        defs_.resize(mod_.funcs().size());
        for (const auto &f : mod_.funcs()) {
            if (!f.dead)
                defs_[f.id] = Defs(f);
        }
    }

    /**
     * Node of the memory slot a pointer-typed load/store accesses:
     * global, local, struct field, or array element (collapsed onto
     * the containing declaration).
     */
    std::optional<uint32_t>
    resolveSlotNode(const Function &f, uint32_t addrVreg) const
    {
        uint32_t cur = addrVreg;
        // An acyclic chain visits each vreg at most once.
        for (size_t step = 0; step <= f.vregs.size(); ++step) {
            const Def *in = defs_[f.id].single(cur);
            if (!in)
                return std::nullopt;
            switch (in->op) {
              case Opcode::AddrGlobal: {
                auto it = globalNode_.find(in->a.index);
                return it == globalNode_.end()
                           ? std::nullopt
                           : std::optional<uint32_t>(it->second);
              }
              case Opcode::AddrLocal: {
                auto it = localNode_.find(key(f.id, in->auxA));
                return it == localNode_.end()
                           ? std::nullopt
                           : std::optional<uint32_t>(it->second);
              }
              case Opcode::Gep: {
                // Field of *base: use the field's node if the base is a
                // struct pointer.
                if (!in->a.isVReg())
                    return std::nullopt;
                TypeId bt = f.vregs[in->a.index].type;
                const Type &bty = mod_.types().get(bt);
                if (bty.kind == TypeKind::Ptr) {
                    const Type &pt = mod_.types().get(bty.pointee);
                    if (pt.kind == TypeKind::Struct) {
                        auto it =
                            fieldNode_.find(key(pt.structId, in->auxA));
                        return it == fieldNode_.end()
                                   ? std::nullopt
                                   : std::optional<uint32_t>(it->second);
                    }
                }
                cur = in->a.index;
                continue;
              }
              case Opcode::PtrAdd:
              case Opcode::Mov:
              case Opcode::Cast:
                if (in->a.isVReg()) {
                    cur = in->a.index;
                    continue;
                }
                return std::nullopt;
              default:
                return std::nullopt;
            }
        }
        return std::nullopt;
    }

    //--- constraints --------------------------------------------------

    /** Is a pointee-to-pointee cast representable without WILD? */
    bool
    castCompatible(TypeId fromPointee, TypeId toPointee) const
    {
        if (fromPointee == toPointee)
            return true;
        uint32_t fromSz = mod_.typeSize(fromPointee);
        uint32_t toSz = mod_.typeSize(toPointee);
        const Type &toTy = mod_.types().get(toPointee);
        // Viewing any object as bytes is fine (memcpy idiom).
        if (toTy.kind == TypeKind::Int && toTy.bits == 8)
            return true;
        if (toTy.kind == TypeKind::Bool)
            return true;
        // Down-casts to a smaller scalar prefix are representable.
        if ((toTy.kind == TypeKind::Int) && toSz <= fromSz)
            return true;
        return false;
    }

    void
    generateConstraints()
    {
        const TypeTable &tt = mod_.types();
        // Return-node per function (pointer-returning functions).
        std::vector<std::optional<uint32_t>> retNode(mod_.funcs().size());
        for (const auto &f : mod_.funcs()) {
            if (!f.dead && tt.isPtr(f.retType))
                retNode[f.id] = newNode();
        }

        for (const auto &f : mod_.funcs()) {
            if (f.dead)
                continue;
            for (const auto &bb : f.blocks) {
                for (const auto &in : bb.instrs) {
                    genForInstr(f, in, retNode);
                }
            }
        }
    }

    void
    genForInstr(const Function &f, const Instr &in,
                std::vector<std::optional<uint32_t>> &retNode)
    {
        const TypeTable &tt = mod_.types();
        auto vnode = [&](uint32_t v) { return nodeOfVReg(f.id, v); };
        switch (in.op) {
          case Opcode::Mov:
            if (tt.isPtr(in.type) && in.args[0].isVReg()) {
                auto a = vnode(in.dst), b = vnode(in.args[0].index);
                if (a && b)
                    unify(*a, *b);
            }
            break;
          case Opcode::Cast: {
            if (!tt.isPtr(in.type))
                break;
            auto d = vnode(in.dst);
            if (!d)
                break;
            const Operand &src = in.args[0];
            if (src.isVReg() && tt.isPtr(f.vregs[src.index].type)) {
                auto s = vnode(src.index);
                if (s) {
                    unify(*d, *s);
                    TypeId fp = tt.get(f.vregs[src.index].type).pointee;
                    TypeId tp = tt.get(in.type).pointee;
                    if (!castCompatible(fp, tp))
                        raise(*d, PtrKind::Wild);
                    else if (fp != tp)
                        raise(*d, PtrKind::FSeq);
                }
            } else if (src.isImm() && src.imm == 0) {
                // null: no constraint
            } else {
                // int -> pointer that survived hw refactoring: wild.
                raise(*d, PtrKind::Wild);
            }
            break;
          }
          case Opcode::ConstI:
            if (tt.isPtr(in.type) && in.args[0].imm != 0) {
                if (auto d = vnode(in.dst))
                    raise(*d, PtrKind::Wild);
            }
            break;
          case Opcode::Gep: {
            if (in.args[0].isVReg()) {
                auto d = vnode(in.dst), b = vnode(in.args[0].index);
                if (d && b)
                    unify(*d, *b);
            }
            break;
          }
          case Opcode::PtrAdd: {
            auto d = vnode(in.dst);
            std::optional<uint32_t> b;
            if (in.args[0].isVReg())
                b = vnode(in.args[0].index);
            if (d && b)
                unify(*d, *b);
            if (d) {
                const Operand &idx = in.args[1];
                bool forwardOnly = false;
                if (idx.isImm()) {
                    forwardOnly = idx.imm >= 0;
                } else if (idx.isVReg()) {
                    const Type &it = tt.get(f.vregs[idx.index].type);
                    forwardOnly =
                        it.kind == TypeKind::Int && !it.isSigned;
                }
                raise(*d, forwardOnly ? PtrKind::FSeq : PtrKind::Seq);
            }
            break;
          }
          case Opcode::Load: {
            if (tt.isPtr(in.type)) {
                auto d = vnode(in.dst);
                auto slot = in.args[0].isVReg()
                                ? resolveSlotNode(f, in.args[0].index)
                                : std::nullopt;
                if (d && slot)
                    unify(*d, *slot);
                else if (d)
                    raise(*d, PtrKind::Wild);
            }
            break;
          }
          case Opcode::Store: {
            if (tt.isPtr(in.type) ||
                (in.args[1].isVReg() &&
                 tt.isPtr(f.vregs[in.args[1].index].type))) {
                auto slot = in.args[0].isVReg()
                                ? resolveSlotNode(f, in.args[0].index)
                                : std::nullopt;
                if (in.args[1].isVReg() &&
                    tt.isPtr(f.vregs[in.args[1].index].type)) {
                    auto v = vnode(in.args[1].index);
                    if (v && slot)
                        unify(*v, *slot);
                    else if (v)
                        raise(*v, PtrKind::Wild);
                }
            }
            break;
          }
          case Opcode::Call: {
            const Function &callee = mod_.funcAt(in.callee);
            for (size_t i = 0;
                 i < in.args.size() && i < callee.params.size(); ++i) {
                if (in.args[i].isVReg() &&
                    tt.isPtr(f.vregs[in.args[i].index].type)) {
                    auto a = vnode(in.args[i].index);
                    auto p = nodeOfVReg(callee.id, callee.params[i]);
                    if (a && p)
                        unify(*a, *p);
                }
            }
            if (in.hasDst() && tt.isPtr(in.type)) {
                auto d = vnode(in.dst);
                if (d && retNode[in.callee])
                    unify(*d, *retNode[in.callee]);
            }
            break;
          }
          case Opcode::Ret:
            if (!in.args.empty() && in.args[0].isVReg() &&
                tt.isPtr(f.vregs[in.args[0].index].type)) {
                auto v = vnode(in.args[0].index);
                if (v && retNode[f.id])
                    unify(*v, *retNode[f.id]);
            }
            break;
          default:
            break;
        }
    }

    //--- materialization -----------------------------------------------

    /** Rewrite the pointer component of a declared type with a kind. */
    TypeId
    rekindType(TypeId t, PtrKind k)
    {
        TypeTable &tt = mod_.types();
        const Type ty = tt.get(t);
        if (ty.kind == TypeKind::Ptr)
            return tt.ptrTy(ty.pointee, k);
        if (ty.kind == TypeKind::Array)
            return tt.arrayTy(rekindType(ty.elem, k), ty.count);
        return t;
    }

    void
    note(std::map<std::string, uint32_t> &histo, PtrKind k)
    {
        histo[ptrKindName(k)]++;
    }

    void
    materialize(std::map<std::string, uint32_t> &histo)
    {
        TypeTable &tt = mod_.types();
        // Struct fields first: layout changes affect Gep offsets, which
        // are recomputed by a fix-up pass below.
        for (uint32_t s = 0; s < mod_.numStructs(); ++s) {
            StructType &st = mod_.structAt(s);
            for (uint32_t fi = 0; fi < st.fields.size(); ++fi) {
                auto it = fieldNode_.find(key(s, fi));
                if (it == fieldNode_.end())
                    continue;
                PtrKind k = finalKind(it->second);
                st.fields[fi].type = rekindType(st.fields[fi].type, k);
                note(histo, k);
            }
        }
        for (auto &g : mod_.globals()) {
            auto it = globalNode_.find(g.id);
            if (it == globalNode_.end())
                continue;
            PtrKind k = finalKind(it->second);
            TypeId nt = rekindType(g.type, k);
            if (nt != g.type) {
                g.type = nt;
                // Grow the init image to the fat representation
                // (null-initialized bounds).
                if (!g.init.empty())
                    g.init.resize(mod_.typeSize(nt), 0);
            }
            note(histo, k);
        }
        for (auto &f : mod_.funcs()) {
            if (f.dead)
                continue;
            for (uint32_t l = 0; l < f.locals.size(); ++l) {
                auto it = localNode_.find(key(f.id, l));
                if (it == localNode_.end())
                    continue;
                PtrKind k = finalKind(it->second);
                f.locals[l].type = rekindType(f.locals[l].type, k);
                note(histo, k);
            }
            for (uint32_t v = 0; v < f.vregs.size(); ++v) {
                auto it = vregNode_.find(key(f.id, v));
                if (it == vregNode_.end())
                    continue;
                f.vregs[v].type =
                    rekindType(f.vregs[v].type, finalKind(it->second));
            }
            if (tt.isPtr(f.retType)) {
                // Return kind equals the kind of any returned vreg
                // (they are unified); find one.
                for (const auto &bb : f.blocks) {
                    for (const auto &in : bb.instrs) {
                        if (in.op == Opcode::Ret && !in.args.empty() &&
                            in.args[0].isVReg()) {
                            f.retType = rekindType(
                                f.retType,
                                vregKind(f.id, in.args[0].index));
                        }
                    }
                }
            }
        }
        fixupInstructionTypes();
    }

    PtrKind
    finalKind(uint32_t node) const
    {
        PtrKind k = kindOf(node);
        return k == PtrKind::Unchecked ? PtrKind::Safe : k;
    }

    /**
     * After declaration types move, instruction result types and Gep
     * byte offsets must be recomputed from the new layout.
     */
    void
    fixupInstructionTypes()
    {
        const TypeTable &tt = mod_.types();
        for (auto &f : mod_.funcs()) {
            if (f.dead)
                continue;
            for (auto &bb : f.blocks) {
                for (auto &in : bb.instrs) {
                    // Calls included: the solver unifies the dst vreg
                    // with the callee's return node, so the rewritten
                    // vreg type IS the fattened return type — leaving
                    // the stale thin type here made isel emit too few
                    // GetRet words for pointer-returning functions
                    // (bounds arrived as garbage and the first use
                    // tripped its own check).
                    if (in.hasDst())
                        in.type = f.vregs[in.dst].type;
                    switch (in.op) {
                      case Opcode::Gep: {
                        // Recompute the byte offset from the (possibly
                        // fattened) struct layout.
                        if (!in.args[0].isVReg())
                            break;
                        TypeId bt = f.vregs[in.args[0].index].type;
                        const Type &bty = tt.get(bt);
                        if (bty.kind != TypeKind::Ptr)
                            break;
                        const Type &pt = tt.get(bty.pointee);
                        if (pt.kind == TypeKind::Struct) {
                            in.auxB =
                                mod_.fieldOffset(pt.structId, in.auxA);
                            // Result type: pointer to the new field
                            // type, with the dst vreg's kind.
                            TypeId ft =
                                mod_.structAt(pt.structId)
                                    .fields[in.auxA]
                                    .type;
                            PtrKind dk =
                                tt.get(f.vregs[in.dst].type).ptrKind;
                            TypeId base = ft;
                            const Type &fty = tt.get(ft);
                            if (fty.kind == TypeKind::Array)
                                base = fty.elem;
                            f.vregs[in.dst].type =
                                mod_.types().ptrTy(base, dk);
                            in.type = f.vregs[in.dst].type;
                        }
                        break;
                      }
                      case Opcode::PtrAdd: {
                        // Element size may have grown (arrays of fat
                        // pointers).
                        TypeId rt = f.vregs[in.dst].type;
                        const Type &rty = tt.get(rt);
                        if (rty.kind == TypeKind::Ptr)
                            in.auxA = std::max(
                                1u, mod_.typeSize(rty.pointee));
                        break;
                      }
                      case Opcode::Store: {
                        // Width of the store follows the slot type.
                        if (in.args[1].isVReg()) {
                            in.type = f.vregs[in.args[1].index].type;
                        } else if (tt.isPtr(in.type) &&
                                   in.args[0].isVReg()) {
                            const Type &at =
                                tt.get(f.vregs[in.args[0].index].type);
                            if (at.kind == TypeKind::Ptr)
                                in.type = at.pointee;
                        }
                        break;
                      }
                      case Opcode::Load: {
                        if (in.hasDst())
                            in.type = f.vregs[in.dst].type;
                        break;
                      }
                      default:
                        break;
                    }
                }
            }
        }
    }

    Module &mod_;
    mutable std::vector<uint32_t> parent_;
    std::vector<PtrKind> kind_;
    std::map<uint64_t, uint32_t> vregNode_;
    std::map<uint64_t, uint32_t> localNode_;
    std::map<uint32_t, uint32_t> globalNode_;
    std::map<uint64_t, uint32_t> fieldNode_;
    std::vector<Defs> defs_;  ///< per function; empty when dead
};

} // namespace

void
KindInference::run()
{
    // Kinds are materialized into the declaration types, so later
    // queries (kindOfVReg) simply read the rewritten types.
    Solver solver(mod_);
    solver.run(histo_);
}

PtrKind
KindInference::kindOfVReg(uint32_t fn, uint32_t vreg) const
{
    const auto &f = mod_.funcAt(fn);
    const auto &ty = mod_.types().get(f.vregs.at(vreg).type);
    if (ty.kind != TypeKind::Ptr)
        return PtrKind::Safe;
    return ty.ptrKind;
}

} // namespace stos::safety
