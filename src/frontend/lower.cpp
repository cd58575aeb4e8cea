/**
 * @file
 * TinyC semantic analysis and lowering to TinyCIL. One class walks the
 * parsed units: it resolves types, checks expressions, and emits IR.
 * TinyC semantics follow C-on-a-16-bit-target: arithmetic promotes to
 * at least 16 bits, assignment truncates, pointers are 16-bit words.
 */
#include "frontend/frontend.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "support/arith.h"
#include "support/util.h"
#include "frontend/ast.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "frontend/vectors.h"
#include "ir/builder.h"

namespace stos::frontend {

using namespace stos::ir;

namespace {

/** How a named variable is stored inside a function. */
struct VarSlot {
    enum Kind { SlotVReg, SlotMem, SlotGlobal } kind = SlotVReg;
    uint32_t index = 0;   ///< vreg / local / global id
    TypeId type = kInvalidType;
};

/** Typed rvalue produced by expression lowering. */
struct RVal {
    Operand op;
    TypeId type = kInvalidType;
};

/** Lvalue: an assignable location. */
struct LVal {
    enum Kind { None, VRegSlot, Mem, Hw } kind = None;
    uint32_t vreg = 0;       ///< VRegSlot
    Operand addr;            ///< Mem: address operand
    uint32_t hwAddr = 0;     ///< Hw
    TypeId type = kInvalidType;
};

class Lowerer {
  public:
    Lowerer(DiagnosticEngine &diags, const std::string &moduleName)
        : diags_(diags), mod_(moduleName) {}

    Module
    run(const std::vector<UnitAst> &units)
    {
        declareStructs(units);
        declareHwRegs(units);
        declareGlobals(units);
        declareFunctions(units);
        if (diags_.hasErrors())
            return std::move(mod_);
        for (const auto &u : units) {
            for (const auto &f : u.funcs)
                lowerFunction(f);
        }
        return std::move(mod_);
    }

  private:
    /**
     * The module's type table. Interning a type can grow the table
     * and move its entries, so this file binds `Type` values
     * (`const Type t = tt().get(id)`), never references.
     */
    TypeTable &tt() { return mod_.types(); }

    //--- type resolution ---------------------------------------------

    TypeId
    resolveBase(const TypeSyntax &ts)
    {
        switch (ts.base) {
          case BaseTy::Void: return tt().voidTy();
          case BaseTy::Bool: return tt().boolTy();
          case BaseTy::I8: return tt().i8();
          case BaseTy::U8: return tt().u8();
          case BaseTy::I16: return tt().i16();
          case BaseTy::U16: return tt().u16();
          case BaseTy::I32: return tt().i32();
          case BaseTy::U32: return tt().u32();
          case BaseTy::FnPtr: return tt().fnPtrTy();
          case BaseTy::Struct: {
            auto it = structIds_.find(ts.structName);
            if (it == structIds_.end()) {
                diags_.error(ts.loc, "unknown struct " + ts.structName);
                return tt().u8();
            }
            return tt().structTy(it->second);
          }
        }
        return tt().voidTy();
    }

    TypeId
    resolve(const TypeSyntax &ts)
    {
        TypeId t = resolveBase(ts);
        for (uint32_t i = 0; i < ts.ptrDepth; ++i)
            t = tt().ptrTy(t);
        return t;
    }

    //--- declaration passes --------------------------------------------

    void
    declareStructs(const std::vector<UnitAst> &units)
    {
        for (const auto &u : units) {
            for (const auto &s : u.structs) {
                if (structIds_.count(s.name)) {
                    diags_.error(s.loc, "duplicate struct " + s.name);
                    continue;
                }
                StructType st;
                st.name = s.name;
                structIds_[s.name] = mod_.addStruct(std::move(st));
            }
        }
        for (const auto &u : units) {
            for (const auto &s : u.structs) {
                auto it = structIds_.find(s.name);
                if (it == structIds_.end())
                    continue;
                StructType &st = mod_.structAt(it->second);
                if (!st.fields.empty())
                    continue;  // already filled (duplicate guard)
                for (const auto &f : s.fields) {
                    StructField sf;
                    sf.name = f.name;
                    sf.type = resolve(f.type);
                    if (f.isArray)
                        sf.type = tt().arrayTy(sf.type, f.arrayCount);
                    if (tt().isVoid(sf.type))
                        diags_.error(s.loc, "void field " + f.name);
                    st.fields.push_back(std::move(sf));
                }
            }
        }
    }

    void
    declareHwRegs(const std::vector<UnitAst> &units)
    {
        for (const auto &u : units) {
            for (const auto &r : u.hwregs) {
                if (hwregs_.count(r.name)) {
                    diags_.error(r.loc, "duplicate hwreg " + r.name);
                    continue;
                }
                HwReg reg;
                reg.name = r.name;
                reg.addr = r.addr;
                reg.bits = r.type == BaseTy::U16 ? 16 : 8;
                hwregs_[r.name] = reg;
                mod_.addHwReg(reg);
            }
        }
    }

    //--- constant evaluation for initializers --------------------------

    bool
    evalConst(const Expr &e, int64_t &out)
    {
        switch (e.kind) {
          case ExprKind::IntLit:
          case ExprKind::BoolLit:
            out = static_cast<int64_t>(e.intVal);
            return true;
          case ExprKind::NullLit:
            out = 0;
            return true;
          case ExprKind::SizeofTy:
            out = mod_.typeSize(resolve(e.castType));
            return true;
          case ExprKind::Unary: {
            int64_t v;
            if (!evalConst(*e.a, v))
                return false;
            switch (e.uop) {
              case UnaryOp::Neg: out = -v; return true;
              case UnaryOp::BNot: out = ~v; return true;
              case UnaryOp::LNot: out = !v; return true;
              default: return false;
            }
          }
          case ExprKind::Binary: {
            int64_t a, b;
            if (!evalConst(*e.a, a) || !evalConst(*e.b, b))
                return false;
            switch (e.bop) {
              case BinaryOp::Add: out = arith::wrapAdd(a, b); return true;
              case BinaryOp::Sub: out = arith::wrapSub(a, b); return true;
              case BinaryOp::Mul: out = arith::wrapMul(a, b); return true;
              case BinaryOp::Div:
                if (!b) return false;
                out = arith::sdiv(a, b);
                return true;
              case BinaryOp::Rem:
                if (!b) return false;
                out = arith::srem(a, b);
                return true;
              case BinaryOp::And: out = a & b; return true;
              case BinaryOp::Or: out = a | b; return true;
              case BinaryOp::Xor: out = a ^ b; return true;
              case BinaryOp::Shl: out = a << (b & 63); return true;
              case BinaryOp::Shr: out = a >> (b & 63); return true;
              default: return false;
            }
          }
          case ExprKind::Cast: {
            int64_t v;
            if (!evalConst(*e.a, v))
                return false;
            out = v;
            return true;
          }
          default:
            return false;
        }
    }

    void
    writeLE(std::vector<uint8_t> &bytes, size_t off, uint64_t v, uint32_t n)
    {
        for (uint32_t i = 0; i < n; ++i)
            bytes.at(off + i) = static_cast<uint8_t>(v >> (8 * i));
    }

    void
    buildInitBytes(TypeId t, const Initializer &init,
                   std::vector<uint8_t> &bytes, size_t off, SourceLoc loc)
    {
        const Type ty = tt().get(t);
        if (init.isString) {
            if (ty.kind != TypeKind::Array ||
                mod_.typeSize(ty.elem) != 1) {
                diags_.error(loc, "string initializer needs a u8 array");
                return;
            }
            for (size_t i = 0;
                 i < init.stringValue.size() && i < ty.count; ++i) {
                bytes.at(off + i) =
                    static_cast<uint8_t>(init.stringValue[i]);
            }
            return;
        }
        if (init.isList) {
            if (ty.kind == TypeKind::Array) {
                uint32_t esz = mod_.typeSize(ty.elem);
                if (init.list.size() > ty.count) {
                    diags_.error(loc, "too many array initializers");
                    return;
                }
                for (size_t i = 0; i < init.list.size(); ++i) {
                    buildInitBytes(ty.elem, init.list[i], bytes,
                                   off + i * esz, loc);
                }
            } else if (ty.kind == TypeKind::Struct) {
                const StructType &st = mod_.structAt(ty.structId);
                if (init.list.size() > st.fields.size()) {
                    diags_.error(loc, "too many struct initializers");
                    return;
                }
                for (size_t i = 0; i < init.list.size(); ++i) {
                    buildInitBytes(st.fields[i].type, init.list[i], bytes,
                                   off + mod_.fieldOffset(ty.structId,
                                                          static_cast<uint32_t>(i)),
                                   loc);
                }
            } else {
                diags_.error(loc, "brace initializer needs aggregate type");
            }
            return;
        }
        int64_t v = 0;
        if (!init.value || !evalConst(*init.value, v)) {
            diags_.error(loc, "initializer is not a compile-time constant");
            return;
        }
        uint32_t sz = mod_.typeSize(t);
        if (ty.kind == TypeKind::Ptr || ty.kind == TypeKind::FnPtr) {
            if (v != 0) {
                diags_.error(loc, "pointer initializer must be null");
                return;
            }
            sz = mod_.typeSize(t);
        }
        writeLE(bytes, off, static_cast<uint64_t>(v), std::min(sz, 8u));
    }

    void
    declareGlobals(const std::vector<UnitAst> &units)
    {
        for (const auto &u : units) {
            for (const auto &g : u.globals) {
                if (globalIds_.count(g.name) || funcAsts_.count(g.name)) {
                    diags_.error(g.loc, "duplicate global " + g.name);
                    continue;
                }
                Global gl;
                gl.name = g.name;
                gl.type = resolve(g.type);
                if (g.isArray)
                    gl.type = tt().arrayTy(gl.type, g.arrayCount);
                if (tt().isVoid(gl.type)) {
                    diags_.error(g.loc, "void global " + g.name);
                    continue;
                }
                gl.section = g.inRom ? Section::Rom : Section::Ram;
                gl.attrs.norace = g.norace;
                gl.loc = g.loc;
                if (g.hasInit) {
                    gl.init.assign(mod_.typeSize(gl.type), 0);
                    buildInitBytes(gl.type, g.init, gl.init, 0, g.loc);
                }
                globalIds_[g.name] = mod_.addGlobal(std::move(gl));
            }
        }
    }

    void
    declareFunctions(const std::vector<UnitAst> &units)
    {
        for (const auto &u : units) {
            for (const auto &f : u.funcs) {
                if (funcAsts_.count(f.name) || globalIds_.count(f.name)) {
                    diags_.error(f.loc, "duplicate function " + f.name);
                    continue;
                }
                Function fn;
                fn.name = f.name;
                fn.retType = resolve(f.retType);
                const Type rt = tt().get(fn.retType);
                if (rt.kind == TypeKind::Array ||
                    rt.kind == TypeKind::Struct) {
                    diags_.error(f.loc,
                                 "functions cannot return aggregates");
                }
                fn.loc = f.loc;
                fn.attrs.isTask = f.isTask;
                fn.attrs.inlineHint = f.inlineHint;
                fn.attrs.noInline = f.noInline;
                fn.attrs.isInit = f.isInit;
                if (!f.interruptName.empty()) {
                    int vec = vectorByName(f.interruptName);
                    if (vec < 0) {
                        diags_.error(f.loc, "unknown interrupt vector " +
                                                f.interruptName);
                    }
                    fn.attrs.interruptVector = vec;
                    fn.attrs.usedFromStart = true;
                }
                if (f.name == "main")
                    fn.attrs.usedFromStart = true;
                for (const auto &p : f.params) {
                    TypeId pt = resolve(p.type);
                    const Type pty = tt().get(pt);
                    if (pty.kind == TypeKind::Array ||
                        pty.kind == TypeKind::Struct) {
                        diags_.error(f.loc, "aggregate parameter " + p.name +
                                                " (pass a pointer)");
                    }
                    fn.params.push_back(fn.addVReg(pt, p.name));
                }
                uint32_t id = mod_.addFunction(std::move(fn));
                funcAsts_[f.name] = &f;
                funcIds_[f.name] = id;
            }
        }
    }

    //--- function body lowering ------------------------------------

    /** Names whose address is taken (forced into memory locals). */
    void
    collectAddrTaken(const Expr &e, std::unordered_set<std::string> &out)
    {
        if (e.kind == ExprKind::Unary && e.uop == UnaryOp::AddrOf &&
            e.a && e.a->kind == ExprKind::Var) {
            out.insert(e.a->name);
        }
        if (e.a) collectAddrTaken(*e.a, out);
        if (e.b) collectAddrTaken(*e.b, out);
        if (e.c) collectAddrTaken(*e.c, out);
        for (const auto &a : e.args)
            collectAddrTaken(*a, out);
    }

    void
    collectAddrTaken(const Stmt &s, std::unordered_set<std::string> &out)
    {
        if (s.cond) collectAddrTaken(*s.cond, out);
        if (s.expr) collectAddrTaken(*s.expr, out);
        if (s.hasInit && s.init.value)
            collectAddrTaken(*s.init.value, out);
        if (s.thenS) collectAddrTaken(*s.thenS, out);
        if (s.elseS) collectAddrTaken(*s.elseS, out);
        if (s.forInit) collectAddrTaken(*s.forInit, out);
        if (s.forStep) collectAddrTaken(*s.forStep, out);
        for (const auto &c : s.body)
            collectAddrTaken(*c, out);
    }

    struct LoopCtx {
        uint32_t continueTarget;
        uint32_t breakTarget;
    };

    void
    lowerFunction(const FuncDeclAst &fa)
    {
        Function &fn = mod_.funcAt(funcIds_.at(fa.name));
        curFunc_ = &fn;
        builder_ = std::make_unique<Builder>(mod_, fn);
        fn.addBlock("entry");
        builder_->setBlock(0);
        scopes_.clear();
        scopes_.emplace_back();
        loops_.clear();
        addrTaken_.clear();
        if (fa.body)
            collectAddrTaken(*fa.body, addrTaken_);
        // Parameters: if address-taken, spill to a memory local.
        for (size_t i = 0; i < fa.params.size(); ++i) {
            const auto &p = fa.params[i];
            uint32_t pv = fn.params[i];
            TypeId pt = fn.vregs[pv].type;
            if (addrTaken_.count(p.name)) {
                uint32_t lid = fn.addLocal(p.name, pt);
                uint32_t a = builder_->addrLocal(lid, tt().ptrTy(pt));
                builder_->store(Operand::vreg(a), Operand::vreg(pv), pt);
                scopes_.back()[p.name] = {VarSlot::SlotMem, lid, pt};
            } else {
                scopes_.back()[p.name] = {VarSlot::SlotVReg, pv, pt};
            }
        }
        if (fa.body)
            lowerStmt(*fa.body);
        finishBlocks(fn);
        builder_.reset();
        curFunc_ = nullptr;
    }

    /** Give every unterminated block a terminator (implicit return). */
    void
    finishBlocks(Function &fn)
    {
        for (auto &bb : fn.blocks) {
            if (!bb.instrs.empty() && bb.instrs.back().isTerminator())
                continue;
            Instr ret;
            ret.op = Opcode::Ret;
            if (!tt().isVoid(fn.retType)) {
                Instr ci;
                ci.op = Opcode::ConstI;
                ci.dst = fn.addVReg(fn.retType);
                ci.type = fn.retType;
                ci.args = {Operand::immInt(0)};
                bb.instrs.push_back(ci);
                ret.args = {Operand::vreg(ci.dst)};
            }
            bb.instrs.push_back(ret);
        }
    }

    VarSlot *
    findVar(const std::string &name)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end())
                return &f->second;
        }
        return nullptr;
    }

    /** Start a fresh block if the current one is already terminated. */
    void
    freshBlockIfTerminated()
    {
        if (builder_->terminated()) {
            uint32_t bb = builder_->newBlock("unreachable");
            builder_->setBlock(bb);
        }
    }

    void
    lowerStmt(const Stmt &s)
    {
        freshBlockIfTerminated();
        builder_->setLoc(s.loc);
        switch (s.kind) {
          case StmtKind::Block: {
            scopes_.emplace_back();
            for (const auto &c : s.body)
                lowerStmt(*c);
            scopes_.pop_back();
            break;
          }
          case StmtKind::Empty:
            break;
          case StmtKind::ExprStmt:
            lowerExpr(*s.expr);
            break;
          case StmtKind::VarDecl:
            lowerVarDecl(s);
            break;
          case StmtKind::If: {
            RVal c = truthy(lowerExpr(*s.cond), s.loc);
            uint32_t thenB = builder_->newBlock("then");
            uint32_t elseB = s.elseS ? builder_->newBlock("else") : kNoBlock;
            uint32_t joinB = builder_->newBlock("join");
            builder_->condBr(c.op, thenB, s.elseS ? elseB : joinB);
            builder_->setBlock(thenB);
            lowerStmt(*s.thenS);
            if (!builder_->terminated())
                builder_->br(joinB);
            if (s.elseS) {
                builder_->setBlock(elseB);
                lowerStmt(*s.elseS);
                if (!builder_->terminated())
                    builder_->br(joinB);
            }
            builder_->setBlock(joinB);
            break;
          }
          case StmtKind::While: {
            uint32_t condB = builder_->newBlock("while.cond");
            uint32_t bodyB = builder_->newBlock("while.body");
            uint32_t exitB = builder_->newBlock("while.exit");
            builder_->br(condB);
            builder_->setBlock(condB);
            RVal c = truthy(lowerExpr(*s.cond), s.loc);
            builder_->condBr(c.op, bodyB, exitB);
            builder_->setBlock(bodyB);
            loops_.push_back({condB, exitB});
            lowerStmt(*s.thenS);
            loops_.pop_back();
            if (!builder_->terminated())
                builder_->br(condB);
            builder_->setBlock(exitB);
            break;
          }
          case StmtKind::For: {
            scopes_.emplace_back();
            if (s.forInit)
                lowerStmt(*s.forInit);
            uint32_t condB = builder_->newBlock("for.cond");
            uint32_t bodyB = builder_->newBlock("for.body");
            uint32_t stepB = builder_->newBlock("for.step");
            uint32_t exitB = builder_->newBlock("for.exit");
            builder_->br(condB);
            builder_->setBlock(condB);
            if (s.cond) {
                RVal c = truthy(lowerExpr(*s.cond), s.loc);
                builder_->condBr(c.op, bodyB, exitB);
            } else {
                builder_->br(bodyB);
            }
            builder_->setBlock(bodyB);
            loops_.push_back({stepB, exitB});
            lowerStmt(*s.thenS);
            loops_.pop_back();
            if (!builder_->terminated())
                builder_->br(stepB);
            builder_->setBlock(stepB);
            if (s.forStep)
                lowerStmt(*s.forStep);
            if (!builder_->terminated())
                builder_->br(condB);
            builder_->setBlock(exitB);
            scopes_.pop_back();
            break;
          }
          case StmtKind::Return: {
            if (s.expr) {
                RVal v = lowerExpr(*s.expr);
                v = coerce(v, curFunc_->retType, s.loc);
                builder_->ret(v.op);
            } else {
                if (!tt().isVoid(curFunc_->retType))
                    diags_.error(s.loc, "return needs a value here");
                builder_->ret();
            }
            break;
          }
          case StmtKind::Break:
            if (loops_.empty())
                diags_.error(s.loc, "break outside loop");
            else
                builder_->br(loops_.back().breakTarget);
            break;
          case StmtKind::Continue:
            if (loops_.empty())
                diags_.error(s.loc, "continue outside loop");
            else
                builder_->br(loops_.back().continueTarget);
            break;
          case StmtKind::Atomic: {
            builder_->atomicBegin(true);
            for (const auto &c : s.body)
                lowerStmt(*c);
            freshBlockIfTerminated();
            builder_->atomicEnd(true);
            break;
          }
          case StmtKind::Post: {
            auto it = funcIds_.find(s.postTarget);
            if (it == funcIds_.end()) {
                diags_.error(s.loc, "post of unknown task " + s.postTarget);
                break;
            }
            const Function &task = mod_.funcAt(it->second);
            if (!task.attrs.isTask)
                diags_.error(s.loc, s.postTarget + " is not a task");
            auto pit = funcIds_.find("__st_post");
            if (pit == funcIds_.end()) {
                diags_.error(s.loc,
                             "post requires the runtime __st_post function");
                break;
            }
            builder_->call(pit->second, mod_.funcAt(pit->second).retType,
                           {Operand::func(it->second)});
            break;
          }
        }
    }

    void
    lowerVarDecl(const Stmt &s)
    {
        TypeId t = resolve(s.declType);
        if (s.hasArray)
            t = tt().arrayTy(t, s.arrayCount);
        if (tt().isVoid(t)) {
            diags_.error(s.loc, "void variable " + s.declName);
            return;
        }
        const Type ty = tt().get(t);
        bool needsMem = addrTaken_.count(s.declName) ||
                        ty.kind == TypeKind::Array ||
                        ty.kind == TypeKind::Struct;
        VarSlot slot;
        slot.type = t;
        if (needsMem) {
            slot.kind = VarSlot::SlotMem;
            slot.index = curFunc_->addLocal(s.declName, t);
        } else {
            slot.kind = VarSlot::SlotVReg;
            slot.index = curFunc_->addVReg(t, s.declName);
        }
        scopes_.back()[s.declName] = slot;
        if (s.hasInit) {
            if (s.init.isList || s.init.isString) {
                diags_.error(s.loc,
                             "aggregate initializers only allowed on globals");
                return;
            }
            RVal v = coerce(lowerExpr(*s.init.value), t, s.loc);
            storeToSlot(slot, v, s.loc);
        } else if (needsMem) {
            // Memory locals are zeroed by the frame setup in both the
            // interpreter and the generated prologue.
        }
    }

    void
    storeToSlot(const VarSlot &slot, const RVal &v, SourceLoc loc)
    {
        if (slot.kind == VarSlot::SlotVReg) {
            builder_->movTo(slot.index, v.op);
        } else if (slot.kind == VarSlot::SlotMem) {
            uint32_t a =
                builder_->addrLocal(slot.index, tt().ptrTy(slot.type));
            builder_->store(Operand::vreg(a), v.op, slot.type);
        } else {
            const Global &g = mod_.globalAt(slot.index);
            uint32_t a = builder_->addrGlobal(g.id, tt().ptrTy(slot.type));
            builder_->store(Operand::vreg(a), v.op, slot.type);
        }
        (void)loc;
    }

    //--- expression lowering -------------------------------------------

    bool
    isIntLike(TypeId t)
    {
        return tt().isScalarInt(t);
    }

    uint32_t
    intBits(TypeId t)
    {
        const Type ty = tt().get(t);
        if (ty.kind == TypeKind::Bool)
            return 8;
        return ty.bits;
    }

    bool
    intSigned(TypeId t)
    {
        const Type ty = tt().get(t);
        return ty.kind == TypeKind::Int && ty.isSigned;
    }

    /** C-style usual arithmetic conversions, 16-bit "int". */
    TypeId
    promote(TypeId a, TypeId b)
    {
        uint32_t bits = std::max({intBits(a), intBits(b), 16u});
        bool sgn = intSigned(a) && intSigned(b);
        if (intBits(a) > intBits(b))
            sgn = intSigned(a);
        else if (intBits(b) > intBits(a))
            sgn = intSigned(b);
        else
            sgn = intSigned(a) && intSigned(b);
        if (bits < 16)
            bits = 16;
        return tt().intTy(static_cast<uint8_t>(bits), sgn);
    }

    RVal
    coerce(RVal v, TypeId to, SourceLoc loc)
    {
        if (v.type == to)
            return v;
        const Type from = tt().get(v.type);
        const Type dst = tt().get(to);
        // int <-> int / bool
        if (isIntLike(v.type) && isIntLike(to)) {
            return {Operand::vreg(builder_->cast(to, v.op)), to};
        }
        // null literal (int imm 0) -> pointer/fnptr
        if (v.op.isImm() && v.op.imm == 0 &&
            (dst.kind == TypeKind::Ptr || dst.kind == TypeKind::FnPtr)) {
            return {Operand::vreg(builder_->cast(to, v.op)), to};
        }
        // pointer -> bool in conditions handled by truthy()
        if (from.kind == TypeKind::Ptr && dst.kind == TypeKind::Ptr) {
            if (from.pointee == dst.pointee)
                return v;
            diags_.error(loc, "implicit pointer conversion; use a cast");
            return v;
        }
        if (from.kind == TypeKind::FnPtr && dst.kind == TypeKind::FnPtr)
            return v;
        diags_.error(loc, strfmt("cannot convert value of type %u to %u",
                                 v.type, to));
        return v;
    }

    RVal
    truthy(RVal v, SourceLoc loc)
    {
        const Type ty = tt().get(v.type);
        if (ty.kind == TypeKind::Bool)
            return v;
        if (ty.kind == TypeKind::Int || ty.kind == TypeKind::Ptr ||
            ty.kind == TypeKind::FnPtr) {
            uint32_t d = builder_->bin(BinOp::Ne, tt().boolTy(), v.op,
                                       Operand::immInt(0));
            return {Operand::vreg(d), tt().boolTy()};
        }
        diags_.error(loc, "condition is not scalar");
        return {Operand::immInt(0), tt().boolTy()};
    }

    /** Decay arrays to element pointers; load from lvalues. */
    RVal
    rvalueOf(const LVal &lv, SourceLoc loc)
    {
        if (lv.kind == LVal::None || lv.type == kInvalidType)
            return {Operand::immInt(0), tt().u16()};
        const Type ty = tt().get(lv.type);
        switch (lv.kind) {
          case LVal::VRegSlot:
            return {Operand::vreg(lv.vreg), lv.type};
          case LVal::Mem: {
            if (ty.kind == TypeKind::Array) {
                // Decay: pointer to first element, same address.
                TypeId pt = tt().ptrTy(ty.elem);
                uint32_t d = builder_->cast(pt, lv.addr);
                return {Operand::vreg(d), pt};
            }
            if (ty.kind == TypeKind::Struct) {
                // Struct rvalue = its address (used by assignment only).
                return {lv.addr, tt().ptrTy(lv.type)};
            }
            uint32_t d = builder_->load(lv.type, lv.addr);
            return {Operand::vreg(d), lv.type};
          }
          case LVal::Hw: {
            uint32_t d = builder_->hwRead(lv.type, lv.hwAddr);
            return {Operand::vreg(d), lv.type};
          }
          case LVal::None:
            break;
        }
        diags_.error(loc, "expected a value");
        return {Operand::immInt(0), tt().u16()};
    }

    void
    assignTo(const LVal &lv, RVal v, SourceLoc loc)
    {
        if (lv.kind == LVal::None || lv.type == kInvalidType)
            return;
        const Type ty = tt().get(lv.type);
        if (ty.kind == TypeKind::Struct || ty.kind == TypeKind::Array) {
            emitAggregateCopy(lv, v, loc);
            return;
        }
        v = coerce(v, lv.type, loc);
        switch (lv.kind) {
          case LVal::VRegSlot:
            builder_->movTo(lv.vreg, v.op);
            break;
          case LVal::Mem:
            builder_->store(lv.addr, v.op, lv.type);
            break;
          case LVal::Hw:
            builder_->hwWrite(lv.hwAddr, v.op, lv.type);
            break;
          case LVal::None:
            diags_.error(loc, "cannot assign here");
            break;
        }
    }

    /**
     * Struct/array assignment becomes an inline byte-copy loop through
     * u8 pointers (which the safety stage will kind as SEQ — the same
     * cost a real CCured memcpy has).
     */
    void
    emitAggregateCopy(const LVal &dst, const RVal &src, SourceLoc loc)
    {
        if (dst.kind != LVal::Mem) {
            diags_.error(loc, "bad aggregate assignment target");
            return;
        }
        const Type sty = tt().get(src.type);
        if (sty.kind != TypeKind::Ptr ||
            sty.pointee != dst.type) {
            diags_.error(loc, "aggregate assignment type mismatch");
            return;
        }
        uint32_t size = mod_.typeSize(dst.type);
        TypeId u8p = tt().ptrTy(tt().u8());
        TypeId u16t = tt().u16();
        uint32_t d = builder_->cast(u8p, dst.addr);
        uint32_t s = builder_->cast(u8p, src.op);
        uint32_t i = curFunc_->addVReg(u16t, "copy.i");
        builder_->movTo(i, Operand::immInt(0));
        uint32_t condB = builder_->newBlock("copy.cond");
        uint32_t bodyB = builder_->newBlock("copy.body");
        uint32_t exitB = builder_->newBlock("copy.exit");
        builder_->br(condB);
        builder_->setBlock(condB);
        uint32_t c = builder_->bin(BinOp::LtU, tt().boolTy(),
                                   Operand::vreg(i), Operand::immInt(size));
        builder_->condBr(Operand::vreg(c), bodyB, exitB);
        builder_->setBlock(bodyB);
        uint32_t sp = builder_->ptrAdd(Operand::vreg(s), Operand::vreg(i),
                                       1, u8p);
        uint32_t v = builder_->load(tt().u8(), Operand::vreg(sp));
        uint32_t dp = builder_->ptrAdd(Operand::vreg(d), Operand::vreg(i),
                                       1, u8p);
        builder_->store(Operand::vreg(dp), Operand::vreg(v), tt().u8());
        uint32_t ni = builder_->bin(BinOp::Add, u16t, Operand::vreg(i),
                                    Operand::immInt(1));
        builder_->movTo(i, Operand::vreg(ni));
        builder_->br(condB);
        builder_->setBlock(exitB);
    }

    LVal
    lowerLValue(const Expr &e)
    {
        builder_->setLoc(e.loc);
        switch (e.kind) {
          case ExprKind::Var: {
            if (VarSlot *vs = findVar(e.name)) {
                LVal lv;
                lv.type = vs->type;
                if (vs->kind == VarSlot::SlotVReg) {
                    lv.kind = LVal::VRegSlot;
                    lv.vreg = vs->index;
                } else {
                    lv.kind = LVal::Mem;
                    lv.addr = Operand::vreg(builder_->addrLocal(
                        vs->index, tt().ptrTy(vs->type)));
                }
                return lv;
            }
            auto git = globalIds_.find(e.name);
            if (git != globalIds_.end()) {
                const Global &g = mod_.globalAt(git->second);
                LVal lv;
                lv.kind = LVal::Mem;
                lv.type = g.type;
                lv.addr = Operand::vreg(
                    builder_->addrGlobal(g.id, tt().ptrTy(g.type)));
                return lv;
            }
            auto hit = hwregs_.find(e.name);
            if (hit != hwregs_.end()) {
                LVal lv;
                lv.kind = LVal::Hw;
                lv.hwAddr = hit->second.addr;
                lv.type = hit->second.bits == 16 ? tt().u16() : tt().u8();
                return lv;
            }
            diags_.error(e.loc, "unknown variable " + e.name);
            return {};
          }
          case ExprKind::Unary: {
            if (e.uop != UnaryOp::Deref)
                break;
            RVal p = lowerExpr(*e.a);
            const Type pt = tt().get(p.type);
            if (pt.kind != TypeKind::Ptr) {
                diags_.error(e.loc, "dereference of non-pointer");
                return {};
            }
            LVal lv;
            lv.kind = LVal::Mem;
            lv.addr = p.op;
            lv.type = pt.pointee;
            return lv;
          }
          case ExprKind::Index: {
            RVal base = lowerExpr(*e.a);
            const Type bt = tt().get(base.type);
            if (bt.kind != TypeKind::Ptr) {
                diags_.error(e.loc, "indexing a non-pointer");
                return {};
            }
            RVal idx = lowerExpr(*e.b);
            if (!isIntLike(idx.type)) {
                diags_.error(e.loc, "array index is not an integer");
                return {};
            }
            idx = coerce(idx, tt().u16(), e.loc);
            uint32_t esz = mod_.typeSize(bt.pointee);
            uint32_t p = builder_->ptrAdd(base.op, idx.op, esz, base.type);
            LVal lv;
            lv.kind = LVal::Mem;
            lv.addr = Operand::vreg(p);
            lv.type = bt.pointee;
            return lv;
          }
          case ExprKind::Member: {
            TypeId structTy = kInvalidType;
            Operand baseAddr;
            if (e.isArrow) {
                RVal p = lowerExpr(*e.a);
                const Type pt = tt().get(p.type);
                if (pt.kind != TypeKind::Ptr ||
                    tt().get(pt.pointee).kind != TypeKind::Struct) {
                    diags_.error(e.loc, "-> needs a struct pointer");
                    return {};
                }
                structTy = pt.pointee;
                baseAddr = p.op;
            } else {
                LVal base = lowerLValue(*e.a);
                if (base.kind != LVal::Mem ||
                    tt().get(base.type).kind != TypeKind::Struct) {
                    diags_.error(e.loc, ". needs a struct variable");
                    return {};
                }
                structTy = base.type;
                baseAddr = base.addr;
            }
            uint32_t sid = tt().get(structTy).structId;
            const StructType &st = mod_.structAt(sid);
            for (uint32_t i = 0; i < st.fields.size(); ++i) {
                if (st.fields[i].name == e.name) {
                    TypeId ft = st.fields[i].type;
                    uint32_t off = mod_.fieldOffset(sid, i);
                    uint32_t p = builder_->gep(baseAddr, i, off,
                                               tt().ptrTy(ft));
                    LVal lv;
                    lv.kind = LVal::Mem;
                    lv.addr = Operand::vreg(p);
                    lv.type = ft;
                    return lv;
                }
            }
            diags_.error(e.loc, "no field " + e.name + " in struct " +
                                    st.name);
            return {};
          }
          default:
            break;
        }
        diags_.error(e.loc, "expression is not assignable");
        return {};
    }

    RVal
    lowerExpr(const Expr &e)
    {
        builder_->setLoc(e.loc);
        switch (e.kind) {
          case ExprKind::IntLit: {
            TypeId t = e.intVal > 0xFFFF ? tt().u32() : tt().u16();
            return {Operand::vreg(builder_->constI(
                        t, static_cast<int64_t>(e.intVal))),
                    t};
          }
          case ExprKind::BoolLit:
            return {Operand::vreg(builder_->constI(
                        tt().boolTy(), static_cast<int64_t>(e.intVal))),
                    tt().boolTy()};
          case ExprKind::NullLit:
            return {Operand::immInt(0), tt().u16()};
          case ExprKind::StrLit:
            return lowerStringLit(e);
          case ExprKind::Var: {
            // Function name as value -> fnptr constant.
            auto fit = funcIds_.find(e.name);
            if (fit != funcIds_.end() && !findVar(e.name)) {
                return {Operand::func(fit->second), tt().fnPtrTy()};
            }
            LVal lv = lowerLValue(e);
            return rvalueOf(lv, e.loc);
          }
          case ExprKind::Unary:
            return lowerUnary(e);
          case ExprKind::Binary:
            return lowerBinary(e);
          case ExprKind::Assign: {
            LVal lv = lowerLValue(*e.a);
            RVal rhs;
            if (e.isCompound) {
                RVal cur = rvalueOf(lv, e.loc);
                rhs = lowerBinaryOp(e.assignOp, cur, lowerExpr(*e.b), e.loc);
            } else {
                rhs = lowerExpr(*e.b);
            }
            if (lv.kind == LVal::None || lv.type == kInvalidType)
                return rhs;
            const Type lt = tt().get(lv.type);
            if (lt.kind != TypeKind::Struct && lt.kind != TypeKind::Array)
                rhs = coerce(rhs, lv.type, e.loc);
            assignTo(lv, rhs, e.loc);
            return rhs;
          }
          case ExprKind::Cond: {
            RVal c = truthy(lowerExpr(*e.a), e.loc);
            uint32_t thenB = builder_->newBlock("sel.then");
            uint32_t elseB = builder_->newBlock("sel.else");
            uint32_t joinB = builder_->newBlock("sel.join");
            builder_->condBr(c.op, thenB, elseB);
            builder_->setBlock(thenB);
            RVal a = lowerExpr(*e.b);
            TypeId rt = a.type;
            uint32_t slot = curFunc_->addVReg(rt, "sel");
            builder_->movTo(slot, a.op);
            builder_->br(joinB);
            builder_->setBlock(elseB);
            RVal b = lowerExpr(*e.c);
            b = coerce(b, rt, e.loc);
            builder_->movTo(slot, b.op);
            builder_->br(joinB);
            builder_->setBlock(joinB);
            return {Operand::vreg(slot), rt};
          }
          case ExprKind::Index:
          case ExprKind::Member: {
            LVal lv = lowerLValue(e);
            return rvalueOf(lv, e.loc);
          }
          case ExprKind::Call:
            return lowerCall(e);
          case ExprKind::Cast: {
            TypeId to = resolve(e.castType);
            RVal v = lowerExpr(*e.a);
            if (v.type == to)
                return v;
            return {Operand::vreg(builder_->cast(to, v.op)), to};
          }
          case ExprKind::SizeofTy: {
            uint32_t sz = mod_.typeSize(resolve(e.castType));
            return {Operand::vreg(builder_->constI(tt().u16(), sz)),
                    tt().u16()};
          }
          case ExprKind::IncDec: {
            LVal lv = lowerLValue(*e.a);
            RVal old = rvalueOf(lv, e.loc);
            if (lv.kind == LVal::None || lv.type == kInvalidType)
                return old;
            const Type ty = tt().get(lv.type);
            RVal one = {Operand::immInt(1), lv.type};
            RVal next;
            if (ty.kind == TypeKind::Ptr) {
                uint32_t esz = mod_.typeSize(ty.pointee);
                uint32_t p = builder_->ptrAdd(
                    old.op, Operand::immInt(e.isInc ? 1 : -1), esz, lv.type);
                next = {Operand::vreg(p), lv.type};
            } else {
                next = lowerBinaryOp(
                    e.isInc ? BinaryOp::Add : BinaryOp::Sub, old, one,
                    e.loc);
                next = coerce(next, lv.type, e.loc);
            }
            assignTo(lv, next, e.loc);
            return old;
          }
        }
        diags_.error(e.loc, "unsupported expression");
        return {Operand::immInt(0), tt().u16()};
    }

    RVal
    lowerStringLit(const Expr &e)
    {
        Global g;
        g.name = strfmt("__str%u", stringCounter_++);
        uint32_t len = static_cast<uint32_t>(e.name.size()) + 1;
        g.type = tt().arrayTy(tt().u8(), len);
        g.attrs.isString = true;
        g.init.assign(len, 0);
        for (size_t i = 0; i < e.name.size(); ++i)
            g.init[i] = static_cast<uint8_t>(e.name[i]);
        uint32_t gid = mod_.addGlobal(std::move(g));
        TypeId u8p = tt().ptrTy(tt().u8());
        uint32_t a = builder_->addrGlobal(gid, u8p);
        return {Operand::vreg(a), u8p};
    }

    RVal
    lowerUnary(const Expr &e)
    {
        switch (e.uop) {
          case UnaryOp::LNot: {
            RVal v = truthy(lowerExpr(*e.a), e.loc);
            uint32_t d = builder_->un(UnOp::Not, tt().boolTy(), v.op);
            return {Operand::vreg(d), tt().boolTy()};
          }
          case UnaryOp::BNot: {
            RVal v = lowerExpr(*e.a);
            TypeId t = promote(v.type, v.type);
            v = coerce(v, t, e.loc);
            uint32_t d = builder_->un(UnOp::BNot, t, v.op);
            return {Operand::vreg(d), t};
          }
          case UnaryOp::Neg: {
            RVal v = lowerExpr(*e.a);
            TypeId t = promote(v.type, v.type);
            v = coerce(v, t, e.loc);
            uint32_t d = builder_->un(UnOp::Neg, t, v.op);
            return {Operand::vreg(d), t};
          }
          case UnaryOp::Deref: {
            LVal lv = lowerLValue(e);
            return rvalueOf(lv, e.loc);
          }
          case UnaryOp::AddrOf: {
            LVal lv = lowerLValue(*e.a);
            if (lv.kind != LVal::Mem) {
                diags_.error(e.loc, "cannot take address of this");
                return {Operand::immInt(0), tt().ptrTy(tt().u8())};
            }
            const Type ty = tt().get(lv.type);
            if (ty.kind == TypeKind::Array) {
                TypeId pt = tt().ptrTy(ty.elem);
                uint32_t d = builder_->cast(pt, lv.addr);
                return {Operand::vreg(d), pt};
            }
            return {lv.addr, tt().ptrTy(lv.type)};
          }
        }
        diags_.error(e.loc, "unsupported unary operator");
        return {Operand::immInt(0), tt().u16()};
    }

    RVal
    lowerBinaryOp(BinaryOp op, RVal a, RVal b, SourceLoc loc)
    {
        const Type at = tt().get(a.type);
        const Type bt = tt().get(b.type);
        // Pointer arithmetic: p + n / p - n.
        if (at.kind == TypeKind::Ptr && isIntLike(b.type) &&
            (op == BinaryOp::Add || op == BinaryOp::Sub)) {
            RVal idx = coerce(b, tt().i16(), loc);
            Operand idxOp = idx.op;
            if (op == BinaryOp::Sub) {
                uint32_t neg = builder_->un(UnOp::Neg, tt().i16(), idxOp);
                idxOp = Operand::vreg(neg);
            }
            uint32_t esz = mod_.typeSize(at.pointee);
            uint32_t d = builder_->ptrAdd(a.op, idxOp, esz, a.type);
            return {Operand::vreg(d), a.type};
        }
        // Pointer comparisons (and against null).
        if ((at.kind == TypeKind::Ptr || bt.kind == TypeKind::Ptr ||
             at.kind == TypeKind::FnPtr || bt.kind == TypeKind::FnPtr)) {
            switch (op) {
              case BinaryOp::Eq: case BinaryOp::Ne:
              case BinaryOp::Lt: case BinaryOp::Le:
              case BinaryOp::Gt: case BinaryOp::Ge: {
                BinOp irop;
                switch (op) {
                  case BinaryOp::Eq: irop = BinOp::Eq; break;
                  case BinaryOp::Ne: irop = BinOp::Ne; break;
                  case BinaryOp::Lt: irop = BinOp::LtU; break;
                  case BinaryOp::Le: irop = BinOp::LeU; break;
                  case BinaryOp::Gt: irop = BinOp::GtU; break;
                  default: irop = BinOp::GeU; break;
                }
                uint32_t d = builder_->bin(irop, tt().boolTy(), a.op, b.op);
                return {Operand::vreg(d), tt().boolTy()};
              }
              default:
                diags_.error(loc, "invalid pointer arithmetic");
                return {Operand::immInt(0), tt().u16()};
            }
        }
        if (op == BinaryOp::LAnd || op == BinaryOp::LOr)
            panic("logical ops lowered elsewhere");
        if (!isIntLike(a.type) || !isIntLike(b.type)) {
            diags_.error(loc, "arithmetic needs integer operands");
            return {Operand::immInt(0), tt().u16()};
        }
        TypeId t = promote(a.type, b.type);
        a = coerce(a, t, loc);
        b = coerce(b, t, loc);
        bool sgn = intSigned(t);
        BinOp irop;
        TypeId rt = t;
        switch (op) {
          case BinaryOp::Add: irop = BinOp::Add; break;
          case BinaryOp::Sub: irop = BinOp::Sub; break;
          case BinaryOp::Mul: irop = BinOp::Mul; break;
          case BinaryOp::Div: irop = sgn ? BinOp::DivS : BinOp::DivU; break;
          case BinaryOp::Rem: irop = sgn ? BinOp::RemS : BinOp::RemU; break;
          case BinaryOp::And: irop = BinOp::And; break;
          case BinaryOp::Or: irop = BinOp::Or; break;
          case BinaryOp::Xor: irop = BinOp::Xor; break;
          case BinaryOp::Shl: irop = BinOp::Shl; break;
          case BinaryOp::Shr: irop = sgn ? BinOp::ShrS : BinOp::ShrU; break;
          case BinaryOp::Eq: irop = BinOp::Eq; rt = tt().boolTy(); break;
          case BinaryOp::Ne: irop = BinOp::Ne; rt = tt().boolTy(); break;
          case BinaryOp::Lt:
            irop = sgn ? BinOp::LtS : BinOp::LtU;
            rt = tt().boolTy();
            break;
          case BinaryOp::Le:
            irop = sgn ? BinOp::LeS : BinOp::LeU;
            rt = tt().boolTy();
            break;
          case BinaryOp::Gt:
            irop = sgn ? BinOp::GtS : BinOp::GtU;
            rt = tt().boolTy();
            break;
          case BinaryOp::Ge:
            irop = sgn ? BinOp::GeS : BinOp::GeU;
            rt = tt().boolTy();
            break;
          default:
            diags_.error(loc, "unsupported binary operator");
            return {Operand::immInt(0), tt().u16()};
        }
        uint32_t d = builder_->bin(irop, rt, a.op, b.op);
        return {Operand::vreg(d), rt};
    }

    RVal
    lowerBinary(const Expr &e)
    {
        if (e.bop == BinaryOp::LAnd || e.bop == BinaryOp::LOr) {
            // Short-circuit with a bool result slot.
            uint32_t slot = curFunc_->addVReg(tt().boolTy(), "sc");
            uint32_t rhsB = builder_->newBlock("sc.rhs");
            uint32_t joinB = builder_->newBlock("sc.join");
            RVal a = truthy(lowerExpr(*e.a), e.loc);
            builder_->movTo(slot, a.op);
            if (e.bop == BinaryOp::LAnd)
                builder_->condBr(a.op, rhsB, joinB);
            else
                builder_->condBr(a.op, joinB, rhsB);
            builder_->setBlock(rhsB);
            RVal b = truthy(lowerExpr(*e.b), e.loc);
            builder_->movTo(slot, b.op);
            builder_->br(joinB);
            builder_->setBlock(joinB);
            return {Operand::vreg(slot), tt().boolTy()};
        }
        RVal a = lowerExpr(*e.a);
        RVal b = lowerExpr(*e.b);
        return lowerBinaryOp(e.bop, a, b, e.loc);
    }

    RVal
    lowerCall(const Expr &e)
    {
        // Compiler builtin: enter low-power sleep until an interrupt.
        if (e.a->kind == ExprKind::Var &&
            e.a->name == "__builtin_sleep" && !findVar(e.a->name) &&
            !funcIds_.count(e.a->name)) {
            Instr sl;
            sl.op = Opcode::Sleep;
            builder_->emit(sl);
            return {Operand::immInt(0), tt().voidTy()};
        }
        // Direct call: callee is a Var naming a function.
        if (e.a->kind == ExprKind::Var && !findVar(e.a->name)) {
            auto it = funcIds_.find(e.a->name);
            if (it != funcIds_.end()) {
                const Function &callee = mod_.funcAt(it->second);
                if (e.args.size() != callee.params.size()) {
                    diags_.error(e.loc,
                                 strfmt("%s expects %zu arguments, got %zu",
                                        callee.name.c_str(),
                                        callee.params.size(),
                                        e.args.size()));
                    return {Operand::immInt(0), tt().u16()};
                }
                std::vector<Operand> args;
                for (size_t i = 0; i < e.args.size(); ++i) {
                    RVal v = lowerExpr(*e.args[i]);
                    v = coerce(v, callee.vregs[callee.params[i]].type,
                               e.loc);
                    args.push_back(v.op);
                }
                uint32_t d = builder_->call(it->second, callee.retType,
                                            std::move(args));
                if (tt().isVoid(callee.retType))
                    return {Operand::immInt(0), tt().voidTy()};
                return {Operand::vreg(d), callee.retType};
            }
        }
        // Indirect call through a fnptr (void(void) only).
        RVal p = lowerExpr(*e.a);
        if (!tt().isFnPtr(p.type)) {
            diags_.error(e.loc, "call of non-function");
            return {Operand::immInt(0), tt().u16()};
        }
        if (!e.args.empty())
            diags_.error(e.loc, "fnptr calls take no arguments");
        builder_->callInd(p.op);
        return {Operand::immInt(0), tt().voidTy()};
    }

    DiagnosticEngine &diags_;
    Module mod_;
    std::unordered_map<std::string, uint32_t> structIds_;
    std::unordered_map<std::string, HwReg> hwregs_;
    std::unordered_map<std::string, uint32_t> globalIds_;
    std::unordered_map<std::string, const FuncDeclAst *> funcAsts_;
    std::unordered_map<std::string, uint32_t> funcIds_;
    Function *curFunc_ = nullptr;
    std::unique_ptr<Builder> builder_;
    std::vector<std::unordered_map<std::string, VarSlot>> scopes_;
    std::vector<LoopCtx> loops_;
    std::unordered_set<std::string> addrTaken_;
    uint32_t stringCounter_ = 0;
};

} // namespace

Module
compileTinyC(const std::vector<CompileInput> &inputs,
             DiagnosticEngine &diags, SourceManager &sm,
             const std::string &moduleName)
{
    std::vector<UnitAst> units;
    for (const auto &in : inputs) {
        uint32_t fid = sm.addBuffer(in.name, in.source);
        auto toks = lex(sm.fileText(fid), fid, diags);
        units.push_back(parseUnit(std::move(toks), diags));
    }
    if (diags.hasErrors())
        return Module(moduleName);
    Lowerer lower(diags, moduleName);
    return lower.run(units);
}

} // namespace stos::frontend
