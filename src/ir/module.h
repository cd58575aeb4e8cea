/**
 * @file
 * TinyCIL module structure: instructions, basic blocks, functions,
 * globals, struct layouts, hardware registers, and whole-program
 * metadata (racy-variable list, FLID table). This is the IR every
 * stage of the Safe TinyOS pipeline transforms.
 */
#ifndef STOS_IR_MODULE_H
#define STOS_IR_MODULE_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/source_loc.h"
#include "ir/type.h"

namespace stos::ir {

class Module;

//---------------------------------------------------------------------
// Operands
//---------------------------------------------------------------------

enum class OperandKind : uint8_t { None, VReg, ImmInt, Global, Func };

/**
 * Instruction operand: a virtual register, an integer immediate, a
 * reference to a global, or a reference to a function (fnptr constant).
 */
struct Operand {
    OperandKind kind = OperandKind::None;
    uint32_t index = 0;  ///< vreg / global / function index
    int64_t imm = 0;     ///< ImmInt payload

    static Operand vreg(uint32_t idx)
    {
        return {OperandKind::VReg, idx, 0};
    }
    static Operand immInt(int64_t v)
    {
        return {OperandKind::ImmInt, 0, v};
    }
    static Operand global(uint32_t idx)
    {
        return {OperandKind::Global, idx, 0};
    }
    static Operand func(uint32_t idx)
    {
        return {OperandKind::Func, idx, 0};
    }

    bool isVReg() const { return kind == OperandKind::VReg; }
    bool isImm() const { return kind == OperandKind::ImmInt; }
    bool isGlobal() const { return kind == OperandKind::Global; }
    bool isFunc() const { return kind == OperandKind::Func; }
    bool operator==(const Operand &) const = default;
};

//---------------------------------------------------------------------
// Instructions
//---------------------------------------------------------------------

enum class Opcode : uint8_t {
    // Value production
    ConstI,      ///< dst = imm
    Mov,         ///< dst = src
    Bin,         ///< dst = a <binop> b
    Un,          ///< dst = <unop> a
    Cast,        ///< dst = (type) a
    AddrGlobal,  ///< dst = &global  (carries bounds of the global)
    AddrLocal,   ///< dst = &local   (carries bounds of the local slot)
    Gep,         ///< dst = &a->field[auxA]; auxB = byte offset
    PtrAdd,      ///< dst = a + b * auxA (element size in bytes)
    Load,        ///< dst = *a
    Store,       ///< *a = b
    Call,        ///< dst? = callee(args...)
    CallInd,     ///< dst? = (*a)(); indirect task-style call
    // Control
    Ret,         ///< return a?
    Br,          ///< goto b0
    CondBr,      ///< if (a) goto b0 else goto b1
    // Safety checks (inserted by the safety stage; each carries a flid)
    ChkNull,     ///< fail(flid) if a == null
    ChkUBound,   ///< fail(flid) if a + auxA > end(a)        [FSeq]
    ChkBounds,   ///< fail(flid) if a < base(a) or a+auxA > end(a) [Seq]
    ChkFnPtr,    ///< fail(flid) if fnptr a invalid/null
    ChkWild,     ///< fail(flid) if wild-area tag mismatch at a
    ChkAlign,    ///< fail(flid) if a % auxA != 0 (x86-runtime legacy)
    /**
     * CFI forward-edge label check: fail(flid) unless fnptr `a` is a
     * valid function id whose entry in the CFI label table (the ROM
     * global referenced by args[1]) equals the call site's expected
     * equivalence-class label in auxA. Inserted by the src/cfi/ pass;
     * subsumes ChkFnPtr (null + range) at indirect call sites.
     */
    ChkCfiLabel,
    Abort,       ///< unconditional run-time failure (flid)
    // Concurrency
    AtomicBegin, ///< auxA: 1 = must save+restore IRQ bit, 0 = plain cli
    AtomicEnd,   ///< auxA mirrors the matching AtomicBegin
    // Hardware and scheduling
    HwRead,      ///< dst = io[auxA], width from dst type
    HwWrite,     ///< io[auxA] = a
    Sleep,       ///< enter low-power sleep until an interrupt
    Nop,
};

const char *opcodeName(Opcode op);

enum class BinOp : uint8_t {
    Add, Sub, Mul, DivU, DivS, RemU, RemS,
    And, Or, Xor, Shl, ShrU, ShrS,
    Eq, Ne, LtU, LtS, LeU, LeS, GtU, GtS, GeU, GeS,
};

const char *binOpName(BinOp op);
bool binOpIsComparison(BinOp op);

enum class UnOp : uint8_t { Neg, Not, BNot };

const char *unOpName(UnOp op);

constexpr uint32_t kNoVReg = ~0u;
constexpr uint32_t kNoBlock = ~0u;

/**
 * One TinyCIL instruction. A flat struct (no class hierarchy) so
 * passes can rewrite/copy instructions cheaply.
 */
struct Instr {
    Opcode op = Opcode::Nop;
    uint32_t dst = kNoVReg;   ///< destination vreg, if any
    TypeId type = kInvalidType; ///< result type (or stored/cast type)
    BinOp bop = BinOp::Add;
    UnOp uop = UnOp::Neg;
    std::vector<Operand> args;
    uint32_t b0 = kNoBlock;   ///< branch targets
    uint32_t b1 = kNoBlock;
    uint32_t callee = ~0u;    ///< Call target function index
    uint32_t auxA = 0;        ///< field index / elem size / hw addr / ...
    uint32_t auxB = 0;        ///< byte offset for Gep
    uint32_t flid = 0;        ///< failure location id for checks
    SourceLoc loc;

    bool isTerminator() const
    {
        return op == Opcode::Ret || op == Opcode::Br || op == Opcode::CondBr;
    }
    bool isCheck() const
    {
        switch (op) {
          case Opcode::ChkNull: case Opcode::ChkUBound:
          case Opcode::ChkBounds: case Opcode::ChkFnPtr:
          case Opcode::ChkWild: case Opcode::ChkAlign:
          case Opcode::ChkCfiLabel:
            return true;
          default:
            return false;
        }
    }
    bool hasDst() const { return dst != kNoVReg; }
};

//---------------------------------------------------------------------
// Containers
//---------------------------------------------------------------------

struct BasicBlock {
    uint32_t id = 0;
    std::string name;
    std::vector<Instr> instrs;
};

/** A virtual register: an SSA-ish temporary (may be multiply assigned). */
struct VReg {
    TypeId type = kInvalidType;
    std::string name;
};

/** An addressable stack slot (local whose address is taken, or aggregate). */
struct Local {
    std::string name;
    TypeId type = kInvalidType;
};

/** Function attributes relevant to the TinyOS model and the pipeline. */
struct FuncAttrs {
    bool isTask = false;        ///< run-to-completion task body
    int interruptVector = -1;   ///< >= 0: bound to this IRQ vector
    bool inlineHint = false;
    bool noInline = false;
    bool isRuntime = false;     ///< part of the safety runtime library
    bool isInit = false;        ///< boot-time initializer
    bool usedFromStart = false; ///< entry point the linker must keep
};

struct Function {
    uint32_t id = 0;
    std::string name;
    TypeId retType = kInvalidType;
    std::vector<uint32_t> params;  ///< vreg indices of parameters
    std::vector<VReg> vregs;
    std::vector<Local> locals;
    std::vector<BasicBlock> blocks;
    FuncAttrs attrs;
    SourceLoc loc;
    /** Dead functions keep their id but are skipped everywhere. */
    bool dead = false;

    uint32_t
    addVReg(TypeId t, std::string name = "")
    {
        vregs.push_back({t, std::move(name)});
        return static_cast<uint32_t>(vregs.size() - 1);
    }
    uint32_t
    addLocal(std::string name, TypeId t)
    {
        locals.push_back({std::move(name), t});
        return static_cast<uint32_t>(locals.size() - 1);
    }
    uint32_t
    addBlock(std::string name = "")
    {
        BasicBlock bb;
        bb.id = static_cast<uint32_t>(blocks.size());
        bb.name = std::move(name);
        blocks.push_back(std::move(bb));
        return blocks.back().id;
    }
    BasicBlock &entry() { return blocks.front(); }
};

/** Where a global's bytes live on the device. */
enum class Section : uint8_t { Ram, Rom };

/** Roles a global can play; drives error-message configurations. */
struct GlobalAttrs {
    bool norace = false;       ///< programmer asserted race-free
    bool isString = false;
    bool isErrorString = false; ///< CCured diagnostic text (Fig. 3 configs)
    bool isCheckTag = false;    ///< unique per-check marker string (Fig. 2)
    bool isRuntime = false;
};

struct Global {
    uint32_t id = 0;
    std::string name;
    TypeId type = kInvalidType;
    Section section = Section::Ram;
    std::vector<uint8_t> init;  ///< initial bytes (zero-filled if empty)
    GlobalAttrs attrs;
    SourceLoc loc;
    /**
     * Dead globals are kept in place (ids stay stable for Operands)
     * but are skipped by layout and code generation.
     */
    bool dead = false;
};

/** Memory-mapped hardware register (refactored access target). */
struct HwReg {
    std::string name;
    uint32_t addr = 0;
    uint8_t bits = 8;
};

/** Struct layout entry. Offsets are recomputed on demand because the
 *  safety stage changes pointer field sizes. */
struct StructField {
    std::string name;
    TypeId type = kInvalidType;
};

struct StructType {
    std::string name;
    std::vector<StructField> fields;
};

/**
 * FLID table: maps failure location ids to the uncompressed error
 * information. Lives host-side; the device only stores the 16-bit id.
 */
struct FlidEntry {
    uint32_t flid = 0;
    std::string file;
    uint32_t line = 0;
    std::string checkKind;
    std::string detail;

    bool operator==(const FlidEntry &) const = default;
};

//---------------------------------------------------------------------
// Module
//---------------------------------------------------------------------

/**
 * A whole program. Safe TinyOS is a whole-program toolchain: there is
 * no separate compilation, which is what makes the aggressive
 * optimization feasible (paper §1).
 */
class Module {
  public:
    explicit Module(std::string name = "app") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    TypeTable &types() { return types_; }
    const TypeTable &types() const { return types_; }

    uint32_t
    addStruct(StructType s)
    {
        structs_.push_back(std::move(s));
        return static_cast<uint32_t>(structs_.size() - 1);
    }
    StructType &structAt(uint32_t id) { return structs_.at(id); }
    const StructType &structAt(uint32_t id) const { return structs_.at(id); }
    size_t numStructs() const { return structs_.size(); }
    const std::vector<StructType> &structs() const { return structs_; }

    uint32_t
    addGlobal(Global g)
    {
        g.id = static_cast<uint32_t>(globals_.size());
        globalIndex_[g.name] = g.id;
        globals_.push_back(std::move(g));
        return globals_.back().id;
    }
    Global &globalAt(uint32_t id) { return globals_.at(id); }
    const Global &globalAt(uint32_t id) const { return globals_.at(id); }
    std::vector<Global> &globals() { return globals_; }
    const std::vector<Global> &globals() const { return globals_; }
    const Global *findGlobal(const std::string &name) const;

    uint32_t
    addFunction(Function f)
    {
        f.id = static_cast<uint32_t>(funcs_.size());
        funcIndex_[f.name] = f.id;
        funcs_.push_back(std::move(f));
        return funcs_.back().id;
    }
    Function &funcAt(uint32_t id) { return funcs_.at(id); }
    const Function &funcAt(uint32_t id) const { return funcs_.at(id); }
    std::vector<Function> &funcs() { return funcs_; }
    const std::vector<Function> &funcs() const { return funcs_; }
    Function *findFunc(const std::string &name);
    const Function *findFunc(const std::string &name) const;

    void addHwReg(HwReg r) { hwregs_.push_back(std::move(r)); }
    const std::vector<HwReg> &hwregs() const { return hwregs_; }
    const HwReg *findHwReg(uint32_t addr) const;

    /**
     * Variables the frontend's concurrency analysis found to be
     * accessed non-atomically (the "nesC outputs a list" of §2.2).
     * Global ids.
     */
    std::vector<uint32_t> &racyGlobals() { return racyGlobals_; }
    const std::vector<uint32_t> &racyGlobals() const { return racyGlobals_; }

    std::vector<FlidEntry> &flidTable() { return flidTable_; }
    const std::vector<FlidEntry> &flidTable() const { return flidTable_; }

    //--- layout ------------------------------------------------------

    /** Size in bytes of a value of type t on the 16-bit-pointer targets. */
    uint32_t typeSize(TypeId t) const;
    /**
     * Natural alignment (capped at the 2-byte word size): multi-byte
     * scalars and pointers are word-aligned, like the MSP430 requires
     * and the CCured x86 runtime assumes.
     */
    uint32_t typeAlign(TypeId t) const;
    /** Byte offset of field `idx` inside struct `sid`. */
    uint32_t fieldOffset(uint32_t sid, uint32_t idx) const;
    uint32_t structSize(uint32_t sid) const;
    /** Machine words (16-bit) a pointer of this kind occupies. */
    static uint32_t ptrWords(PtrKind k);

    /** Deep copy (pipeline stages keep pre/post snapshots). */
    Module clone() const { return *this; }

  private:
    std::string name_;
    TypeTable types_;
    std::vector<StructType> structs_;
    std::vector<Global> globals_;
    std::vector<Function> funcs_;
    std::vector<HwReg> hwregs_;
    std::vector<uint32_t> racyGlobals_;
    std::vector<FlidEntry> flidTable_;
    std::unordered_map<std::string, uint32_t> globalIndex_;
    std::unordered_map<std::string, uint32_t> funcIndex_;
};

} // namespace stos::ir

#endif
