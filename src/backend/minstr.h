/**
 * @file
 * Machine-level program representation. A register-based ISA with
 * width-annotated operations; the target's cost model converts each
 * instruction into bytes (code size) and cycles (simulation time).
 * The simulator executes this representation directly.
 */
#ifndef STOS_BACKEND_MINSTR_H
#define STOS_BACKEND_MINSTR_H

#include <cstdint>
#include <string>
#include <vector>

#include "backend/target.h"

namespace stos::backend {

enum class MOp : uint8_t {
    Ldi,    ///< rd = imm
    Mov,    ///< rd = ra
    Add, Sub, Mul, DivU, DivS, RemU, RemS,
    And, Or, Xor, Shl, ShrU, ShrS,
    AddI,   ///< rd = ra + imm
    AndI,   ///< rd = ra & imm
    Neg, Not, BNot,
    Sext,   ///< rd = sign-extend ra from imm bits to w bits
    SetC,   ///< rd = (ra <cond> rb) ? 1 : 0
    CmpBr,  ///< if (ra <cond> rb) goto target
    Jmp,
    Ld,     ///< rd = mem[ra + imm] (width w)
    St,     ///< mem[ra + imm] = rb
    Lea,    ///< rd = address of global `gid` + imm
    Leal,   ///< rd = frame pointer + imm
    Call,   ///< call function `fn`
    CallR,  ///< call through register ra (fnptr id)
    SetArg, ///< outgoing argument slot imm = ra
    GetRet, ///< rd = callee return value
    SetRet, ///< return value = ra
    Ret,
    Reti,
    Enter,  ///< prologue: allocate imm frame bytes
    Leave,  ///< epilogue
    Sei, Cli,
    GetIf,  ///< rd = interrupt-enable flag
    SetIf,  ///< flag = ra
    In,     ///< rd = io[port]
    Out,    ///< io[port] = ra
    Sleep,
    Nop,
    /**
     * CFI shadow stack: push the current function's id onto the
     * shadow region. Emitted immediately before every Call/CallR when
     * the program carries CFI instrumentation.
     */
    SSPush,
    /**
     * CFI shadow stack: compare the shadow top against the caller
     * frame's function id; on mismatch branch to `target` (the
     * return-site fail stub). The pop itself is implicit in Ret (the
     * epilogue unwinds the shadow region with the hardware stack).
     */
    SSChk,
    /**
     * Simulator-internal sentinel: falling off the end of a function
     * halts the machine. Never emitted by the backend; appended by
     * sim::DecodedProgram when it flattens a function's blocks so the
     * threaded core needs no per-instruction bounds check. Costs
     * zero bytes and zero cycles.
     */
    Halt,
    /**
     * Simulator-internal superinstructions. Never emitted by the
     * backend: sim::DecodedProgram's fusion pass rewrites hot
     * two-instruction sequences into these at decode time, at the
     * pair's first slot (the second original instruction stays in
     * place). Each fused opcode performs the two original
     * instructions back to back with the original per-instruction
     * cycle accounting, so fused execution stays byte-identical to
     * the legacy core on every observable counter.
     */
    FCmpBrI,   ///< Ldi rd, imm; CmpBr ra <cond> rd -> target
    FMov2,     ///< Mov rd, ra; Mov rb, aux (second pair in aux)
    FLd2,      ///< Ld rd, [ra+imm]; Ld rb, [ra+aux]
    FSt2,      ///< St [ra+imm], rb; St [ra+aux], rd
    FLea2,     ///< Lea rd, <imm>; Lea rb, <aux> (resolved addresses)
    FLeal2,    ///< Leal rd, fp+imm; Leal rb, fp+aux
    FSetArg2,  ///< SetArg imm, ra; SetArg aux, rb
    FLdiArg,   ///< Ldi rd, imm; SetArg aux, rd
    FSetCI,    ///< Ldi rd, imm; SetC rb = (ra <cond> rd)
    FLdiMov,   ///< Ldi rd, imm; Mov rb, rd
    FLdiAlu,   ///< Ldi rd, imm; <op in aux> rb = ra OP rd
    FAluMov,   ///< <op in aux&0xFF> rd = ra OP rb; Mov (aux>>8), rd
    FMovJmp,   ///< Mov rd, ra; Jmp target (aux; never a wedge)
};

/** Dense opcode count (dispatch-table size for the threaded core). */
inline constexpr size_t kNumMOps =
    static_cast<size_t>(MOp::FMovJmp) + 1;

enum class MCond : uint8_t {
    Eq, Ne, LtU, LtS, LeU, LeS, GtU, GtS, GeU, GeS,
};

struct MInstr {
    MOp op = MOp::Nop;
    uint8_t w = 16;        ///< operation width in bits (8/16/32)
    MCond cond = MCond::Eq;
    uint32_t rd = 0, ra = 0, rb = 0;
    int64_t imm = 0;
    uint32_t target = 0;   ///< block index for branches
    uint32_t fn = 0;       ///< callee for Call
    uint32_t gid = 0;      ///< global for Lea
    uint32_t port = 0;     ///< io address for In/Out
    bool romData = false;  ///< Ld from flash-resident data
    bool isCheck = false;  ///< lowered from a dynamic safety check
    uint32_t flid = 0;     ///< failure id carried to the stub
};

struct MBlock {
    std::vector<MInstr> instrs;
};

struct MFunc {
    uint32_t id = 0;
    std::string name;
    std::vector<MBlock> blocks;
    uint32_t numRegs = 0;
    uint32_t frameBytes = 0;
    int interruptVector = -1;
    bool isTask = false;
};

/** One linked firmware image plus its layout metadata. */
struct MProgram {
    TargetInfo target;
    std::vector<MFunc> funcs;          ///< live functions only
    uint32_t entry = 0;                ///< index into funcs
    std::vector<int> vectorTable;      ///< vector -> funcs index (-1 none)

    /** Data layout (RAM base 0x0100, ROM window above). */
    struct DataItem {
        uint32_t globalId;             ///< id in the source module
        std::string name;
        uint32_t addr = 0;
        uint32_t size = 0;
        bool rom = false;
        std::vector<uint8_t> init;
        bool isCheckTag = false;
        bool isErrorString = false;
    };
    std::vector<DataItem> data;

    uint32_t ramBase = 0x0100;
    uint32_t ramDataEnd = 0x0100;
    uint32_t romDataBase = 0x8000;
    uint32_t romDataEnd = 0x8000;

    /** Find layout info for a module global id; null if dropped. */
    const DataItem *findData(uint32_t globalId) const;

    //--- size accounting -------------------------------------------
    uint32_t instrBytes(const MInstr &in) const;
    uint32_t instrCycles(const MInstr &in) const;
    uint32_t funcBytes(const MFunc &f) const;
    uint32_t codeBytes() const;     ///< all code incl. vectors/startup
    uint32_t ramDataBytes() const;  ///< static data in RAM
    uint32_t romDataBytes() const;  ///< flash-resident data
    uint32_t flashBytes() const { return codeBytes() + romDataBytes(); }

    /**
     * FLID -> trap-kind lookup (index = flid; 0 = memory-safety,
     * 1 = cfi-fnptr, 2 = cfi-ret). Lets the simulator stamp trap-log
     * entries with a distinguishable CFI trap code.
     */
    std::vector<uint8_t> flidKinds;

    /** Surviving unique check-tag strings (Figure 2 methodology). */
    uint32_t survivingCheckTags() const;
    /** Surviving dynamic-check branch instructions. */
    uint32_t survivingCheckBranches() const;
};

/** Trap-kind codes stored in MProgram::flidKinds. */
enum : uint8_t {
    kTrapKindMemory = 0,
    kTrapKindCfiForward = 1,
    kTrapKindCfiReturn = 2,
};

} // namespace stos::backend

#endif
