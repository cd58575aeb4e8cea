/**
 * @file
 * DecodedProgram construction. The decode mirrors, instruction for
 * instruction, what Machine's legacy interpreter derives dynamically;
 * the equivalence suite (tests/test_sim_equivalence.cpp) holds every
 * execution path identical on every counter the evaluation reports.
 * The fusion pass at the bottom then rewrites that stream in place:
 * greedy pairwise superinstruction substitution inside basic blocks,
 * with the pair's second instruction kept in place so fused execution
 * can stop mid-pair at an event horizon.
 */
#include "sim/decoded.h"

#include <algorithm>
#include <stdexcept>

namespace stos::sim {

using namespace stos::backend;

DecodedProgram::DecodedProgram(const MProgram &prog) : prog_(&prog)
{
    decode();
}

DecodedProgram::DecodedProgram(std::shared_ptr<const MProgram> prog)
    : prog_(prog.get()), owner_(std::move(prog))
{
    decode();
}

const MProgram::DataItem *
DecodedProgram::findDataByName(const std::string &name) const
{
    auto it = dataByName_.find(name);
    return it == dataByName_.end() ? nullptr : it->second;
}

namespace {

/**
 * Store an immediate into the compact encoding: inline when it fits
 * in 32 bits, otherwise via the function's cold side table.
 */
void
setImm(DFunc &df, DInstr &d, int64_t imm)
{
    if (imm >= INT32_MIN && imm <= INT32_MAX) {
        d.imm = static_cast<int32_t>(imm);
        return;
    }
    d.flags |= DInstr::kWideImm;
    d.imm = static_cast<int32_t>(df.wideImms.size());
    df.wideImms.push_back(imm);
}

/** Copy a's immediate encoding (value or side-table index) into d. */
void
copyImm(DInstr &d, const DInstr &a)
{
    d.imm = a.imm;
    d.flags |= a.flags & DInstr::kWideImm;
}

uint16_t
narrowReg(uint32_t r)
{
    if (r > 0xFFFF)
        throw std::runtime_error(
            "decode: register operand exceeds 16-bit encoding");
    return static_cast<uint16_t>(r);
}

/**
 * Binary ALU opcodes admitted as a fused sub-instruction (FLdiAlu /
 * FAluMov). Division and remainder are excluded: their handlers carry
 * the total-arithmetic special cases and never dominate a hot loop.
 */
bool
fusableAlu(MOp op)
{
    switch (op) {
      case MOp::Add: case MOp::Sub: case MOp::Mul:
      case MOp::And: case MOp::Or: case MOp::Xor:
      case MOp::Shl: case MOp::ShrU: case MOp::ShrS:
        return true;
      default:
        return false;
    }
}

} // namespace

void
DecodedProgram::decode()
{
    const MProgram &p = *prog_;

    // Function id -> index, dense (module ids are small integers).
    uint32_t maxId = 0;
    for (const auto &f : p.funcs)
        maxId = std::max(maxId, f.id);
    funcIdxById_.assign(static_cast<size_t>(maxId) + 1, -1);
    for (uint32_t i = 0; i < p.funcs.size(); ++i) {
        funcIdxById_[p.funcs[i].id] = static_cast<int32_t>(i);
        if (p.funcs[i].name == "__st_fail" ||
            p.funcs[i].name == "__st_fail_msg") {
            if (failFnIdx_ == ~0u || p.funcs[i].name == "__st_fail")
                failFnIdx_ = i;
        }
    }

    vectors_.assign(p.vectorTable.begin(), p.vectorTable.end());

    // Static data: name lookup table + the initialized memory image a
    // Machine starts from (one memcpy per mote instead of a rebuild).
    memInit_.assign(0x10000, 0);
    for (const auto &d : p.data) {
        dataByName_[d.name] = &d;
        for (size_t i = 0; i < d.init.size() && i < d.size; ++i)
            memInit_[d.addr + i] = d.init[i];
    }

    funcs_.resize(p.funcs.size());
    for (size_t fi = 0; fi < p.funcs.size(); ++fi) {
        const MFunc &f = p.funcs[fi];
        DFunc &df = funcs_[fi];
        df.argRegs = std::max<uint32_t>(f.numRegs, 1);
        df.numRegs = df.argRegs;

        // Block offsets first (branches may target forward blocks).
        df.blockStart.reserve(f.blocks.size());
        uint32_t off = 0;
        for (const auto &bb : f.blocks) {
            df.blockStart.push_back(off);
            off += static_cast<uint32_t>(bb.instrs.size());
        }

        df.instrs.reserve(off + 1);
        for (size_t bi = 0; bi < f.blocks.size(); ++bi) {
            const MBlock &bb = f.blocks[bi];
            for (const MInstr &in : bb.instrs) {
                DInstr d;
                d.op = in.op;
                d.w = in.w;
                d.cond = in.cond;
                d.rd = narrowReg(in.rd);
                d.ra = narrowReg(in.ra);
                d.rb = narrowReg(in.rb);
                setImm(df, d, in.imm);
                d.cycles = static_cast<uint16_t>(p.instrCycles(in));
                switch (in.op) {
                  case MOp::CmpBr:
                  case MOp::SSChk:  // branches to the failure stub
                    d.aux = df.blockStart[in.target];
                    break;
                  case MOp::Jmp:
                    d.aux = df.blockStart[in.target];
                    // A single-instruction block jumping to itself is
                    // the failure handler's final state: wedged.
                    if (in.target == bi && bb.instrs.size() == 1)
                        d.flags |= DInstr::kWedge;
                    break;
                  case MOp::Call: {
                    int32_t idx = funcIndexForId(in.fn);
                    d.aux = static_cast<uint32_t>(idx + 1);
                    if (idx >= 0 &&
                        static_cast<uint32_t>(idx) == failFnIdx_)
                        d.flags |= DInstr::kCallsFail;
                    break;
                  }
                  case MOp::Lea: {
                    // Resolved absolute address, stored inline (the
                    // 16-bit address space always fits).
                    const MProgram::DataItem *di = p.findData(in.gid);
                    d.flags &= static_cast<uint8_t>(~DInstr::kWideImm);
                    d.imm = di ? static_cast<int32_t>(
                                     (di->addr + in.imm) & 0xFFFF)
                               : 0;
                    break;
                  }
                  case MOp::In:
                  case MOp::Out:
                    d.aux = in.port;
                    break;
                  default:
                    break;
                }
                df.instrs.push_back(d);
            }
        }

        // Falling off the end of a function halts the machine (the
        // legacy core detects this when the block index runs out).
        DInstr halt;
        halt.op = MOp::Halt;
        halt.cycles = 0;
        df.instrs.push_back(halt);

        // Cover every named operand so execution needs no per-access
        // register-file bounds check (reads of never-written registers
        // still yield 0, as the legacy core synthesizes).
        for (const DInstr &d : df.instrs) {
            uint32_t hi =
                std::max<uint32_t>(d.rd, std::max(d.ra, d.rb)) + 1;
            df.numRegs = std::max(df.numRegs, hi);
        }

        fuse(df);
    }
}

/**
 * Superinstruction fusion, in place on DFunc::instrs. Greedy
 * left-to-right inside each basic block: a fusable pair's head slot
 * is rewritten to the fused opcode and the scan resumes past the
 * pair. Rewriting in place is safe because the scan reads slots i and
 * i+1 before it writes slot i, writes only slot i, and then moves on
 * to i+2, so it never reads a slot it has already rewritten. Only the
 * head of a block can be a branch target (flattening preserves block
 * granularity), so a pair that lies entirely inside one block is
 * never entered at its second slot — the second original instruction
 * stays in the stream purely as the mid-pair continuation for
 * event-horizon splits.
 *
 * Every first sub-instruction here is pure (registers/memory/argBuf
 * only — no control flow, machine flags, I/O, or frame changes), so
 * the only mid-pair condition a superinstruction must re-check is the
 * event horizon; that check is built into the threaded handlers.
 */
void
DecodedProgram::fuse(DFunc &df)
{
    for (size_t bi = 0; bi < df.blockStart.size(); ++bi) {
        size_t lo = df.blockStart[bi];
        size_t hi = bi + 1 < df.blockStart.size()
                        ? df.blockStart[bi + 1]
                        : df.instrs.size() - 1;  // exclude Halt sentinel
        for (size_t i = lo; i + 1 < hi;) {
            const DInstr &a = df.instrs[i];
            const DInstr &b = df.instrs[i + 1];
            // Patterns below fold the pair's immediates into one
            // encoding slot; a side-table immediate (never produced
            // for offsets/slots/addresses in practice) is not
            // foldable, so such pairs simply stay unfused.
            const bool aNarrow = !(a.flags & DInstr::kWideImm);
            const bool bNarrow = !(b.flags & DInstr::kWideImm);
            DInstr fz;
            fz.cycles = a.cycles;
            fz.cycles2 = b.cycles;
            fz.w = b.w;
            fz.w2 = a.w;
            bool fused = true;
            if (a.op == MOp::Ldi && b.op == MOp::CmpBr &&
                b.rb == a.rd) {
                // Materialized immediate feeding a compare+branch.
                fz.op = MOp::FCmpBrI;
                fz.rd = a.rd;
                fz.ra = b.ra;
                fz.cond = b.cond;
                fz.aux = b.aux;  // branch target
                copyImm(fz, a);
            } else if (a.op == MOp::Mov && b.op == MOp::Mov) {
                // Fat-pointer word copies.
                fz.op = MOp::FMov2;
                fz.rd = a.rd;
                fz.ra = a.ra;
                fz.rb = b.rd;
                fz.aux = b.ra;
            } else if (a.op == MOp::Ld && b.op == MOp::Ld &&
                       b.ra == a.ra && bNarrow) {
                // Fat-pointer loads off one base register.
                fz.op = MOp::FLd2;
                fz.rd = a.rd;
                fz.ra = a.ra;
                fz.rb = b.rd;
                fz.aux = static_cast<uint32_t>(b.imm);
                copyImm(fz, a);
            } else if (a.op == MOp::St && b.op == MOp::St &&
                       b.ra == a.ra && bNarrow) {
                // Fat-pointer stores off one base register.
                fz.op = MOp::FSt2;
                fz.ra = a.ra;
                fz.rb = a.rb;
                fz.rd = b.rb;
                fz.aux = static_cast<uint32_t>(b.imm);
                copyImm(fz, a);
            } else if (a.op == MOp::Lea && b.op == MOp::Lea && aNarrow &&
                       bNarrow) {
                // Fat-pointer cur/base/end address materialization
                // (both already resolved to absolute addresses).
                fz.op = MOp::FLea2;
                fz.rd = a.rd;
                fz.rb = b.rd;
                fz.aux = static_cast<uint32_t>(b.imm);
                fz.imm = a.imm;
            } else if (a.op == MOp::Leal && b.op == MOp::Leal &&
                       aNarrow && bNarrow) {
                fz.op = MOp::FLeal2;
                fz.rd = a.rd;
                fz.rb = b.rd;
                fz.aux = static_cast<uint32_t>(b.imm);
                fz.imm = a.imm;
            } else if (a.op == MOp::SetArg && b.op == MOp::SetArg &&
                       bNarrow) {
                // Push-argument runs before a call.
                fz.op = MOp::FSetArg2;
                fz.ra = a.ra;
                fz.rb = b.ra;
                fz.aux = static_cast<uint32_t>(b.imm);
                copyImm(fz, a);
            } else if (a.op == MOp::Ldi && b.op == MOp::SetArg &&
                       b.ra == a.rd && bNarrow) {
                // Materialized immediate argument.
                fz.op = MOp::FLdiArg;
                fz.rd = a.rd;
                fz.aux = static_cast<uint32_t>(b.imm);
                copyImm(fz, a);
            } else if (a.op == MOp::Ldi && b.op == MOp::SetC &&
                       b.rb == a.rd) {
                // Compare against a materialized immediate.
                fz.op = MOp::FSetCI;
                fz.rd = a.rd;
                fz.ra = b.ra;
                fz.rb = b.rd;
                fz.cond = b.cond;
                copyImm(fz, a);
            } else if (a.op == MOp::Ldi && b.op == MOp::Mov &&
                       b.ra == a.rd) {
                // Materialized immediate copied into a variable slot.
                fz.op = MOp::FLdiMov;
                fz.rd = a.rd;
                fz.rb = b.rd;
                copyImm(fz, a);
            } else if (a.op == MOp::Ldi && fusableAlu(b.op) &&
                       b.rb == a.rd) {
                // Materialized immediate as an ALU's second operand
                // (the `var OP const` shape; second opcode in aux).
                fz.op = MOp::FLdiAlu;
                fz.rd = a.rd;
                fz.ra = b.ra;
                fz.rb = b.rd;
                fz.aux = static_cast<uint32_t>(b.op);
                copyImm(fz, a);
            } else if (fusableAlu(a.op) && b.op == MOp::Mov &&
                       b.ra == a.rd) {
                // Compute into a temp, then copy to the variable slot
                // (ALU opcode in aux's low byte, Mov dest above it).
                fz.op = MOp::FAluMov;
                fz.rd = a.rd;
                fz.ra = a.ra;
                fz.rb = a.rb;
                fz.aux = (static_cast<uint32_t>(b.rd) << 8) |
                         static_cast<uint32_t>(a.op);
            } else if (a.op == MOp::Mov && b.op == MOp::Jmp &&
                       !(b.flags & DInstr::kWedge)) {
                // Copy followed by an unconditional block exit.
                fz.op = MOp::FMovJmp;
                fz.rd = a.rd;
                fz.ra = a.ra;
                fz.aux = b.aux;  // branch target
            } else {
                fused = false;
            }
            if (fused) {
                df.instrs[i] = fz;
                ++fusedPairs_;
                i += 2;
            } else {
                ++i;
            }
        }
    }
}

} // namespace stos::sim
