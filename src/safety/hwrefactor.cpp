/**
 * @file
 * Hardware access refactoring implementation.
 */
#include "safety/hwrefactor.h"

#include <optional>

#include "ir/defs.h"

namespace stos::safety {

using namespace stos::ir;

namespace {

/**
 * If the vreg is (transitively) a constant integer cast to a pointer,
 * return the address.
 */
std::optional<uint32_t>
constantAddress(const Defs &defs, uint32_t vreg)
{
    const Def *d = defs.chase(vreg, {Opcode::Cast, Opcode::Mov});
    if (!d || !d->a.isImm() ||
        (d->op != Opcode::ConstI && d->op != Opcode::Cast &&
         d->op != Opcode::Mov)) {
        return std::nullopt;
    }
    return static_cast<uint32_t>(d->a.imm) & 0xFFFF;
}

} // namespace

uint32_t
refactorHardwareAccesses(Module &m)
{
    uint32_t rewritten = 0;
    for (auto &f : m.funcs()) {
        if (f.dead)
            continue;
        // Rewriting a Load into an HwRead keeps its destination, so
        // the table stays exact across the rewrites below.
        const Defs defs(f);
        for (auto &bb : f.blocks) {
            for (auto &in : bb.instrs) {
                if (in.op != Opcode::Load && in.op != Opcode::Store)
                    continue;
                if (!in.args[0].isVReg())
                    continue;
                auto addr = constantAddress(defs, in.args[0].index);
                if (!addr)
                    continue;
                const HwReg *reg = m.findHwReg(*addr);
                if (!reg)
                    continue;
                // Width must match the declared register.
                uint32_t accessBits = m.typeSize(in.type) * 8;
                if (accessBits != reg->bits)
                    continue;
                if (in.op == Opcode::Load) {
                    in.op = Opcode::HwRead;
                    in.args.clear();
                    in.auxA = *addr;
                } else {
                    in.op = Opcode::HwWrite;
                    in.args.erase(in.args.begin());  // drop the pointer
                    in.auxA = *addr;
                }
                ++rewritten;
            }
        }
    }
    return rewritten;
}

} // namespace stos::safety
