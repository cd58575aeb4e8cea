/**
 * @file
 * Single-definition table implementation.
 */
#include "ir/defs.h"

#include <algorithm>

namespace stos::ir {

Defs::Defs(const Function &f)
    : def_(f.vregs.size()), count_(f.vregs.size(), 0)
{
    for (const auto &bb : f.blocks) {
        for (const auto &in : bb.instrs) {
            if (!in.hasDst() || in.dst >= def_.size())
                continue;
            if (count_[in.dst] < 2)
                ++count_[in.dst];
            Def &d = def_[in.dst];
            d.op = in.op;
            d.a = !in.args.empty() ? in.args[0] : Operand{};
            d.b = in.args.size() > 1 ? in.args[1] : Operand{};
            d.auxA = in.auxA;
            d.auxB = in.auxB;
        }
    }
}

const Def *
Defs::single(uint32_t v) const
{
    return v < count_.size() && count_[v] == 1 ? &def_[v] : nullptr;
}

const Def *
Defs::chase(uint32_t v, std::initializer_list<Opcode> through) const
{
    // An acyclic chain visits each vreg at most once.
    for (size_t step = 0; step <= def_.size(); ++step) {
        const Def *d = single(v);
        if (!d || !d->a.isVReg() ||
            std::find(through.begin(), through.end(), d->op) ==
                through.end()) {
            return d;
        }
        v = d->a.index;
    }
    return nullptr;
}

} // namespace stos::ir
