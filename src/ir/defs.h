/**
 * @file
 * Single definitions: the one table the IR's def-chain walks read.
 * A vreg is resolved statically only through its one definition --
 * none or several and the walk stops. Points-to's must-alias query,
 * CCured's static access resolution, pointer-kind inference, the
 * hardware-access refactoring, the GCC model's easy null-check
 * elimination and instruction selection's ROM test all follow a
 * pointer back to its root this way.
 *
 * The table is built once per function and copies the fields a walk
 * reads out of each definition, so it keeps answering while the
 * function's block vectors are rewritten (checks inserted, checks
 * removed, instructions moved) under it.
 */
#ifndef STOS_IR_DEFS_H
#define STOS_IR_DEFS_H

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "ir/module.h"

namespace stos::ir {

/** The fields of a definition that def-chain walks read. */
struct Def {
    Opcode op = Opcode::Nop;
    Operand a;          ///< args[0], or a None operand
    Operand b;          ///< args[1], or a None operand
    uint32_t auxA = 0;
    uint32_t auxB = 0;
};

/** Which vregs of one function have exactly one definition. */
class Defs {
  public:
    Defs() = default;
    explicit Defs(const Function &f);

    /** v's only definition; null when v has none or several. */
    const Def *single(uint32_t v) const;

    /**
     * Follow single definitions from v while each one's op is in
     * `through` and its args[0] is a vreg. Returns the definition the
     * chase stopped at, or null when it reached a vreg without a
     * single definition or went round a cycle.
     */
    const Def *chase(uint32_t v, std::initializer_list<Opcode> through) const;

  private:
    std::vector<Def> def_;
    std::vector<uint8_t> count_;  ///< 0, 1, or 2 for "several"
};

} // namespace stos::ir

#endif
