/**
 * @file
 * Whole-program points-to analysis in the style the paper describes
 * for cXprop (§2.1): field-sensitive in the dataflow (offsets are
 * tracked by the abstract domains), object-granular for aliasing, with
 * both may-alias sets (this analysis) and must-alias resolution
 * (resolveExact, used for strong updates).
 *
 * Memory objects are globals and function locals; int-to-pointer casts
 * produce the Universal object, which aliases everything.
 */
#ifndef STOS_ANALYSIS_POINTSTO_H
#define STOS_ANALYSIS_POINTSTO_H

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "ir/defs.h"
#include "ir/module.h"

namespace stos::analysis {

/** Identifier of an abstract memory object. */
struct MemObj {
    enum Kind : uint8_t { GlobalObj, LocalObj, Universal } kind = Universal;
    uint32_t func = 0;   ///< LocalObj: owning function
    uint32_t index = 0;  ///< global id / local id

    bool operator<(const MemObj &o) const
    {
        if (kind != o.kind)
            return kind < o.kind;
        if (func != o.func)
            return func < o.func;
        return index < o.index;
    }
    bool operator==(const MemObj &) const = default;

    static MemObj global(uint32_t id) { return {GlobalObj, 0, id}; }
    static MemObj local(uint32_t fn, uint32_t id)
    {
        return {LocalObj, fn, id};
    }
    static MemObj universal() { return {Universal, 0, 0}; }
};

using PtsSet = std::set<MemObj>;

/**
 * Andersen-style inclusion-based analysis over the whole module.
 * Queries answer both "what may this vreg point to" and "may these
 * two pointers alias".
 */
class PointsTo {
  public:
    explicit PointsTo(const ir::Module &m);

    /** May-points-to set of a vreg in a function. */
    const PtsSet &vregPts(uint32_t fn, uint32_t vreg) const;
    /** May-points-to set of pointers stored inside an object. */
    const PtsSet &memPts(const MemObj &obj) const;

    bool mayAlias(uint32_t fnA, uint32_t vregA, uint32_t fnB,
                  uint32_t vregB) const;

    /**
     * Must-alias: if the vreg definitely points at one specific object
     * (a single-definition chain through Mov/Cast/Gep/PtrAdd to an
     * Addr), return it. Enables strong updates in the dataflow. The
     * chains are those of the module as constructed; rewrites that
     * define no vreg (inserted checks, atomics) leave them valid.
     */
    std::optional<MemObj> resolveExact(uint32_t fn, uint32_t vreg) const;

    /** All objects a Load/Store through this vreg may touch. */
    PtsSet accessTargets(uint32_t fn, uint32_t vreg) const;

    /** True if the set contains Universal (unknown pointer). */
    static bool hasUniversal(const PtsSet &s);

  private:
    void build();
    void addEdge(uint32_t fromKey, uint32_t toKey);
    uint32_t vregKey(uint32_t fn, uint32_t vreg) const;
    uint32_t memKey(const MemObj &obj) const;

    const ir::Module &mod_;
    // Node space: [vregs of all functions][objects].
    std::vector<uint32_t> funcVregBase_;
    std::vector<MemObj> objects_;
    std::vector<uint32_t> objKeyBase_;  // parallel lookup
    uint32_t numKeys_ = 0;

    std::vector<PtsSet> pts_;
    std::vector<std::vector<uint32_t>> succ_;  ///< inclusion edges
    std::vector<ir::Defs> defs_;  ///< per function; empty when dead
};

} // namespace stos::analysis

#endif
