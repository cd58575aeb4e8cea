/**
 * @file
 * Configuration and reporting types for the safety (CCured-analogue)
 * stage. The error-message modes map one-to-one onto the bars of the
 * paper's Figure 3: verbose strings in RAM, verbose strings moved to
 * ROM, terse strings, and FLID-compressed (no device-side strings).
 */
#ifndef STOS_SAFETY_CONFIG_H
#define STOS_SAFETY_CONFIG_H

#include <cstdint>
#include <map>
#include <string>

namespace stos::safety {

enum class ErrorMode : uint8_t {
    VerboseRam,  ///< full file:line:kind strings in SRAM (CCured default)
    VerboseRom,  ///< same strings placed in flash
    Terse,       ///< short codes; poor diagnostics (CCured --terse)
    Flid,        ///< 16-bit failure location ids + host-side table
};

struct SafetyConfig {
    ErrorMode errorMode = ErrorMode::Flid;
    /**
     * CCured's internal check optimizer: skip statically-safe
     * accesses entirely and drop locally-redundant checks.
     */
    bool ccuredOptimizer = true;
    /**
     * Use the unmodified ("naive") runtime port: OS-dependency and GC
     * support retained, x86 alignment checks emitted. Reproduces the
     * §2.3 before-trimming footprint.
     */
    bool naiveRuntime = false;
    /**
     * Attach a unique tag string to every check (Figure 2
     * methodology): a check survives iff its tag string survives
     * link-time DCE.
     */
    bool insertCheckTags = false;
    /**
     * Emit CCured memory-safety checks (pointer-kind inference plus
     * dynamic bounds/null/wild instrumentation). Off for the CfiOnly
     * column, which measures control-flow integrity in isolation.
     */
    bool memoryChecks = true;
    /**
     * Control-flow integrity: label-based forward-edge checks on
     * indirect calls (src/cfi/) plus a backend shadow-stack return
     * check. Subsumes ChkFnPtr at instrumented call sites.
     */
    bool cfi = false;
};

/** What the safety stage did, for tests and benchmarks. */
struct SafetyReport {
    uint32_t checksInserted = 0;
    std::map<std::string, uint32_t> checksByKind;
    uint32_t staticallySafeAccesses = 0;  ///< accesses needing no check
    uint32_t redundantChecksDropped = 0;  ///< CCured-optimizer removals
    uint32_t locksInserted = 0;
    uint32_t racyGlobals = 0;
    std::map<std::string, uint32_t> kindHistogram;  ///< ptr decls by kind
    uint32_t cfiClasses = 0;       ///< forward-edge equivalence classes
    uint32_t cfiForwardChecks = 0; ///< chk_cfi_label instrs inserted
    uint32_t cfiReturnSites = 0;   ///< rets stamped for shadow-stack check

    bool operator==(const SafetyReport &) const = default;
};

} // namespace stos::safety

#endif
