/**
 * @file
 * Grammar-driven differential fuzzing for the whole stack. Three
 * pieces:
 *
 *  - generateProgram(): a seeded, fully deterministic TinyC program
 *    generator whose grammar mirrors what the frontend accepts —
 *    pointers, arrays, structs, struct copies, pointer-returning
 *    functions, fnptr dispatch, atomics, for/while/ternary/modulo,
 *    compound assignment, ++/--, sizeof, casts, short-circuit
 *    operators, rom and string globals. Generated programs are
 *    memory-safe and terminating by construction, so every build mode
 *    (unsafe, safe, safe+optimized) must agree on observable
 *    behaviour.
 *
 *  - checkProgram() / checkBatch(): the differential oracles. Per
 *    program: IR interpreter vs machine simulator, safe vs unsafe,
 *    Legacy vs Threaded core (oracles 1-3). Per corpus, via the
 *    Experiment facade: memoized-parallel vs cold-serial builds and
 *    sims, and cold vs cached byte-identity (oracles 4-5).
 *
 *  - minimize(): a delta-debugging (ddmin) line minimizer that
 *    shrinks a diverging program while a caller-supplied predicate
 *    keeps failing. Minimized crashers live under tests/crashers/.
 */
#ifndef STOS_FUZZ_FUZZ_H
#define STOS_FUZZ_FUZZ_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace stos::fuzz {

/** splitmix64: tiny, high-quality, and fully deterministic. */
class Rng {
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n must be nonzero. */
    uint32_t
    range(uint32_t n)
    {
        return static_cast<uint32_t>(next() % n);
    }

    /** True with probability pct/100. */
    bool
    chance(uint32_t pct)
    {
        return range(100) < pct;
    }

  private:
    uint64_t state_;
};

struct GenOptions {
    /** Statement budget for main (helpers get a fraction). */
    uint32_t mainStatements = 20;
    uint32_t maxHelpers = 4;
    uint32_t maxStructs = 2;
    uint32_t maxGlobals = 10;
};

/**
 * Generate one TinyC program from `seed`. Same seed (and options) =>
 * byte-identical source, on any host. The program compiles cleanly,
 * passes the IR verifier, terminates, touches no device state other
 * than UART/LEDs, and is memory-safe by construction.
 */
std::string generateProgram(uint64_t seed, const GenOptions &opts = {});

/**
 * Like generateProgram(), but the first statement of main is a
 * deliberately out-of-bounds array access whose index flows through a
 * RAM global (so only the dynamic safety check can catch it). Used to
 * fuzz safety-check *placement*: under every safe build the access
 * must trap, identically, on every engine.
 */
std::string generateOobProgram(uint64_t seed,
                               const GenOptions &opts = {});

/** A divergence between two executions that must agree. */
struct Divergence {
    std::string oracle;  ///< which oracle fired ("" = none)
    std::string detail;
    explicit operator bool() const { return !oracle.empty(); }
};

/**
 * Per-program oracles: compile `src` in four modes (unsafe, safe,
 * safe+cxprop, unsafe+cxprop), run each under the IR interpreter and
 * both simulator cores, and require every execution to terminate
 * normally with the same UART stream as the unsafe interpreter
 * reference. Returns the first divergence, or an empty one.
 */
Divergence checkProgram(const std::string &src);

/**
 * Safety-check placement oracle for generateOobProgram() output:
 * build safe and safe+cxprop, run each under the IR interpreter and
 * both simulator cores, and require every execution to trap a
 * memory-safety check with one common FLID (and the memory trap
 * kind). A safe engine that runs to completion, or engines that
 * disagree on which check fired, is a divergence.
 */
Divergence checkOobProgram(const std::string &src);

/**
 * Corpus-level oracles via the Experiment facade: build + simulate
 * every (name, source) app over {Baseline, SafeFlid,
 * SafeFlidInlineCxprop} with the memoized parallel stage graph, then
 * (a) re-run against the warm cache and require byte-identical
 * reports, and (b) run the cold serial/legacy reference and require
 * cell-for-cell equivalence. Sources must already compile.
 */
Divergence
checkBatch(const std::vector<std::pair<std::string, std::string>> &apps,
           unsigned jobs = 0);

/**
 * ddmin-style line minimizer: repeatedly deletes line chunks of
 * shrinking size while `fails` keeps returning true on the candidate.
 * `fails` must return true for `src` itself; candidates that do not
 * compile simply fail the predicate and are skipped.
 */
std::string
minimize(const std::string &src,
         const std::function<bool(const std::string &)> &fails);

} // namespace stos::fuzz

#endif
