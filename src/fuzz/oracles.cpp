/**
 * @file
 * The differential oracles. checkProgram() takes one TinyC source and
 * cross-checks every build mode against every execution engine;
 * checkBatch() feeds a whole corpus through the Experiment facade and
 * cross-checks the memoized parallel pipeline against the cold serial
 * reference and against its own warm-cache rerun. Any disagreement is
 * a bug in the stack, never in the generated program (which is
 * correct by construction).
 */
#include "fuzz/fuzz.h"

#include <sstream>

#include "backend/backend.h"
#include "core/experiment.h"
#include "core/stagecache.h"
#include "frontend/frontend.h"
#include "ir/interp.h"
#include "ir/verifier.h"
#include "opt/cxprop.h"
#include "safety/ccured.h"
#include "sim/machine.h"
#include "support/devmap.h"
#include "tinyos/tinyos.h"

namespace stos::fuzz {
namespace {

struct RunOutcome {
    bool ok = false;
    std::string error;
    std::string uart;
};

/** Execute under the IR reference interpreter. */
RunOutcome
runInterp(ir::Module &m)
{
    ir::HwBus bus;
    ir::InterpOptions iopts;
    iopts.stepLimit = 50'000'000;
    ir::Interp interp(m, &bus, iopts);
    auto r = interp.run("main");
    RunOutcome o;
    if (r.reason != ir::StopReason::Returned) {
        o.error = "interpreter stopped abnormally: " + r.detail;
        return o;
    }
    for (const auto &w : bus.writeLog())
        if (w.addr == dev::kRegUartData)
            o.uart.push_back(static_cast<char>(w.value));
    o.ok = true;
    return o;
}

/** Execute a firmware image on one simulator core. */
RunOutcome
runMachine(const backend::MProgram &img, sim::ExecMode mode)
{
    sim::Machine mote(img, 1, mode);
    mote.boot();
    mote.runUntilCycle(100'000'000);
    RunOutcome o;
    if (!mote.halted()) {
        o.error = "machine did not halt within the cycle budget";
        return o;
    }
    if (mote.wedged()) {
        // Attach the bounded trap log: which checks fired, when, and
        // in which function — far more to go on than one FLID.
        o.error = "machine wedged in a failure handler";
        for (const auto &t : mote.trapLog()) {
            o.error += " [flid=" + std::to_string(t.flid) +
                       " cycle=" + std::to_string(t.cycle) +
                       " fn=" + std::to_string(t.pc) + "]";
        }
        return o;
    }
    o.uart = mote.devices().uartLog();
    o.ok = true;
    return o;
}

std::string
joinErrors(const std::vector<std::string> &errs)
{
    std::string out;
    for (const auto &e : errs) {
        if (!out.empty())
            out += "; ";
        out += e;
    }
    return out;
}

enum class Mode { Unsafe, Safe, SafeOpt, UnsafeOpt };

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Unsafe: return "unsafe";
      case Mode::Safe: return "safe";
      case Mode::SafeOpt: return "safe+cxprop";
      case Mode::UnsafeOpt: return "unsafe+cxprop";
    }
    return "?";
}

/** Printable-ish rendering of a UART stream for divergence reports. */
std::string
renderUart(const std::string &s)
{
    std::ostringstream os;
    for (unsigned char c : s) {
        if (c >= 32 && c < 127)
            os << c;
        else
            os << "\\x" << "0123456789abcdef"[c >> 4]
               << "0123456789abcdef"[c & 15];
    }
    return os.str();
}

} // namespace

namespace {

Divergence
checkProgramImpl(const std::string &src)
{
    // One frontend pass; the SourceManager must outlive applySafety
    // (FLID assignment reads source locations from it).
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    ir::Module base = frontend::compileTinyC(
        {{"lib.tc", tinyos::libSource()}, {"fuzz.tc", src}}, diags, sm,
        "fuzz");
    if (diags.hasErrors())
        return {"compile", diags.dump()};
    if (auto errs = ir::verifyModule(base); !errs.empty())
        return {"verify", joinErrors(errs)};

    std::string refUart;
    bool haveRef = false;

    for (Mode mode : {Mode::Unsafe, Mode::Safe, Mode::SafeOpt,
                      Mode::UnsafeOpt}) {
        ir::Module m = base.clone();
        if (mode == Mode::Safe || mode == Mode::SafeOpt) {
            safety::SafetyConfig scfg;
            safety::applySafety(m, scfg, &sm);
        }
        if (mode == Mode::SafeOpt || mode == Mode::UnsafeOpt) {
            opt::CxpropOptions copts;
            copts.inlineFirst = true;
            opt::runCxprop(m, copts);
        }
        if (auto errs = ir::verifyModule(m); !errs.empty())
            return {std::string("verify/") + modeName(mode),
                    joinErrors(errs)};

        // Oracle 1 (interp vs machine) + oracle 2 (safe vs unsafe)
        // + oracle 3 (Legacy vs Threaded core): every
        // (mode, engine) execution must match the unsafe
        // interpreter reference.
        ir::Module forInterp = m.clone();
        RunOutcome iOut = runInterp(forInterp);
        if (!iOut.ok)
            return {std::string("run/") + modeName(mode) + "/interp",
                    iOut.error};
        if (!haveRef) {
            refUart = iOut.uart;
            haveRef = true;
        } else if (iOut.uart != refUart) {
            return {std::string("uart/") + modeName(mode) + "/interp",
                    "got \"" + renderUart(iOut.uart) +
                        "\" want \"" + renderUart(refUart) + "\""};
        }

        backend::MProgram img =
            backend::compileToTarget(m, backend::TargetInfo::mica2());
        for (sim::ExecMode em :
             {sim::ExecMode::Legacy, sim::ExecMode::Threaded}) {
            const char *emName =
                em == sim::ExecMode::Legacy ? "legacy" : "threaded";
            RunOutcome mOut = runMachine(img, em);
            if (!mOut.ok)
                return {std::string("run/") + modeName(mode) + "/" +
                            emName,
                        mOut.error};
            if (mOut.uart != refUart)
                return {std::string("uart/") + modeName(mode) + "/" +
                            emName,
                        "got \"" + renderUart(mOut.uart) +
                            "\" want \"" + renderUart(refUart) + "\""};
        }
    }
    return {};
}

} // namespace

namespace {

/** One safe-engine execution that is *expected* to trap. */
struct TrapOutcome {
    bool trapped = false;
    uint32_t flid = 0;
    uint8_t kind = 0;
    std::string error;
};

TrapOutcome
runMachineExpectTrap(const backend::MProgram &img, sim::ExecMode mode)
{
    sim::Machine mote(img, 1, mode);
    mote.boot();
    mote.runUntilCycle(100'000'000);
    TrapOutcome o;
    if (!mote.wedged()) {
        o.error = mote.halted()
                      ? "ran to completion without trapping"
                      : "did not reach the trap within the budget";
        return o;
    }
    o.trapped = true;
    o.flid = mote.failedFlid();
    if (!mote.trapLog().empty())
        o.kind = mote.trapLog().front().kind;
    return o;
}

Divergence
checkOobProgramImpl(const std::string &src)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    ir::Module base = frontend::compileTinyC(
        {{"lib.tc", tinyos::libSource()}, {"fuzz.tc", src}}, diags, sm,
        "fuzz");
    if (diags.hasErrors())
        return {"oob/compile", diags.dump()};
    if (auto errs = ir::verifyModule(base); !errs.empty())
        return {"oob/verify", joinErrors(errs)};

    uint32_t refFlid = 0;
    bool haveRef = false;
    for (Mode mode : {Mode::Safe, Mode::SafeOpt}) {
        ir::Module m = base.clone();
        safety::SafetyConfig scfg;
        safety::applySafety(m, scfg, &sm);
        if (mode == Mode::SafeOpt) {
            opt::CxpropOptions copts;
            copts.inlineFirst = true;
            opt::runCxprop(m, copts);
        }
        if (auto errs = ir::verifyModule(m); !errs.empty())
            return {std::string("oob/verify/") + modeName(mode),
                    joinErrors(errs)};

        // The IR interpreter must stop on the safety check, and every
        // engine in every safe mode must agree on *which* check.
        ir::Module forInterp = m.clone();
        ir::HwBus bus;
        ir::InterpOptions iopts;
        iopts.stepLimit = 50'000'000;
        ir::Interp interp(forInterp, &bus, iopts);
        auto r = interp.run("main");
        if (r.reason != ir::StopReason::SafetyFault)
            return {std::string("oob/") + modeName(mode) + "/interp",
                    "expected a safety trap: " + r.detail};
        if (!haveRef) {
            refFlid = r.flid;
            haveRef = true;
        } else if (r.flid != refFlid) {
            return {std::string("oob/") + modeName(mode) + "/interp",
                    "flid " + std::to_string(r.flid) + " want " +
                        std::to_string(refFlid)};
        }

        backend::MProgram img =
            backend::compileToTarget(m, backend::TargetInfo::mica2());
        for (sim::ExecMode em :
             {sim::ExecMode::Legacy, sim::ExecMode::Threaded}) {
            const char *emName =
                em == sim::ExecMode::Legacy ? "legacy" : "threaded";
            TrapOutcome t = runMachineExpectTrap(img, em);
            if (!t.trapped)
                return {std::string("oob/") + modeName(mode) + "/" +
                            emName,
                        t.error};
            if (t.flid != refFlid)
                return {std::string("oob/") + modeName(mode) + "/" +
                            emName,
                        "flid " + std::to_string(t.flid) + " want " +
                            std::to_string(refFlid)};
            if (t.kind != backend::kTrapKindMemory)
                return {std::string("oob/") + modeName(mode) + "/" +
                            emName,
                        "trap kind " + std::to_string(t.kind) +
                            " want memory"};
        }
    }
    return {};
}

} // namespace

Divergence
checkOobProgram(const std::string &src)
{
    try {
        return checkOobProgramImpl(src);
    } catch (const std::exception &e) {
        return {"oob/exception", e.what()};
    }
}

Divergence
checkProgram(const std::string &src)
{
    // Minimizer candidates can be arbitrarily mangled (no main,
    // malformed control flow); a throwing pipeline stage is a failed
    // candidate, not a fuzzer crash.
    try {
        return checkProgramImpl(src);
    } catch (const std::exception &e) {
        return {"exception", e.what()};
    }
}

Divergence
checkBatch(
    const std::vector<std::pair<std::string, std::string>> &apps,
    unsigned jobs)
{
    using namespace stos::core;

    ExperimentOptions opts;
    opts.jobs = jobs;
    opts.seconds = 0.05;
    Experiment exp(opts);
    for (const auto &[name, src] : apps)
        exp.addApp({name, "Mica2", src, {}, "fuzz", {}});
    exp.addConfig(ConfigId::Baseline);
    exp.addConfig(ConfigId::SafeFlid);
    exp.addConfig(ConfigId::SafeFlidInlineCxprop);

    // Oracle 5: cold vs warm cache must be byte-identical.
    StageCache cache;
    ExperimentReport cold = exp.run(cache);
    if (!cold.allOk())
        return {"batch/build", cold.summary()};
    ExperimentReport warm = exp.run(cache);
    std::string why;
    if (!Experiment::reportsEquivalent(cold, warm, &why))
        return {"batch/cache", why};

    // Oracle 4: memoized-parallel vs cold-serial-legacy reference.
    if (!exp.verifySerialEquivalence(cold, &why))
        return {"batch/serial", why};
    return {};
}

} // namespace stos::fuzz
