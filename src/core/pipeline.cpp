/**
 * @file
 * Pipeline driver implementation.
 */
#include "core/pipeline.h"

#include <cmath>

#include "frontend/frontend.h"
#include "ir/serialize.h"
#include "ir/verifier.h"
#include "support/util.h"

namespace stos::core {

using namespace stos::ir;

const char *
configName(ConfigId id)
{
    switch (id) {
      case ConfigId::Baseline: return "unsafe baseline";
      case ConfigId::SafeVerboseRam: return "safe, verbose messages";
      case ConfigId::SafeVerboseRom: return "safe, verbose in ROM";
      case ConfigId::SafeTerse: return "safe, terse messages";
      case ConfigId::SafeFlid: return "safe, FLIDs";
      case ConfigId::SafeFlidCxprop: return "safe, FLIDs, cXprop";
      case ConfigId::SafeFlidInlineCxprop:
        return "safe, FLIDs, inline+cXprop";
      case ConfigId::UnsafeInlineCxprop:
        return "unsafe, inline+cXprop";
      case ConfigId::SafeFlidCfi: return "safe, FLIDs, CFI";
      case ConfigId::SafeFlidInlineCxpropCfi:
        return "safe, FLIDs, inline+cXprop, CFI";
      case ConfigId::CfiOnly: return "CFI only";
    }
    return "?";
}

const std::vector<ConfigId> &
figure3Configs()
{
    static const std::vector<ConfigId> configs = {
        ConfigId::SafeVerboseRam,     ConfigId::SafeVerboseRom,
        ConfigId::SafeTerse,          ConfigId::SafeFlid,
        ConfigId::SafeFlidCxprop,     ConfigId::SafeFlidInlineCxprop,
        ConfigId::UnsafeInlineCxprop,
    };
    return configs;
}

const std::vector<ConfigId> &
cfiConfigs()
{
    static const std::vector<ConfigId> configs = {
        ConfigId::SafeFlidCfi,
        ConfigId::SafeFlidInlineCxpropCfi,
        ConfigId::CfiOnly,
    };
    return configs;
}

const char *
strategyName(CheckStrategy s)
{
    switch (s) {
      case CheckStrategy::GccOnly: return "gcc";
      case CheckStrategy::CcuredOpt: return "CCured opt + gcc";
      case CheckStrategy::CcuredOptCxprop:
        return "CCured opt + cXprop + gcc";
      case CheckStrategy::CcuredOptInlineCxprop:
        return "CCured opt + inline + cXprop + gcc";
    }
    return "?";
}

PipelineConfig
configFor(ConfigId id, const std::string &platform)
{
    PipelineConfig cfg;
    cfg.platform = platform;
    switch (id) {
      case ConfigId::Baseline:
        cfg.safe = false;
        break;
      // The pre-FLID configurations use the already-ported (trimmed)
      // runtime, like the paper's evaluation: the naive x86/OS port
      // is measured separately by the §2.3 experiment. Their RAM blow
      // up comes from the per-check verbose strings themselves.
      case ConfigId::SafeVerboseRam:
        cfg.safety.errorMode = safety::ErrorMode::VerboseRam;
        break;
      case ConfigId::SafeVerboseRom:
        cfg.safety.errorMode = safety::ErrorMode::VerboseRom;
        break;
      case ConfigId::SafeTerse:
        cfg.safety.errorMode = safety::ErrorMode::Terse;
        break;
      case ConfigId::SafeFlid:
        cfg.safety.errorMode = safety::ErrorMode::Flid;
        break;
      case ConfigId::SafeFlidCxprop:
        cfg.safety.errorMode = safety::ErrorMode::Flid;
        cfg.runCxprop = true;
        cfg.cxprop.inlineFirst = false;
        break;
      case ConfigId::SafeFlidInlineCxprop:
        cfg.safety.errorMode = safety::ErrorMode::Flid;
        cfg.runCxprop = true;
        cfg.cxprop.inlineFirst = true;
        break;
      case ConfigId::UnsafeInlineCxprop:
        cfg.safe = false;
        cfg.runCxprop = true;
        cfg.cxprop.inlineFirst = true;
        break;
      case ConfigId::SafeFlidCfi:
        cfg.safety.errorMode = safety::ErrorMode::Flid;
        cfg.safety.cfi = true;
        break;
      case ConfigId::SafeFlidInlineCxpropCfi:
        cfg.safety.errorMode = safety::ErrorMode::Flid;
        cfg.safety.cfi = true;
        cfg.runCxprop = true;
        cfg.cxprop.inlineFirst = true;
        break;
      case ConfigId::CfiOnly:
        cfg.safety.errorMode = safety::ErrorMode::Flid;
        cfg.safety.cfi = true;
        cfg.safety.memoryChecks = false;
        break;
    }
    return cfg;
}

PipelineConfig
configForStrategy(CheckStrategy s, const std::string &platform)
{
    PipelineConfig cfg;
    cfg.platform = platform;
    cfg.safe = true;
    cfg.safety.errorMode = safety::ErrorMode::Flid;
    cfg.safety.insertCheckTags = true;
    switch (s) {
      case CheckStrategy::GccOnly:
        cfg.safety.ccuredOptimizer = false;
        break;
      case CheckStrategy::CcuredOpt:
        cfg.safety.ccuredOptimizer = true;
        break;
      case CheckStrategy::CcuredOptCxprop:
        cfg.safety.ccuredOptimizer = true;
        cfg.runCxprop = true;
        cfg.cxprop.inlineFirst = false;
        break;
      case CheckStrategy::CcuredOptInlineCxprop:
        cfg.safety.ccuredOptimizer = true;
        cfg.runCxprop = true;
        cfg.cxprop.inlineFirst = true;
        break;
    }
    return cfg;
}

FrontendProduct
runFrontend(const std::string &name, const std::string &src)
{
    FrontendProduct fe;
    fe.sourceManager = std::make_shared<SourceManager>();
    DiagnosticEngine diags(fe.sourceManager.get());
    std::vector<frontend::CompileInput> inputs;
    inputs.push_back({"tinyos_lib.tc", tinyos::libSource()});
    inputs.push_back({name + ".tc", src});
    fe.module =
        frontend::compileTinyC(inputs, diags, *fe.sourceManager, name);
    if (diags.hasErrors())
        fatal("TinyC compilation of " + name + " failed:\n" +
              diags.dump());
    verifyOrDie(fe.module, "frontend");
    return fe;
}

//---------------------------------------------------------------------
// Stage functions
//---------------------------------------------------------------------

SafetyProduct
runSafetyStage(Module m, const SourceManager *sm,
               const PipelineConfig &cfg)
{
    SafetyProduct sp;
    if (cfg.safe) {
        sp.report = safety::applySafety(m, cfg.safety, sm);
        verifyOrDie(m, "safety");
    }
    sp.module = std::make_shared<const Module>(std::move(m));
    return sp;
}

OptProduct
runOptStage(SafetyProduct sp, const PipelineConfig &cfg)
{
    OptProduct op;
    if (cfg.runCxprop) {
        Module m = sp.module->clone();
        op.report = opt::runCxprop(m, cfg.cxprop);
        verifyOrDie(m, "cxprop");
        op.module = std::make_shared<const Module>(std::move(m));
    } else {
        // Pass-through: share the safety product's module outright.
        op.module = sp.module;
    }
    op.safetyReport = std::move(sp.report);
    return op;
}

std::string
cxpropReportString(const opt::CxpropReport &rep)
{
    return strfmt("cXprop: %u checks removed, %u constants and %u "
                  "branches folded, %u functions inlined; %d rounds, "
                  "%u fixpoint rounds, %u function analyses "
                  "(%u skipped), %u block visits",
                  rep.checksRemoved, rep.instrsConstFolded,
                  rep.branchesFolded, rep.funcsInlined, rep.rounds,
                  rep.fixpointRounds, rep.funcAnalyses,
                  rep.funcAnalysesSkipped, rep.blockVisits);
}

FullBuild
runBackendStage(OptProduct op, const PipelineConfig &cfg)
{
    FullBuild result;
    result.safetyReport = std::move(op.safetyReport);
    result.cxpropReport = op.report;
    backend::TargetInfo target = cfg.platform == "TelosB"
                                     ? backend::TargetInfo::telosb()
                                     : backend::TargetInfo::mica2();
    // The late backend optimizations mutate the module into the final
    // IR the result carries, so the shared input is cloned.
    result.module = op.module->clone();
    result.image =
        backend::compileToTarget(result.module, target, cfg.backend);
    result.codeBytes = result.image.codeBytes();
    result.ramBytes = result.image.ramDataBytes();
    result.romDataBytes = result.image.romDataBytes();
    result.survivingChecks = result.image.survivingCheckTags();
    result.flidTable = result.module.flidTable();
    support::BinWriter w;
    ir::writeModule(w, result.module);
    result.irDigest = support::fnv1a64(w.data());
    return result;
}

//---------------------------------------------------------------------
// Fingerprints
//---------------------------------------------------------------------

std::string
safetyFingerprint(const PipelineConfig &cfg)
{
    if (!cfg.safe)
        return "unsafe";
    const safety::SafetyConfig &s = cfg.safety;
    return strfmt("safe:mode=%d,ccopt=%d,naive=%d,tags=%d,"
                  "mem=%d,cfi=%d",
                  static_cast<int>(s.errorMode),
                  s.ccuredOptimizer ? 1 : 0, s.naiveRuntime ? 1 : 0,
                  s.insertCheckTags ? 1 : 0,
                  s.memoryChecks ? 1 : 0, s.cfi ? 1 : 0);
}

std::string
optFingerprint(const PipelineConfig &cfg)
{
    if (!cfg.runCxprop)
        return "nocx";
    const opt::CxpropOptions &o = cfg.cxprop;
    return strfmt("cx:iv=%d,bits=%d,inl=%d,atom=%d,dce=%d",
                  o.domains.intervals ? 1 : 0,
                  o.domains.knownBits ? 1 : 0, o.inlineFirst ? 1 : 0,
                  o.optimizeAtomics ? 1 : 0, o.strongDce ? 1 : 0);
}

std::string
backendFingerprint(const PipelineConfig &cfg)
{
    return strfmt("be:%s,late=%d", cfg.platform.c_str(),
                  cfg.backend.gcc.lateInline ? 1 : 0);
}

FullBuild
buildSource(const std::string &name, const std::string &src,
            const PipelineConfig &cfg)
{
    FrontendProduct fe = runFrontend(name, src);
    return runBackendStage(
        runOptStage(runSafetyStage(std::move(fe.module),
                                   fe.sourceManager.get(), cfg),
                    cfg),
        cfg);
}

FullBuild
buildApp(const tinyos::AppInfo &app, const PipelineConfig &cfg)
{
    return buildSource(app.name, app.source, cfg);
}

uint64_t
simCycles(double seconds, uint32_t clockHz)
{
    // Casting a product at or above 2^64 to uint64_t is undefined
    // behaviour (in practice a garbage count), so reject it here.
    const double cycles = seconds * static_cast<double>(clockHz);
    if (!std::isfinite(seconds) || seconds < 0 || !(cycles < 0x1p64))
        throw FatalError(strfmt("cannot simulate %g seconds at %u Hz: "
                                "need a finite duration >= 0 whose "
                                "cycle count fits in 64 bits",
                                seconds, clockHz));
    return static_cast<uint64_t>(cycles);
}

namespace {

SimOutcome
collectOutcome(sim::Network &net, uint64_t cycles)
{
    net.run(cycles);
    const sim::Machine &m = net.mote(0);
    SimOutcome out;
    out.dutyCycle = m.dutyCycle();
    out.awakeCycles = m.awakeCycles();
    out.totalCycles = m.cycles();
    out.instructions = m.instructionsExecuted();
    out.halted = m.halted();
    out.wedged = m.wedged();
    out.failedFlid = m.failedFlid();
    out.uartLog = m.devices().uartLog();
    out.traps = m.traps();
    out.cfiTraps = m.cfiTraps();
    out.reboots = m.reboots();
    out.crashes = m.crashes();
    out.downCycles = m.downCycles();
    out.wedgedCycles = m.wedgedCycles();
    out.availability = m.availability();
    out.trapLog = m.trapLog();
    out.packetsDropped = m.devices().packetsDropped();
    out.packetsCorrupted = m.devices().packetsCorrupted();
    out.packetsDuplicated = m.devices().packetsDuplicated();
    return out;
}

} // namespace

SimOutcome
simulateInContext(const backend::MProgram &image,
                  const std::vector<const backend::MProgram *> &companions,
                  double seconds, const sim::NetworkOptions &netOpts)
{
    uint64_t cycles = simCycles(seconds, image.target.clockHz);
    sim::Network net(netOpts);
    net.addMote(image, 1);
    uint8_t nextId = 2;
    for (const backend::MProgram *cimg : companions)
        net.addMote(*cimg, nextId++);
    return collectOutcome(net, cycles);
}

SimOutcome
simulateDecoded(
    const std::shared_ptr<const sim::DecodedProgram> &image,
    const std::vector<std::shared_ptr<const sim::DecodedProgram>>
        &companions,
    double seconds, const sim::NetworkOptions &netOpts)
{
    uint64_t cycles =
        simCycles(seconds, image->program().target.clockHz);
    sim::Network net(netOpts);
    net.addMote(image, 1);
    uint8_t nextId = 2;
    for (const auto &cimg : companions)
        net.addMote(cimg, nextId++);
    return collectOutcome(net, cycles);
}

} // namespace stos::core
