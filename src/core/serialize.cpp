/**
 * @file
 * Stage-product (de)serialization for the artifact store: every stage
 * product declared in pipeline.h carries a uniform
 * serialize(BinWriter&) / deserialize(BinReader&) pair, composed from
 * the module/image encoders (ir/serialize.h, backend/serialize.h) and
 * the report/source-manager encoders below. A future stage gets
 * persistence by adding the same pair — the store itself never learns
 * per-type layout.
 */
#include "core/pipeline.h"

#include "backend/serialize.h"
#include "ir/serialize.h"

namespace stos::core {

using support::BinReader;
using support::BinWriter;

namespace {

void
writeCountMap(BinWriter &w, const std::map<std::string, uint32_t> &m)
{
    w.u64(m.size());
    for (const auto &[k, v] : m) {
        w.str(k);
        w.u32(v);
    }
}

std::map<std::string, uint32_t>
readCountMap(BinReader &r)
{
    std::map<std::string, uint32_t> m;
    size_t n = r.count();
    for (size_t i = 0; i < n; ++i) {
        std::string k = r.str();
        m[k] = r.u32();
    }
    return m;
}

void
writeSafetyReport(BinWriter &w, const safety::SafetyReport &rep)
{
    w.u32(rep.checksInserted);
    writeCountMap(w, rep.checksByKind);
    w.u32(rep.staticallySafeAccesses);
    w.u32(rep.redundantChecksDropped);
    w.u32(rep.locksInserted);
    w.u32(rep.racyGlobals);
    writeCountMap(w, rep.kindHistogram);
    w.u32(rep.cfiClasses);
    w.u32(rep.cfiForwardChecks);
    w.u32(rep.cfiReturnSites);
}

safety::SafetyReport
readSafetyReport(BinReader &r)
{
    safety::SafetyReport rep;
    rep.checksInserted = r.u32();
    rep.checksByKind = readCountMap(r);
    rep.staticallySafeAccesses = r.u32();
    rep.redundantChecksDropped = r.u32();
    rep.locksInserted = r.u32();
    rep.racyGlobals = r.u32();
    rep.kindHistogram = readCountMap(r);
    rep.cfiClasses = r.u32();
    rep.cfiForwardChecks = r.u32();
    rep.cfiReturnSites = r.u32();
    return rep;
}

void
writeCxpropReport(BinWriter &w, const opt::CxpropReport &rep)
{
    w.u32(rep.funcsInlined);
    w.u32(rep.instrsConstFolded);
    w.u32(rep.branchesFolded);
    w.u32(rep.checksRemoved);
    w.u32(rep.copiesPropagated);
    w.u32(rep.deadInstrsRemoved);
    w.u32(rep.deadStoresRemoved);
    w.u32(rep.deadGlobalsRemoved);
    w.u32(rep.deadFuncsRemoved);
    w.u32(rep.atomicsRemoved);
    w.u32(rep.atomicSavesDowngraded);
    w.i32(rep.rounds);
    w.u32(rep.fixpointRounds);
    w.u32(rep.funcAnalyses);
    w.u32(rep.funcAnalysesSkipped);
    w.u32(rep.blockVisits);
}

opt::CxpropReport
readCxpropReport(BinReader &r)
{
    opt::CxpropReport rep;
    rep.funcsInlined = r.u32();
    rep.instrsConstFolded = r.u32();
    rep.branchesFolded = r.u32();
    rep.checksRemoved = r.u32();
    rep.copiesPropagated = r.u32();
    rep.deadInstrsRemoved = r.u32();
    rep.deadStoresRemoved = r.u32();
    rep.deadGlobalsRemoved = r.u32();
    rep.deadFuncsRemoved = r.u32();
    rep.atomicsRemoved = r.u32();
    rep.atomicSavesDowngraded = r.u32();
    rep.rounds = r.i32();
    rep.fixpointRounds = r.u32();
    rep.funcAnalyses = r.u32();
    rep.funcAnalysesSkipped = r.u32();
    rep.blockVisits = r.u32();
    return rep;
}

void
writeSourceManager(BinWriter &w, const SourceManager &sm)
{
    // Buffer 0 is the constructor's "<unknown>" sentinel; persist only
    // the registered buffers and re-add them in order on read.
    w.u64(sm.numFiles() - 1);
    for (uint32_t id = 1; id < sm.numFiles(); ++id) {
        w.str(sm.fileName(id));
        w.str(sm.fileText(id));
    }
}

std::shared_ptr<SourceManager>
readSourceManager(BinReader &r)
{
    auto sm = std::make_shared<SourceManager>();
    size_t n = r.count();
    for (size_t i = 0; i < n; ++i) {
        std::string name = r.str();
        std::string text = r.str();
        sm->addBuffer(std::move(name), std::move(text));
    }
    return sm;
}

} // namespace

//---------------------------------------------------------------------
// Stage products
//---------------------------------------------------------------------

void
FrontendProduct::serialize(BinWriter &w) const
{
    ir::writeModule(w, module);
    writeSourceManager(w, *sourceManager);
}

FrontendProduct
FrontendProduct::deserialize(BinReader &r)
{
    FrontendProduct fe;
    fe.module = ir::readModule(r);
    fe.sourceManager = readSourceManager(r);
    return fe;
}

void
SafetyProduct::serialize(BinWriter &w) const
{
    ir::writeModule(w, *module);
    writeSafetyReport(w, report);
}

SafetyProduct
SafetyProduct::deserialize(BinReader &r)
{
    SafetyProduct sp;
    sp.module = std::make_shared<const ir::Module>(ir::readModule(r));
    sp.report = readSafetyReport(r);
    return sp;
}

void
OptProduct::serialize(BinWriter &w) const
{
    ir::writeModule(w, *module);
    writeSafetyReport(w, safetyReport);
    writeCxpropReport(w, report);
}

OptProduct
OptProduct::deserialize(BinReader &r)
{
    OptProduct op;
    op.module = std::make_shared<const ir::Module>(ir::readModule(r));
    op.safetyReport = readSafetyReport(r);
    op.report = readCxpropReport(r);
    return op;
}

void
BuildResult::serialize(BinWriter &w) const
{
    ir::writeModule(w, module);
    backend::writeProgram(w, image);
    writeSafetyReport(w, safetyReport);
    writeCxpropReport(w, cxpropReport);
    w.u32(codeBytes);
    w.u32(ramBytes);
    w.u32(romDataBytes);
    w.u32(survivingChecks);
}

BuildResult
BuildResult::deserialize(BinReader &r)
{
    BuildResult br;
    br.module = ir::readModule(r);
    br.image = backend::readProgram(r);
    br.safetyReport = readSafetyReport(r);
    br.cxpropReport = readCxpropReport(r);
    br.codeBytes = r.u32();
    br.ramBytes = r.u32();
    br.romDataBytes = r.u32();
    br.survivingChecks = r.u32();
    return br;
}

} // namespace stos::core
