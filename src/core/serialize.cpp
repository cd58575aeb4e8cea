/**
 * @file
 * Stage-product (de)serialization: every stage product declared in
 * pipeline.h carries a uniform serialize(BinWriter&) /
 * deserialize(BinReader&) pair, composed from the module/image
 * encoders (ir/serialize.h, backend/serialize.h), the reports'
 * transfer() layouts and the source-manager pair below — the store
 * itself never learns per-type layout. StageCache persists only
 * BuildResult, which carries no IR module (its irDigest stands for
 * it); the frontend, safety and opt pairs serve figbench's replay,
 * the round-trip tests and store_manifest.golden.
 */
#include "core/pipeline.h"

#include "backend/serialize.h"
#include "ir/serialize.h"

namespace stos::safety {

void
transfer(auto &a, SafetyReport &x)
{
    a(x.checksInserted, x.checksByKind, x.staticallySafeAccesses,
      x.redundantChecksDropped, x.locksInserted, x.racyGlobals,
      x.kindHistogram, x.cfiClasses, x.cfiForwardChecks,
      x.cfiReturnSites);
}

} // namespace stos::safety

namespace stos::opt {

void
transfer(auto &a, CxpropReport &x)
{
    a(x.funcsInlined, x.instrsConstFolded, x.branchesFolded,
      x.checksRemoved, x.copiesPropagated, x.deadInstrsRemoved,
      x.deadStoresRemoved, x.deadGlobalsRemoved, x.deadFuncsRemoved,
      x.atomicsRemoved, x.atomicSavesDowngraded, x.rounds,
      x.fixpointRounds, x.funcAnalyses, x.funcAnalysesSkipped,
      x.blockVisits);
}

} // namespace stos::opt

namespace stos::core {

using support::BinReader;
using support::BinWriter;

namespace {

void
writeSourceManager(BinWriter &w, const SourceManager &sm)
{
    // Buffer 0 is the constructor's "<unknown>" sentinel; persist only
    // the registered buffers and re-add them in order on read.
    w.u64(sm.numFiles() - 1);
    for (uint32_t id = 1; id < sm.numFiles(); ++id)
        w(sm.fileName(id), sm.fileText(id));
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
    w(report);
}

SafetyProduct
SafetyProduct::deserialize(BinReader &r)
{
    SafetyProduct sp;
    sp.module = std::make_shared<const ir::Module>(ir::readModule(r));
    r(sp.report);
    return sp;
}

void
OptProduct::serialize(BinWriter &w) const
{
    ir::writeModule(w, *module);
    w(safetyReport, report);
}

OptProduct
OptProduct::deserialize(BinReader &r)
{
    OptProduct op;
    op.module = std::make_shared<const ir::Module>(ir::readModule(r));
    r(op.safetyReport, op.report);
    return op;
}

void
BuildResult::serialize(BinWriter &w) const
{
    w(irDigest, flidTable);
    backend::writeProgram(w, image);
    w(safetyReport, cxpropReport, codeBytes, ramBytes, romDataBytes,
      survivingChecks);
}

BuildResult
BuildResult::deserialize(BinReader &r)
{
    BuildResult br;
    r(br.irDigest, br.flidTable);
    br.image = backend::readProgram(r);
    r(br.safetyReport, br.cxpropReport, br.codeBytes, br.ramBytes,
      br.romDataBytes, br.survivingChecks);
    return br;
}

} // namespace stos::core
