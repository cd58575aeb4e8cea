/**
 * @file
 * Experiment facade implementation — the build/sim engine itself.
 * Work distribution in both phases is a single atomic job counter
 * over the flattened matrix (core/pool.h); jobs are executed in
 * config-major order (cell k -> app k % A) so the first wave of
 * workers hits distinct apps and the per-app stage entries fill
 * without contention, while results land in app-major record slots so
 * report order is deterministic under any thread count.
 *
 * With options().cache.dir set, run() fronts its StageCache with an
 * ArtifactStore: stage products load from disk instead of executing
 * and write back after a live run. After a disk-backed run the
 * intermediate products (frontend/safety/opt) are released from
 * memory — the store can always re-materialize them — so steady-state
 * memory holds final builds only.
 */
#include "core/experiment.h"

#include <chrono>

#include "core/pool.h"
#include "support/util.h"

namespace stos::core {

using Clock = std::chrono::steady_clock;

//---------------------------------------------------------------------
// ExperimentReport
//---------------------------------------------------------------------

bool
ExperimentReport::allOk() const
{
    return builds.allOk() && (!simulated || sims.allOk());
}

std::string
ExperimentReport::summary() const
{
    std::string s = "build: " + builds.summary();
    if (simulated)
        s += "\nsim:   " + sims.summary();
    return s;
}

void
ExperimentReport::emitCsv(std::ostream &os) const
{
    if (simulated)
        sims.emitCsv(os);
    else
        builds.emitCsv(os);
}

void
ExperimentReport::emitJson(std::ostream &os) const
{
    if (simulated)
        sims.emitJson(os);
    else
        builds.emitJson(os);
}

void
ExperimentReport::emitJoinedCsv(std::ostream &os) const
{
    if (!simulated)
        throw FatalError("joined report requires a simulated matrix");
    sims.joinCsv(builds, os);
}

void
ExperimentReport::emitJoinedJson(std::ostream &os) const
{
    if (!simulated)
        throw FatalError("joined report requires a simulated matrix");
    sims.joinJson(builds, os);
}

//---------------------------------------------------------------------
// Matrix declaration
//---------------------------------------------------------------------

Experiment &
Experiment::addApp(const tinyos::AppInfo &app)
{
    apps_.push_back(app);
    return *this;
}

Experiment &
Experiment::addApps(const std::vector<tinyos::AppInfo> &apps)
{
    for (const auto &a : apps)
        apps_.push_back(a);
    return *this;
}

Experiment &
Experiment::addAllApps()
{
    return addApps(tinyos::allApps());
}

Experiment &
Experiment::addPaperApps()
{
    return addApps(tinyos::paperApps());
}

Experiment &
Experiment::addAppsByTag(const std::string &tag)
{
    return addApps(tinyos::appsByTag(tag));
}

Experiment &
Experiment::addAppsOn(const std::string &platform)
{
    for (const auto &app : tinyos::allApps()) {
        if (app.platform == platform)
            apps_.push_back(app);
    }
    return *this;
}

Experiment &
Experiment::addConfig(ConfigId id)
{
    configs_.push_back(
        {configName(id), [id](const std::string &platform) {
             return configFor(id, platform);
         }});
    return *this;
}

Experiment &
Experiment::addConfigs(const std::vector<ConfigId> &ids)
{
    for (ConfigId id : ids)
        addConfig(id);
    return *this;
}

Experiment &
Experiment::addStrategy(CheckStrategy s)
{
    configs_.push_back(
        {strategyName(s), [s](const std::string &platform) {
             return configForStrategy(s, platform);
         }});
    return *this;
}

Experiment &
Experiment::addStrategies(const std::vector<CheckStrategy> &ss)
{
    for (CheckStrategy s : ss)
        addStrategy(s);
    return *this;
}

Experiment &
Experiment::addCustom(std::string label,
                      std::function<PipelineConfig(const std::string &)>
                          make)
{
    configs_.push_back({std::move(label), std::move(make)});
    return *this;
}

//---------------------------------------------------------------------
// Build engine
//---------------------------------------------------------------------

namespace {

/** Fill the identity fields every cell carries regardless of mode. */
BuildRecord &
cellRecord(BuildReport &report, const tinyos::AppInfo &app,
           const ConfigSpec &spec, size_t appIdx, size_t cfgIdx)
{
    BuildRecord &rec =
        report.records[appIdx * report.numConfigs + cfgIdx];
    rec.app = app.name;
    rec.platform = app.platform;
    rec.config = spec.label;
    rec.companions = app.companions;
    rec.appIndex = static_cast<uint32_t>(appIdx);
    rec.configIndex = static_cast<uint32_t>(cfgIdx);
    return rec;
}

} // namespace

BuildReport
Experiment::buildMatrix(StageCache &cache) const
{
    const size_t nApps = apps_.size();
    const size_t nConfigs = configs_.size();
    const size_t nJobs = nApps * nConfigs;

    BuildReport report;
    report.numApps = nApps;
    report.numConfigs = nConfigs;
    report.records.resize(nJobs);
    report.jobsUsed = resolveJobs(opts_.jobs, nJobs);
    if (nJobs == 0)
        return report;

    StageCacheStats before = cache.stats();
    ArtifactStoreStats storeBefore;
    if (cache.store())
        storeBefore = cache.store()->stats();

    auto start = Clock::now();
    // Config-major execution order: spread early jobs across distinct
    // apps so the per-app stage entries fill in parallel.
    runOnPool(report.jobsUsed, nJobs, [&](size_t k) {
        size_t appIdx = k % nApps, cfgIdx = k / nApps;
        const tinyos::AppInfo &app = apps_[appIdx];
        const ConfigSpec &spec = configs_[cfgIdx];
        BuildRecord &rec = cellRecord(report, app, spec, appIdx, cfgIdx);
        auto cellStart = Clock::now();
        StageHits hits;
        try {
            PipelineConfig cfg = spec.make(app.platform);
            // Shared immutably with the cache — no per-cell copy.
            rec.result = cache.build(app, cfg, &hits);
            rec.ok = true;
        } catch (const std::exception &e) {
            rec.ok = false;
            rec.error = e.what();
        }
        rec.frontendReused = hits.frontend;
        rec.safetyReused = hits.safety;
        rec.optReused = hits.opt;
        rec.backendReused = hits.backend;
        rec.millis = millisSince(cellStart);
    });
    report.wallMillis = millisSince(start);

    // Stage executions this run come from the cache's counter delta;
    // per-cell reuse comes from the chain flags (a request chain
    // stops at its first cache hit, so raw request counters would
    // under-report upstream reuse). Disk hits are counted apart from
    // executions: a warmed store yields *Runs == 0.
    StageCacheStats after = cache.stats();
    report.frontendParses =
        after.frontend.executed - before.frontend.executed;
    report.safetyRuns = after.safety.executed - before.safety.executed;
    report.optRuns = after.opt.executed - before.opt.executed;
    report.backendRuns = after.backend.executed - before.backend.executed;
    report.frontendDiskHits =
        after.frontend.diskHits - before.frontend.diskHits;
    report.safetyDiskHits = after.safety.diskHits - before.safety.diskHits;
    report.optDiskHits = after.opt.diskHits - before.opt.diskHits;
    report.backendDiskHits =
        after.backend.diskHits - before.backend.diskHits;
    if (cache.store()) {
        ArtifactStoreStats storeAfter = cache.store()->stats();
        report.cacheBytesRead =
            storeAfter.bytesRead - storeBefore.bytesRead;
        report.cacheBytesWritten =
            storeAfter.bytesWritten - storeBefore.bytesWritten;
    }
    for (const auto &r : report.records) {
        report.frontendReuses += r.frontendReused ? 1 : 0;
        report.safetyReuses += r.safetyReused ? 1 : 0;
        report.optReuses += r.optReused ? 1 : 0;
        report.backendReuses += r.backendReused ? 1 : 0;
    }
    return report;
}

BuildReport
Experiment::buildMatrixCold() const
{
    // Cold mode: every cell compiles from source, nothing is shared
    // and nothing touches a store — the reference behaviour the
    // equivalence gates compare against.
    const size_t nApps = apps_.size();
    const size_t nConfigs = configs_.size();
    const size_t nJobs = nApps * nConfigs;

    BuildReport report;
    report.numApps = nApps;
    report.numConfigs = nConfigs;
    report.records.resize(nJobs);
    report.jobsUsed = resolveJobs(opts_.jobs, nJobs);
    if (nJobs == 0)
        return report;

    auto start = Clock::now();
    runOnPool(report.jobsUsed, nJobs, [&](size_t k) {
        size_t appIdx = k % nApps, cfgIdx = k / nApps;
        const tinyos::AppInfo &app = apps_[appIdx];
        const ConfigSpec &spec = configs_[cfgIdx];
        BuildRecord &rec = cellRecord(report, app, spec, appIdx, cfgIdx);
        auto cellStart = Clock::now();
        try {
            rec.result = std::make_shared<const BuildResult>(
                buildSource(app.name, app.source,
                            spec.make(app.platform)));
            rec.ok = true;
        } catch (const std::exception &e) {
            rec.ok = false;
            rec.error = e.what();
        }
        rec.millis = millisSince(cellStart);
    });
    report.wallMillis = millisSince(start);
    // Every cell ran the whole pipeline by itself.
    report.frontendParses = nJobs;
    report.safetyRuns = nJobs;
    report.optRuns = nJobs;
    report.backendRuns = nJobs;
    return report;
}

//---------------------------------------------------------------------
// Simulation engine
//---------------------------------------------------------------------

SimReport
Experiment::simulateBuilds(const BuildReport &builds,
                           StageCache &cache) const
{
    const size_t nApps = builds.numApps;
    const size_t nConfigs = builds.numConfigs;
    const size_t nJobs = nApps * nConfigs;

    SimReport report;
    report.numApps = nApps;
    report.numConfigs = nConfigs;
    report.seconds = opts_.seconds;
    report.records.resize(nJobs);
    report.jobsUsed = resolveJobs(opts_.jobs, nJobs);
    if (nJobs == 0)
        return report;

    const size_t builds0 = cache.companionBuilds();
    const size_t hits0 = cache.companionHits();

    sim::NetworkOptions netOpts;
    netOpts.mode = opts_.mode;
    // Lookahead windows belong to the threaded fast path; Legacy
    // keeps the fixed-quantum lockstep it always had (it is the
    // reference the equivalence gates compare against).
    netOpts.lookahead = opts_.mode != sim::ExecMode::Legacy;
    netOpts.faults = opts_.faults;
    netOpts.wallLimitMs = opts_.cellTimeout * 1000.0;

    auto simCell = [&](size_t appIdx, size_t cfgIdx) {
        const BuildRecord &build = builds.records[appIdx * nConfigs +
                                                  cfgIdx];
        SimRecord &rec = report.records[appIdx * nConfigs + cfgIdx];
        rec.app = build.app;
        rec.platform = build.platform;
        rec.config = build.config;
        rec.appIndex = build.appIndex;
        rec.configIndex = build.configIndex;

        auto cellStart = Clock::now();
        // Per-cell fault plan: re-mix the campaign seed with the app
        // name so no two cells replay the same corruption schedule.
        // runSerialReference copies these options verbatim, so the
        // reference cell mixes to the identical seed.
        sim::NetworkOptions cellNet = netOpts;
        if (cellNet.faults.anyFaults())
            cellNet.faults.seed =
                sim::mixSeed(cellNet.faults.seed, build.app);
        try {
            if (!build.ok)
                throw FatalError("build failed: " + build.error);
            // Companion images: from the shared memo, or rebuilt per
            // cell when memoization is off (the serial-equivalent
            // behaviour the equivalence gate compares against). The
            // companion names ride on the BuildRecord, so custom rows
            // outside the app registry simulate fine (companion-less
            // or with registry companions).
            bool allReused = !build.companions.empty();
            auto freshImage = [&](const std::string &cname) {
                const auto &capp = tinyos::appByName(cname);
                PipelineConfig base =
                    configFor(ConfigId::Baseline, build.platform);
                return std::make_shared<const backend::MProgram>(
                    buildApp(capp, base).image);
            };
            if (opts_.mode != sim::ExecMode::Legacy) {
                // The cell's own firmware decodes once per cell; the
                // companions' decodes come from (and persist in) the
                // cache, shared across every cell and run.
                auto dimage =
                    std::make_shared<const sim::DecodedProgram>(
                        build.result->image);
                std::vector<
                    std::shared_ptr<const sim::DecodedProgram>>
                    dcomps;
                for (const auto &cname : build.companions) {
                    if (opts_.memoize) {
                        bool builtHere = false;
                        dcomps.push_back(cache.companionDecode(
                            cname, build.platform, &builtHere));
                        if (builtHere)
                            allReused = false;
                    } else {
                        dcomps.push_back(
                            std::make_shared<
                                const sim::DecodedProgram>(
                                freshImage(cname)));
                        allReused = false;
                    }
                }
                rec.companionsReused = allReused;
                rec.outcome = simulateDecoded(dimage, dcomps,
                                              opts_.seconds, cellNet);
            } else {
                std::vector<std::shared_ptr<const backend::MProgram>>
                    owned;
                std::vector<const backend::MProgram *> companions;
                for (const auto &cname : build.companions) {
                    if (opts_.memoize) {
                        bool builtHere = false;
                        owned.push_back(cache.companionImage(
                            cname, build.platform, &builtHere));
                        if (builtHere)
                            allReused = false;
                    } else {
                        owned.push_back(freshImage(cname));
                        allReused = false;
                    }
                    companions.push_back(owned.back().get());
                }
                rec.companionsReused = allReused;
                rec.outcome =
                    simulateInContext(build.result->image, companions,
                                      opts_.seconds, cellNet);
            }
            rec.ok = true;
        } catch (const std::exception &e) {
            rec.ok = false;
            rec.error = e.what();
        }
        rec.millis = millisSince(cellStart);
    };

    auto start = Clock::now();
    // Config-major execution order: spread early jobs across distinct
    // apps so the companion entries fill in parallel.
    runOnPool(report.jobsUsed, nJobs,
              [&](size_t k) { simCell(k % nApps, k / nApps); });
    report.wallMillis = millisSince(start);
    report.companionBuilds = cache.companionBuilds() - builds0;
    report.companionReuses = cache.companionHits() - hits0;
    return report;
}

//---------------------------------------------------------------------
// Execution
//---------------------------------------------------------------------

ExperimentReport
Experiment::run() const
{
    std::unique_ptr<ArtifactStore> store;
    if (!opts_.cache.dir.empty())
        store = std::make_unique<ArtifactStore>(opts_.cache);
    StageCache cache(store.get());
    return run(cache);
}

ExperimentReport
Experiment::run(StageCache &cache) const
{
    ExperimentReport rep;
    rep.builds = opts_.memoize ? buildMatrix(cache) : buildMatrixCold();

    if (opts_.simulate) {
        rep.sims = simulateBuilds(rep.builds, cache);
        rep.simulated = true;
    }

    // With a writable store holding every intermediate, drop the
    // frontend/safety/opt memo entries — steady-state memory keeps
    // final builds only; a rare later request re-loads from disk.
    if (cache.store() && !cache.store()->options().readOnly)
        cache.releaseIntermediateProducts();
    return rep;
}

ExperimentReport
Experiment::runSerialReference() const
{
    Experiment ref = *this;
    ref.opts_.jobs = 1;
    ref.opts_.memoize = false;
    ref.opts_.mode = sim::ExecMode::Legacy;
    // The cold reference must be exactly that — it never reads or
    // warms the artifact store.
    ref.opts_.cache = {};
    return ref.run();
}

//---------------------------------------------------------------------
// Equivalence gates
//---------------------------------------------------------------------

bool
Experiment::reportsEquivalent(const ExperimentReport &a,
                              const ExperimentReport &b, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (a.builds.records.size() != b.builds.records.size() ||
        a.builds.numApps != b.builds.numApps ||
        a.builds.numConfigs != b.builds.numConfigs)
        return fail("build matrix shapes differ");
    for (size_t i = 0; i < a.builds.records.size(); ++i) {
        if (!BuildDriver::recordsEquivalent(a.builds.records[i],
                                            b.builds.records[i], why))
            return false;
    }
    if (a.simulated != b.simulated)
        return fail("one report is build-only");
    if (a.simulated &&
        !SimDriver::reportsEquivalent(a.sims, b.sims, why))
        return false;
    return true;
}

bool
Experiment::verifySerialEquivalence(const ExperimentReport &rep,
                                    std::string *why) const
{
    ExperimentReport ref = runSerialReference();
    if (!ref.allOk()) {
        if (why)
            *why = "serial reference run failed";
        return false;
    }
    return reportsEquivalent(ref, rep, why);
}

} // namespace stos::core
