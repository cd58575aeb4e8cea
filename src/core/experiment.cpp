/**
 * @file
 * Experiment facade implementation — the build/sim engine itself.
 * Both phases run one cell loop (runCells) on core/pool.h's fan-out:
 * jobs execute in config-major order (cell k -> app k % A) so the
 * first wave of workers hits distinct apps and the per-app stage
 * entries fill without contention, while results land in app-major
 * record slots so report order is deterministic under any thread
 * count.
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

/**
 * The one cell loop both phases and both paths share: size `report`
 * for an nApps x nConfigs matrix and run `cell(rec, app, config)` for
 * every cell on `jobs` executors, in config-major order (cell k ->
 * app k % nApps, so the first wave hits distinct apps), turning an
 * exception into a failed record and timing each cell and the whole
 * phase. `cell` names its record before anything that can throw.
 */
template <typename Report, typename Cell>
void
runCells(Report &report, size_t nApps, size_t nConfigs, unsigned jobs,
         Cell cell)
{
    const size_t nJobs = nApps * nConfigs;
    report.numApps = nApps;
    report.numConfigs = nConfigs;
    report.records.resize(nJobs);
    report.jobsUsed = resolveJobs(jobs, nJobs);

    auto start = Clock::now();
    runOnPool(report.jobsUsed, nJobs, [&](size_t k) {
        const size_t appIdx = k % nApps, cfgIdx = k / nApps;
        auto &rec = report.at(appIdx, cfgIdx);
        auto cellStart = Clock::now();
        try {
            cell(rec, appIdx, cfgIdx);
            rec.ok = true;
        } catch (const std::exception &e) {
            rec.ok = false;
            rec.error = e.what();
        }
        rec.millis = millisSince(cellStart);
    });
    report.wallMillis = millisSince(start);
}

/**
 * The build phase's cell shell: name each record and run
 * `buildCell(app, config, hits)` for it.
 */
template <typename BuildCell>
BuildReport
buildCells(const std::vector<tinyos::AppInfo> &apps,
           const std::vector<ConfigSpec> &configs, unsigned jobs,
           BuildCell buildCell)
{
    BuildReport report;
    runCells(report, apps.size(), configs.size(), jobs,
             [&](BuildRecord &rec, size_t appIdx, size_t cfgIdx) {
                 const tinyos::AppInfo &app = apps[appIdx];
                 const ConfigSpec &spec = configs[cfgIdx];
                 static_cast<CellId &>(rec) = {
                     app.name, app.platform, spec.label,
                     static_cast<uint32_t>(appIdx),
                     static_cast<uint32_t>(cfgIdx)};
                 rec.companions = app.companions;
                 rec.result =
                     buildCell(app, spec.make(app.platform), rec.reused);
             });
    return report;
}

} // namespace

BuildReport
Experiment::buildMatrix(StageCache &cache) const
{
    PerStage<StageStats> before;
    for (Stage s : kStages)
        before[s] = cache.stats(s);
    ArtifactStoreStats storeBefore;
    if (cache.store())
        storeBefore = cache.store()->stats();

    BuildReport report = buildCells(
        apps_, configs_, opts_.jobs,
        [&](const tinyos::AppInfo &app, const PipelineConfig &cfg,
            StageHits &hits) {
            // Shared immutably with the cache — no per-cell copy.
            return cache.build(app, cfg, &hits);
        });

    // Stage executions this run come from the cache's counter delta;
    // per-cell reuse comes from the chain flags (a request chain
    // stops at its first cache hit, so raw request counters would
    // under-report upstream reuse). Disk hits are counted apart from
    // executions: a warmed store yields zero runs.
    for (Stage s : kStages) {
        StageStats after = cache.stats(s);
        report.stages[s].runs = after.executed - before[s].executed;
        report.stages[s].diskHits = after.diskHits - before[s].diskHits;
        for (const auto &r : report.records)
            report.stages[s].reuses += r.reused[s] ? 1 : 0;
    }
    if (cache.store()) {
        ArtifactStoreStats storeAfter = cache.store()->stats();
        report.cacheBytesRead =
            storeAfter.bytesRead - storeBefore.bytesRead;
        report.cacheBytesWritten =
            storeAfter.bytesWritten - storeBefore.bytesWritten;
    }
    return report;
}

BuildReport
Experiment::buildMatrixCold() const
{
    // Every cell compiles from source, nothing is shared and nothing
    // touches a store — the reference the equivalence gates compare
    // against.
    BuildReport report = buildCells(
        apps_, configs_, 1,
        [](const tinyos::AppInfo &app, const PipelineConfig &cfg,
           StageHits &) {
            return std::make_shared<const BuildResult>(
                buildSource(app.name, app.source, cfg));
        });
    // Every cell ran the whole pipeline by itself.
    for (Stage s : kStages)
        report.stages[s].runs = report.records.size();
    return report;
}

//---------------------------------------------------------------------
// Simulation engine
//---------------------------------------------------------------------

namespace {

/**
 * The simulation phase's cell shell: name each record after its build
 * and run `simCell(build, net, companionsReused)` for it. Each cell
 * gets its own fault plan: the campaign seed re-mixed with the app
 * name, so no two cells replay the same corruption schedule and both
 * paths mix to the identical seed.
 */
template <typename SimCell>
SimReport
simulateCells(const BuildReport &builds, unsigned jobs, double seconds,
              const sim::NetworkOptions &net, SimCell simCell)
{
    SimReport report;
    report.seconds = seconds;
    runCells(report, builds.numApps, builds.numConfigs, jobs,
             [&](SimRecord &rec, size_t appIdx, size_t cfgIdx) {
                 const BuildRecord &build = builds.at(appIdx, cfgIdx);
                 static_cast<CellId &>(rec) = build;
                 if (!build.ok)
                     throw FatalError("build failed: " + build.error);
                 sim::NetworkOptions cellNet = net;
                 if (cellNet.faults.anyFaults())
                     cellNet.faults.seed =
                         sim::mixSeed(cellNet.faults.seed, build.app);
                 rec.outcome =
                     simCell(build, cellNet, rec.companionsReused);
             });
    return report;
}

} // namespace

sim::NetworkOptions
Experiment::networkOptions() const
{
    sim::NetworkOptions net;
    net.faults = opts_.faults;
    net.wallLimitMs = opts_.cellTimeout * 1000.0;
    return net;
}

SimReport
Experiment::simulateBuilds(const BuildReport &builds,
                           StageCache &cache) const
{
    const size_t builds0 = cache.companionBuilds();
    const size_t hits0 = cache.companionHits();
    SimReport report = simulateCells(
        builds, opts_.jobs, opts_.seconds, networkOptions(),
        [&](const BuildRecord &build, const sim::NetworkOptions &net,
            bool &companionsReused) {
            // The cell's own firmware decodes once per cell; the
            // companions' decodes come from (and persist in) the
            // cache, shared across every cell and run. The companion
            // names ride on the BuildRecord, so custom rows outside
            // the app registry simulate fine.
            auto image = std::make_shared<const sim::DecodedProgram>(
                build.result->image);
            std::vector<std::shared_ptr<const sim::DecodedProgram>>
                companions;
            bool allReused = !build.companions.empty();
            for (const auto &cname : build.companions) {
                bool builtHere = false;
                companions.push_back(cache.companionDecode(
                    cname, build.platform, &builtHere));
                allReused = allReused && !builtHere;
            }
            companionsReused = allReused;
            return simulateDecoded(image, companions, opts_.seconds, net);
        });
    report.companionBuilds = cache.companionBuilds() - builds0;
    report.companionReuses = cache.companionHits() - hits0;
    return report;
}

SimReport
Experiment::simulateReference(const BuildReport &builds) const
{
    sim::NetworkOptions net = networkOptions();
    net.mode = sim::ExecMode::Legacy;
    net.lookahead = false;
    return simulateCells(
        builds, 1, opts_.seconds, net,
        [&](const BuildRecord &build, const sim::NetworkOptions &cellNet,
            bool &) {
            // Every cell rebuilds its companions from source.
            PipelineConfig base =
                configFor(ConfigId::Baseline, build.platform);
            std::vector<backend::MProgram> images;
            for (const auto &cname : build.companions)
                images.push_back(
                    buildApp(tinyos::appByName(cname), base).image);
            std::vector<const backend::MProgram *> companions;
            for (const auto &img : images)
                companions.push_back(&img);
            return simulateInContext(build.result->image, companions,
                                     opts_.seconds, cellNet);
        });
}

//---------------------------------------------------------------------
// Execution
//---------------------------------------------------------------------

ExperimentReport
Experiment::run() const
{
    StageCache cache;
    return run(cache);
}

ExperimentReport
Experiment::run(StageCache &cache) const
{
    ExperimentReport rep;
    rep.builds = buildMatrix(cache);
    if (opts_.simulate) {
        rep.sims = simulateBuilds(rep.builds, cache);
        rep.simulated = true;
    }
    return rep;
}

ExperimentReport
Experiment::runSerialReference() const
{
    ExperimentReport rep;
    rep.builds = buildMatrixCold();
    if (opts_.simulate) {
        rep.sims = simulateReference(rep.builds);
        rep.simulated = true;
    }
    return rep;
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
