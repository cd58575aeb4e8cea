#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <set>

#include "fuzz/fuzz.h"

namespace figbench {

using namespace stos;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

core::Experiment
declareMatrix(double simSeconds, unsigned jobs)
{
    core::ExperimentOptions opts;
    opts.jobs = jobs;
    opts.seconds = simSeconds;
    core::Experiment exp(opts);
    exp.addAllApps().addConfigs(matrixColumns());
    return exp;
}

size_t
executedStages(const core::StageCacheStats &s)
{
    return s.frontend.executed + s.safety.executed + s.opt.executed +
           s.backend.executed;
}

/** Return freed heap pages to the system, so every round's peak
 *  memory starts from the same baseline. */
void
releaseFreeMemory()
{
    malloc_trim(0);
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::ColdRegen: return "cold_regen";
      case Workload::WarmRegen: return "warm_regen";
      case Workload::SimLong: return "sim_long";
    }
    return "?";
}

bool
parseWorkload(const std::string &s, Workload *out)
{
    for (Workload w : {Workload::ColdRegen, Workload::WarmRegen,
                       Workload::SimLong}) {
        if (s == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

std::vector<core::ConfigId>
matrixColumns()
{
    std::vector<core::ConfigId> cols = {core::ConfigId::Baseline};
    for (auto id : core::figure3Configs())
        cols.push_back(id);
    for (auto id : core::cfiConfigs())
        cols.push_back(id);
    return cols;
}

EngineWorkload::EngineWorkload(Workload w, std::string workDir,
                               unsigned jobs)
    : w_(w), workDir_(std::move(workDir)), jobs_(jobs),
      warmDir_(workDir_ + "/warm-store")
{
}

EngineWorkload::~EngineWorkload()
{
    std::error_code ec;
    fs::remove_all(warmDir_, ec);
}

double
EngineWorkload::setUp()
{
    cache_.reset();
    builds_ = {};
    std::error_code ec;
    fs::remove_all(warmDir_, ec);
    releaseFreeMemory();

    auto t0 = Clock::now();
    exp_ = declareMatrix(w_ == Workload::SimLong ? kLongSimSeconds
                                                 : kFigureSimSeconds,
                         jobs_);
    fs::create_directories(workDir_);
    core::ExperimentReport warmRep;
    switch (w_) {
      case Workload::ColdRegen: {
        // Every round starts from an empty store, so set-up only
        // declares the matrix and derives each cell's content key.
        std::set<std::string> keys;
        for (const auto &app : exp_.apps()) {
            for (const auto &spec : exp_.configs())
                keys.insert(core::StageCache::buildKey(
                    app, spec.make(app.platform)));
        }
        distinctBuilds_ = keys.size();
        break;
      }
      case Workload::WarmRegen: {
        core::ArtifactStore store(core::CacheOptions{warmDir_});
        core::StageCache cache(&store);
        warmRep = exp_.run(cache);
        break;
      }
      case Workload::SimLong:
        cache_ = std::make_unique<core::StageCache>();
        builds_ = exp_.buildMatrix(*cache_);
        // Companion decodes are shared across rounds; materialize them
        // here so every timed round does the same work.
        for (const auto &rec : builds_.records) {
            for (const auto &c : rec.companions)
                cache_->companionDecode(c, rec.platform);
        }
        break;
    }
    double s = secondsSince(t0);
    if (w_ == Workload::WarmRegen)
        setupDigest_ = digestRound(warmRep.builds, warmRep.sims);
    return s;
}

EngineRound
EngineWorkload::round(unsigned index)
{
    // The previous round's products are gone by now; hand their pages
    // back before the clock starts.
    releaseFreeMemory();
    EngineRound r;
    std::error_code ec;
    if (w_ == Workload::SimLong) {
        auto t0 = Clock::now();
        r.sims = exp_.simulateBuilds(builds_, *cache_);
        r.wallS = secondsSince(t0);
        r.builds = builds_;
    } else {
        std::string dir = warmDir_;
        if (w_ == Workload::ColdRegen) {
            dir = workDir_ + "/cold-" + std::to_string(index);
            fs::remove_all(dir, ec);
        }
        std::unique_ptr<core::ArtifactStore> store;
        std::unique_ptr<core::StageCache> cache;
        auto t0 = Clock::now();
        store = std::make_unique<core::ArtifactStore>(
            core::CacheOptions{dir});
        cache = std::make_unique<core::StageCache>(store.get());
        core::ExperimentReport rep = exp_.run(*cache);
        r.wallS = secondsSince(t0);
        r.stages = cache->stats();
        r.stagesExecuted = executedStages(r.stages);
        r.builds = std::move(rep.builds);
        r.sims = std::move(rep.sims);
        cache.reset();
        store.reset();
        if (w_ == Workload::ColdRegen)
            fs::remove_all(dir, ec);
    }
    r.digest = digestRound(r.builds, r.sims);
    return r;
}

std::vector<SampledCell>
sampleCells(const EngineRound &r, uint64_t seed, size_t k)
{
    const size_t n = r.builds.records.size();
    std::vector<SampledCell> out;
    fuzz::Rng rng(seed);
    while (out.size() < k && out.size() < n) {
        size_t c = static_cast<size_t>(rng.next() % n);
        bool dup = false;
        for (const auto &o : out)
            dup = dup || o.cell == c;
        if (!dup)
            out.push_back({c, r.builds.records[c], r.sims.records[c]});
    }
    return out;
}

size_t
checkAgainstReference(const core::Experiment &exp,
                      std::vector<SampledCell> cells, std::string *log)
{
    core::Experiment full = exp;  // options() is non-const
    const size_t nConfigs = exp.numConfigs();
    size_t bad = 0;
    for (SampledCell &sc : cells) {
        const auto &app = exp.apps()[sc.cell / nConfigs];
        const auto &spec = exp.configs()[sc.cell % nConfigs];
        core::Experiment sub(full.options());
        sub.addApp(app).addCustom(spec.label, spec.make);
        core::ExperimentReport ref = sub.runSerialReference();

        // The sub-experiment is 1x1: compare at matrix position 0.
        sc.build.appIndex = sc.build.configIndex = 0;
        sc.sim.appIndex = sc.sim.configIndex = 0;
        std::string why;
        bool ok = ref.builds.records.size() == 1 &&
                  ref.sims.records.size() == 1 &&
                  core::BuildDriver::recordsEquivalent(
                      ref.builds.records[0], sc.build, &why) &&
                  core::SimDriver::recordsEquivalent(ref.sims.records[0],
                                                     sc.sim, &why);
        if (!ok)
            ++bad;
        if (log)
            *log += "  reference " + app.name + "/" + spec.label + ": " +
                    (ok ? std::string("identical") : "DIFFERS: " + why) +
                    "\n";
    }
    return bad;
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace figbench
