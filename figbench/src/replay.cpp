#include "replay.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>

#include "core/pool.h"
#include "support/binio.h"

namespace figbench {

using namespace stos;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

size_t
irInstrs(const ir::Module &m)
{
    size_t n = 0;
    for (const auto &f : m.funcs()) {
        if (f.dead)
            continue;
        for (const auto &b : f.blocks)
            n += b.instrs.size();
    }
    return n;
}

/** Exactly-once, failure-caching memo (the StageCache entry pattern). */
template <typename T> class Memo {
  public:
    template <typename Fn>
    std::shared_ptr<const T>
    get(const std::string &key, Fn &&make)
    {
        std::shared_ptr<Entry> e;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto &slot = map_[key];
            if (!slot)
                slot = std::make_shared<Entry>();
            e = slot;
        }
        std::call_once(e->once, [&] {
            try {
                e->value = make();
            } catch (...) {
                e->error = std::current_exception();
            }
        });
        if (e->error)
            std::rethrow_exception(e->error);
        return e->value;
    }

  private:
    struct Entry {
        std::once_flag once;
        std::shared_ptr<const T> value;
        std::exception_ptr error;
    };
    std::mutex mu_;
    std::map<std::string, std::shared_ptr<Entry>> map_;
};

/** The stage graph of one round, driven through the stage functions. */
class StageReplay {
  public:
    StageReplay(Tracer &t, core::ArtifactStore *store)
        : t_(t), store_(store)
    {
    }

    std::shared_ptr<const core::BuildResult>
    build(const tinyos::AppInfo &app, const core::PipelineConfig &cfg)
    {
        const std::string key = core::StageCache::buildKey(app, cfg);
        return builds_.get(key, [&] {
            if (auto v = tryLoad<core::BuildResult>(core::Stage::Backend,
                                                    key))
                return v;
            auto op = opt(app, cfg);
            std::shared_ptr<const core::BuildResult> v;
            {
                SpanScope s(&t_, "backend", "runBackendStage");
                v = std::make_shared<const core::BuildResult>(
                    core::runBackendStage(
                        {op->module, op->safetyReport, op->report}, cfg));
            }
            ++executed_;
            t_.count("backend.calls", 1);
            t_.count("backend.code_bytes_out", v->codeBytes);
            writeBack(core::Stage::Backend, key, *v);
            return v;
        });
    }

    /** Companion firmware: the (app, Baseline) build plus one decode. */
    std::shared_ptr<const sim::DecodedProgram>
    companion(const std::string &name, const std::string &platform)
    {
        return companions_.get(name + "|" + platform, [&] {
            auto br = build(tinyos::appByName(name),
                            core::configFor(core::ConfigId::Baseline,
                                            platform));
            auto image =
                std::shared_ptr<const backend::MProgram>(br, &br->image);
            std::shared_ptr<const sim::DecodedProgram> d;
            {
                SpanScope s(&t_, "decode", "DecodedProgram");
                d = std::make_shared<const sim::DecodedProgram>(image);
            }
            t_.count("decode.programs", 1);
            t_.count("decode.fused_pairs", d->fusedPairs());
            return d;
        });
    }

    size_t executed() const { return executed_.load(); }

  private:
    std::shared_ptr<const core::FrontendProduct>
    frontend(const tinyos::AppInfo &app)
    {
        const std::string key = core::StageCache::appKey(app);
        return frontends_.get(key, [&] {
            if (auto v = tryLoad<core::FrontendProduct>(
                    core::Stage::Frontend, key))
                return v;
            std::shared_ptr<const core::FrontendProduct> v;
            {
                SpanScope s(&t_, "frontend", "runFrontend");
                v = std::make_shared<const core::FrontendProduct>(
                    core::runFrontend(app.name, app.source));
            }
            ++executed_;
            t_.count("frontend.calls", 1);
            t_.count("frontend.ir_instrs_out", irInstrs(v->module));
            writeBack(core::Stage::Frontend, key, *v);
            return v;
        });
    }

    std::shared_ptr<const core::SafetyProduct>
    safety(const tinyos::AppInfo &app, const core::PipelineConfig &cfg)
    {
        const std::string key = core::StageCache::safetyKey(app, cfg);
        return safeties_.get(key, [&] {
            if (auto v = tryLoad<core::SafetyProduct>(core::Stage::Safety,
                                                      key))
                return v;
            auto fe = frontend(app);
            std::shared_ptr<const core::SafetyProduct> v;
            if (!cfg.safe) {
                // Unsafe pass-through aliases the frontend module, as
                // StageCache does; runSafetyStage is not called.
                core::SafetyProduct sp;
                sp.module =
                    std::shared_ptr<const ir::Module>(fe, &fe->module);
                v = std::make_shared<const core::SafetyProduct>(
                    std::move(sp));
            } else {
                {
                    SpanScope s(&t_, "safety", "runSafetyStage");
                    v = std::make_shared<const core::SafetyProduct>(
                        core::runSafetyStage(fe->module.clone(),
                                             fe->sourceManager.get(), cfg));
                }
                t_.count("safety.calls", 1);
                t_.count("safety.checks_inserted",
                         v->report.checksInserted);
                t_.count("safety.ir_instrs_out", irInstrs(*v->module));
            }
            ++executed_;
            writeBack(core::Stage::Safety, key, *v);
            return v;
        });
    }

    std::shared_ptr<const core::OptProduct>
    opt(const tinyos::AppInfo &app, const core::PipelineConfig &cfg)
    {
        const std::string key = core::StageCache::optKey(app, cfg);
        return opts_.get(key, [&] {
            if (auto v = tryLoad<core::OptProduct>(core::Stage::Opt, key))
                return v;
            auto sp = safety(app, cfg);
            std::shared_ptr<const core::OptProduct> v;
            {
                SpanScope s(&t_, "opt", "runOptStage");
                v = std::make_shared<const core::OptProduct>(
                    core::runOptStage({sp->module, sp->report}, cfg));
            }
            ++executed_;
            t_.count("opt.calls", 1);
            t_.count("opt.cxprop_rounds", v->report.rounds);
            t_.count("opt.checks_removed", v->report.checksRemoved);
            t_.count("opt.funcs_inlined", v->report.funcsInlined);
            t_.count("opt.ir_instrs_out", irInstrs(*v->module));
            writeBack(core::Stage::Opt, key, *v);
            return v;
        });
    }

    /** StageCache::tryLoad, spanned: load, then deserialize. */
    template <typename T>
    std::shared_ptr<const T>
    tryLoad(core::Stage stage, const std::string &key)
    {
        if (!store_)
            return nullptr;
        std::string blob;
        bool hit;
        {
            SpanScope s(&t_, "store", "ArtifactStore::load");
            hit = store_->load(stage, key, &blob);
        }
        t_.count("store.loads", 1);
        if (!hit)
            return nullptr;
        t_.count("store.load_bytes", static_cast<double>(blob.size()));
        SpanScope s(&t_, "store", "deserialize");
        try {
            support::BinReader r(blob);
            return std::make_shared<const T>(T::deserialize(r));
        } catch (const support::TruncatedData &) {
            return nullptr;
        }
    }

    /** StageCache::writeBack, spanned: serialize, then store. */
    template <typename T>
    void
    writeBack(core::Stage stage, const std::string &key, const T &product)
    {
        if (!store_)
            return;
        support::BinWriter w;
        {
            SpanScope s(&t_, "store", "serialize");
            product.serialize(w);
        }
        {
            SpanScope s(&t_, "store", "ArtifactStore::store");
            store_->store(stage, key, w.data());
        }
        t_.count("store.writes", 1);
        t_.count("store.write_bytes", static_cast<double>(w.data().size()));
    }

    Tracer &t_;
    core::ArtifactStore *store_;
    Memo<core::FrontendProduct> frontends_;
    Memo<core::SafetyProduct> safeties_;
    Memo<core::OptProduct> opts_;
    Memo<core::BuildResult> builds_;
    Memo<sim::DecodedProgram> companions_;
    std::atomic<size_t> executed_{0};
};

/** The engine's view of the mote under test (pipeline collectOutcome). */
core::SimOutcome
outcomeOf(const sim::Machine &m)
{
    core::SimOutcome out;
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

ReplayRound
replayRound(const EngineWorkload &eng, Tracer &t, const std::string &workDir,
            unsigned index)
{
    const core::Experiment &exp = eng.experiment();
    const Workload w = eng.workload();
    const size_t nApps = exp.numApps(), nConfigs = exp.numConfigs();
    const size_t n = nApps * nConfigs;
    const double seconds =
        w == Workload::SimLong ? kLongSimSeconds : kFigureSimSeconds;

    std::string dir;
    std::error_code ec;
    if (w == Workload::ColdRegen) {
        dir = workDir + "/replay-" + std::to_string(index);
        fs::remove_all(dir, ec);
    } else if (w == Workload::WarmRegen) {
        dir = eng.warmDir();
    }

    t.setRound(index);
    std::vector<std::shared_ptr<const core::BuildResult>> builds(n);
    std::vector<std::optional<core::SimOutcome>> outcomes(n);
    ReplayRound out;
    out.snapshots.resize(n);
    std::unique_ptr<core::ArtifactStore> store;
    std::unique_ptr<StageReplay> stages;

    auto t0 = Clock::now();
    {
        SpanScope roundSpan(&t, "round", "round");
        if (!dir.empty())
            store = std::make_unique<core::ArtifactStore>(
                core::CacheOptions{dir});
        stages = std::make_unique<StageReplay>(t, store.get());

        if (w == Workload::SimLong) {
            for (size_t i = 0; i < n; ++i)
                builds[i] = eng.setupBuilds().records[i].result;
        } else {
            SpanScope phase(&t, "pool", "build phase");
            const uint32_t pid = phase.id();
            core::runOnPool(eng.jobs(), n, [&](size_t k) {
                size_t a = k % nApps, c = k / nApps, cell = a * nConfigs + c;
                SpanScope cs(&t, "cell", "build cell",
                             static_cast<int32_t>(cell), pid);
                const auto &app = exp.apps()[a];
                try {
                    builds[cell] = stages->build(
                        app, exp.configs()[c].make(app.platform));
                } catch (const std::exception &) {
                    builds[cell] = nullptr;  // digests as a failed cell
                }
            });
        }

        SpanScope phase(&t, "pool", "sim phase");
        const uint32_t pid = phase.id();
        core::runOnPool(eng.jobs(), n, [&](size_t k) {
            size_t a = k % nApps, c = k / nApps, cell = a * nConfigs + c;
            SpanScope cs(&t, "cell", "sim cell", static_cast<int32_t>(cell),
                         pid);
            if (!builds[cell])
                return;
            const auto &app = exp.apps()[a];
            try {
                std::shared_ptr<const sim::DecodedProgram> image;
                {
                    SpanScope s(&t, "decode", "DecodedProgram");
                    image = std::make_shared<const sim::DecodedProgram>(
                        builds[cell]->image);
                }
                t.count("decode.programs", 1);
                t.count("decode.fused_pairs", image->fusedPairs());

                sim::NetworkOptions netOpts;
                netOpts.mode = sim::ExecMode::Threaded;
                netOpts.lookahead = true;
                sim::Network net(netOpts);
                net.addMote(image, 1);
                uint8_t nextId = 2;
                for (const auto &cname : app.companions) {
                    net.addMote(
                        w == Workload::SimLong
                            ? eng.setupCache()->companionDecode(cname,
                                                                app.platform)
                            : stages->companion(cname, app.platform),
                        nextId++);
                }
                uint64_t cycles = static_cast<uint64_t>(
                    seconds *
                    static_cast<double>(image->program().target.clockHz));
                {
                    SpanScope s(&t, "dispatch", "Network::run");
                    net.run(cycles);
                }
                double instrs = 0, consults = 0;
                for (size_t m = 0; m < net.size(); ++m) {
                    instrs += static_cast<double>(
                        net.mote(m).instructionsExecuted());
                    consults += static_cast<double>(
                        net.mote(m).devices().hubConsultations());
                }
                t.count("dispatch.instrs", instrs);
                t.count("network.windows",
                        static_cast<double>(net.windows()));
                t.count("network.hub_consultations", consults);
                outcomes[cell] = outcomeOf(net.mote(0));
                out.snapshots[cell] = sim::snapshotOf(net.mote(0));
            } catch (const std::exception &) {
                outcomes[cell].reset();
            }
        });
    }
    out.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
    out.stagesExecuted = stages->executed();
    stages.reset();
    store.reset();
    if (w == Workload::ColdRegen)
        fs::remove_all(dir, ec);

    out.digest.cells.resize(n);
    out.digest.ok.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const core::SimOutcome *o = outcomes[i] ? &*outcomes[i] : nullptr;
        out.digest.ok[i] = builds[i] && o;
        out.digest.cells[i] = digestCell(builds[i].get(), o);
    }
    finishDigest(out.digest);
    return out;
}

} // namespace figbench
