/**
 * @file
 * figbench: the figure-regeneration benchmark. One process, a fixed
 * number of pool workers (--jobs, default 2; never derived from the
 * machine's core count), one workload per invocation:
 *
 *   figbench --workload cold_regen|warm_regen|sim_long --seed N
 *            --seconds S --trace 0|1 [--jobs J] [--work-dir DIR]
 *            [--trace-file PATH]
 *
 * --trace 0 sets the workload up several times (setup_s is the
 * median), then repeats its round until S seconds have passed and
 * reports the median round, the output check, and the end-to-end
 * metrics. --trace 1 spends half of S on untraced engine rounds and
 * half on the traced replay (replay.h), prints a per-layer self-time
 * table, writes a Chrome trace, and reports the per-layer metrics.
 * The last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "replay.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

using namespace figbench;
using namespace stos;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/** Cells sampled per run for the cold serial Legacy reference. */
constexpr size_t kReferenceSample = 4;
constexpr unsigned kMinRounds = 3;

struct Options {
    Workload workload = Workload::ColdRegen;
    bool haveWorkload = false;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 2;
    std::string workDir = "figbench-work";
    std::string traceFile;
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Fixed-format number with every digit the double carries. */
std::string
num(double v)
{
    char buf[64];
    snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
emitResult(size_t attempted, size_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    s += "}}";
    std::cout << s << std::endl;
}

bool
parseArgs(int argc, char **argv, Options *o, std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i], v;
        auto eq = a.find('=');
        if (eq != std::string::npos) {
            v = a.substr(eq + 1);
            a = a.substr(0, eq);
        } else if (i + 1 < argc) {
            v = argv[++i];
        } else {
            *err = "missing value for " + a;
            return false;
        }
        try {
            if (a == "--workload") {
                if (!parseWorkload(v, &o->workload)) {
                    *err = "unknown workload " + v;
                    return false;
                }
                o->haveWorkload = true;
            } else if (a == "--seed") {
                o->seed = std::stoull(v);
            } else if (a == "--seconds") {
                o->seconds = std::stod(v);
            } else if (a == "--trace") {
                o->trace = std::stoi(v) != 0;
            } else if (a == "--jobs") {
                o->jobs = static_cast<unsigned>(std::stoul(v));
            } else if (a == "--work-dir") {
                o->workDir = v;
            } else if (a == "--trace-file") {
                o->traceFile = v;
            } else {
                *err = "unknown option " + a;
                return false;
            }
        } catch (const std::exception &) {
            *err = "bad value for " + a + ": " + v;
            return false;
        }
    }
    if (!o->haveWorkload) {
        *err = "--workload is required";
        return false;
    }
    if (o->jobs == 0 || o->seconds <= 0) {
        *err = "--jobs and --seconds must be positive";
        return false;
    }
    return true;
}

/** Deterministic quality counts of one round, over every ok cell. */
struct MatrixCounts {
    double codeBytes = 0, survivingChecks = 0, awakeMcycles = 0;
};

MatrixCounts
matrixCounts(const EngineRound &r)
{
    MatrixCounts c;
    for (const auto &b : r.builds.records) {
        if (b.ok) {
            c.codeBytes += b.result->codeBytes;
            c.survivingChecks +=
                b.result->image.survivingCheckBranches();
        }
    }
    for (const auto &s : r.sims.records) {
        if (s.ok)
            c.awakeMcycles += static_cast<double>(s.outcome.awakeCycles);
    }
    c.awakeMcycles /= 1e6;
    return c;
}

/**
 * Failed cells of one engine round: failed or digest-mismatching cells
 * against the reference digest (round 1's; for warm_regen the set-up
 * cold round's), or every cell when a warm round executed a stage.
 */
size_t
roundFailures(const EngineWorkload &eng, const RoundDigest &ref,
              const EngineRound &r, unsigned index)
{
    size_t failed = failedCells(ref, r.digest);
    if (eng.workload() == Workload::WarmRegen && r.stagesExecuted > 0) {
        std::printf("  round %u executed %zu stages on a warm store: "
                    "every cell of the round counts as failed\n",
                    index, r.stagesExecuted);
        failed = r.digest.cells.size();
    }
    return failed;
}

bool
deadlinePassed(Clock::time_point deadline, unsigned done)
{
    return done >= kMinRounds && Clock::now() >= deadline;
}

Clock::time_point
after(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

//---------------------------------------------------------------------
// --trace 0: timed engine rounds and the end-to-end metrics
//---------------------------------------------------------------------

int
runTimed(const Options &o)
{
    EngineWorkload eng(o.workload, o.workDir, o.jobs);
    const unsigned nSetups = o.workload == Workload::ColdRegen ? 5 : 3;
    std::vector<double> setups;
    for (unsigned i = 0; i < nSetups; ++i)
        setups.push_back(eng.setUp());
    std::printf("figbench %s: seed %llu, jobs %u, %zu apps x %zu columns\n",
                workloadName(o.workload),
                static_cast<unsigned long long>(o.seed), o.jobs,
                eng.experiment().numApps(), eng.experiment().numConfigs());
    std::printf("  set-up x%u: median %.6f s\n", nSetups, median(setups));
    if (o.workload == Workload::ColdRegen)
        std::printf("  %zu distinct build keys\n", eng.distinctBuilds());

    auto deadline = after(o.seconds);
    std::vector<double> walls;
    RoundDigest ref;
    MatrixCounts c;
    std::vector<SampledCell> sample;
    size_t attempted = 0, failed = 0;
    for (unsigned i = 1; !deadlinePassed(deadline, i - 1); ++i) {
        EngineRound r = eng.round(i);
        if (i == 1) {
            // Keep only what the checks need: later rounds must not
            // run with a second matrix resident.
            ref = o.workload == Workload::WarmRegen ? eng.setupDigest()
                                                    : r.digest;
            c = matrixCounts(r);
            sample = sampleCells(r, o.seed, kReferenceSample);
        }
        attempted += r.digest.cells.size();
        failed += roundFailures(eng, ref, r, i);
        walls.push_back(r.wallS);
    }

    std::string log;
    failed += checkAgainstReference(eng.experiment(), std::move(sample),
                                    &log);
    attempted += kReferenceSample;

    Tail tail = tailWithBeyond(walls);
    std::printf("  rounds: %zu, digest %016llx, wall s:", walls.size(),
                static_cast<unsigned long long>(ref.total));
    for (double w : walls)
        std::printf(" %.4f", w);
    std::printf("\n");
    std::fputs(log.c_str(), stdout);
    if (tail.found)
        std::printf("  wall_s_hi: p%g = %.4f s (%zu rounds, %zu beyond)\n",
                    tail.percentile, tail.value, tail.samples,
                    tail.beyond);
    else
        std::printf("  wall_s_hi: not reported (%zu rounds; a tail needs "
                    "10 beyond it)\n",
                    tail.samples);
    std::printf("  fail_frac: %zu / %zu = %g\n", failed, attempted,
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0);

    std::vector<Metric> metrics = {
        {"setup_s", median(setups), "s"},
        {"wall_s", median(walls), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"code_bytes", c.codeBytes, "bytes"},
        {"surviving_checks", c.survivingChecks, "count"},
        {"sim_awake_mcycles", c.awakeMcycles, "Mcycles"},
    };
    for (const Metric &m : metrics)
        std::printf("  %-18s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    emitResult(attempted, failed, metrics);
    return 0;
}

//---------------------------------------------------------------------
// --trace 1: untraced engine rounds vs. the traced replay
//---------------------------------------------------------------------

/** The layers whose self time should lead each workload. */
std::set<std::string>
intendedLayers(Workload w)
{
    switch (w) {
      case Workload::ColdRegen: return {"opt"};
      case Workload::WarmRegen: return {"store", "decode"};
      case Workload::SimLong: return {"dispatch"};
    }
    return {};
}

/** Layers of the stage graph and simulator (the replay's own glue —
 *  round, pool and cell spans — is reported apart). */
const std::vector<std::string> &
srcLayers()
{
    static const std::vector<std::string> layers = {
        "frontend", "safety", "opt",    "backend",
        "store",    "decode", "dispatch"};
    return layers;
}

int
runTraced(const Options &o)
{
    EngineWorkload eng(o.workload, o.workDir, o.jobs);
    eng.setUp();
    const size_t n = eng.experiment().numApps() * eng.experiment().numConfigs();
    const bool simOnly = o.workload == Workload::SimLong;
    const double simSeconds = simOnly ? kLongSimSeconds : kFigureSimSeconds;
    std::printf("figbench %s --trace 1: seed %llu, jobs %u, %zu cells\n",
                workloadName(o.workload),
                static_cast<unsigned long long>(o.seed), o.jobs, n);

    // Untraced engine rounds: the overhead baseline, pool and
    // stage-cache metrics.
    size_t attempted = 0, failed = 0;
    std::vector<double> walls, buildMs, simMs, busy;
    EngineRound first;
    RoundDigest ref;
    auto deadline = after(o.seconds / 2);
    for (unsigned i = 1; !deadlinePassed(deadline, i - 1); ++i) {
        EngineRound r = eng.round(i);
        if (i == 1)
            ref = o.workload == Workload::WarmRegen ? eng.setupDigest()
                                                    : r.digest;
        attempted += n;
        failed += roundFailures(eng, ref, r, i);
        walls.push_back(r.wallS);
        double bWall = simOnly ? 0 : r.builds.wallMillis;
        double cellMs = 0;
        if (!simOnly) {
            for (const auto &b : r.builds.records)
                cellMs += b.millis;
        }
        for (const auto &s : r.sims.records)
            cellMs += s.millis;
        buildMs.push_back(bWall);
        simMs.push_back(r.sims.wallMillis);
        busy.push_back(cellMs / (o.jobs * (bWall + r.sims.wallMillis)));
        if (i == 1)
            first = std::move(r);
    }

    // Traced replay rounds.
    Tracer tracer;
    std::vector<double> replayWalls;
    std::vector<sim::MoteSnapshot> firstSnapshots;
    deadline = after(o.seconds / 2);
    for (unsigned i = 1; !deadlinePassed(deadline, i - 1); ++i) {
        ReplayRound rr = replayRound(eng, tracer, o.workDir, i);
        attempted += n;
        size_t bad = failedCells(first.digest, rr.digest);
        if (bad)
            std::printf("  replay round %u: %zu cells differ from the "
                        "engine round\n",
                        i, bad);
        if (i == 1) {
            firstSnapshots = std::move(rr.snapshots);
        } else {
            size_t snapBad = 0;
            for (size_t c = 0; c < n; ++c)
                snapBad += !(rr.snapshots[c] == firstSnapshots[c]);
            if (snapBad)
                std::printf("  replay round %u: %zu mote snapshots differ "
                            "from round 1\n",
                            i, snapBad);
            if (tracer.counts(i) != tracer.counts(1)) {
                std::printf("  replay round %u: layer counts differ from "
                            "round 1\n",
                            i);
                snapBad = n;
            }
            bad = std::max(bad, snapBad);
        }
        if (o.workload == Workload::WarmRegen && rr.stagesExecuted > 0) {
            std::printf("  replay round %u executed %zu stages on a warm "
                        "store\n",
                        i, rr.stagesExecuted);
            bad = n;
        }
        failed += bad;
        replayWalls.push_back(rr.wallS);
    }

    // Self time per layer and per call, medians over replay rounds.
    const std::vector<Span> spans = tracer.spans();
    const std::vector<int64_t> self = selfTimes(spans);
    std::map<std::string, std::vector<double>> perLayer, perCall;
    const unsigned nReplays = static_cast<unsigned>(replayWalls.size());
    {
        auto slot = [&](std::map<std::string, std::vector<double>> &m,
                        const std::string &k) -> std::vector<double> & {
            auto &v = m[k];
            v.resize(nReplays, 0.0);
            return v;
        };
        for (const std::string &l : srcLayers())
            slot(perLayer, l);
        for (const char *k : {"serialize", "ArtifactStore::store",
                              "ArtifactStore::load", "deserialize"})
            slot(perCall, k);
        slot(perLayer, "glue");
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.round < 1 || s.round > nReplays)
                continue;
            std::string layer = s.layer;
            if (layer == "round" || layer == "pool" || layer == "cell")
                layer = "glue";
            slot(perLayer, layer)[s.round - 1] += self[i] / 1e6;
            if (layer == "store")
                slot(perCall, s.name)[s.round - 1] += self[i] / 1e6;
        }
    }
    auto layerMs = [&](const std::string &l) { return median(perLayer[l]); };
    auto callMs = [&](const std::string &k) { return median(perCall[k]); };

    const double untraced = median(walls), traced = median(replayWalls);

    double total = 0;
    for (const auto &[l, v] : perLayer)
        total += median(v);
    std::printf("  self time per replayed round (median of %u rounds; "
                "%u workers, so the sum exceeds wall time):\n",
                nReplays, o.jobs);
    for (const auto &[l, v] : perLayer)
        std::printf("    %-9s %10.2f ms  %5.1f%%\n", l.c_str(), median(v),
                    total > 0 ? 100.0 * median(v) / total : 0.0);

    const std::set<std::string> want = intendedLayers(o.workload);
    double wantMs = 0, otherMax = 0;
    std::string otherName = "-";
    for (const std::string &l : srcLayers()) {
        if (want.count(l)) {
            wantMs += layerMs(l);
        } else if (layerMs(l) > otherMax) {
            otherMax = layerMs(l);
            otherName = l;
        }
    }
    std::string wantName;
    for (const auto &l : want)
        wantName += (wantName.empty() ? "" : "+") + l;
    std::printf("  intended layer %s: %.2f ms vs next %s %.2f ms -> %s\n",
                wantName.c_str(), wantMs, otherName.c_str(), otherMax,
                wantMs > otherMax ? "largest (as designed)"
                                  : "NOT the largest (workload misses "
                                    "its layer)");
    std::printf("  tracing overhead: traced replay %.4f s vs untraced "
                "engine %.4f s per round (%+.1f%%)\n",
                traced, untraced, 100.0 * (traced - untraced) / untraced);

    std::string traceFile = o.traceFile.empty()
                                ? o.workDir + "/trace-" +
                                      workloadName(o.workload) + ".json"
                                : o.traceFile;
    // The file holds the first rounds only; a warm_regen run replays
    // about a hundred rounds, and they all look alike.
    constexpr uint32_t kTracedRoundsWritten = 3;
    {
        std::ofstream os(traceFile);
        tracer.writeChromeTrace(os, kTracedRoundsWritten);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", traceFile.c_str());
            return 1;
        }
    }
    std::printf("  trace: %zu spans of %u rounds; rounds 1-%u -> %s\n",
                spans.size(), nReplays,
                std::min(nReplays, kTracedRoundsWritten), traceFile.c_str());

    const auto c = tracer.counts(1);
    auto cnt = [&](const char *k) {
        auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    const core::StageCacheStats &st = first.stages;
    double executed = static_cast<double>(first.stagesExecuted);
    double reused = static_cast<double>(st.frontend.reused + st.safety.reused +
                                        st.opt.reused + st.backend.reused);
    double disk =
        static_cast<double>(st.frontend.diskHits + st.safety.diskHits +
                            st.opt.diskHits + st.backend.diskHits);
    double requests = executed + reused + disk;
    double dispatchMs = layerMs("dispatch");
    double minstr = cnt("dispatch.instrs") / 1e6;

    if (simOnly)
        std::printf("  sim_minstr_per_s: %.2f Minstr/s (all motes, "
                    "untraced sim phase %.3f s)\n",
                    minstr / (median(simMs) / 1000.0),
                    median(simMs) / 1000.0);

    std::vector<Metric> m = {
        {"frontend.ms", layerMs("frontend"), "ms"},
        {"frontend.calls", cnt("frontend.calls"), "count"},
        {"frontend.ir_instrs_out", cnt("frontend.ir_instrs_out"), "count"},
        {"safety.ms", layerMs("safety"), "ms"},
        {"safety.calls", cnt("safety.calls"), "count"},
        {"safety.checks_inserted", cnt("safety.checks_inserted"), "count"},
        {"safety.ir_instrs_out", cnt("safety.ir_instrs_out"), "count"},
        {"opt.ms", layerMs("opt"), "ms"},
        {"opt.calls", cnt("opt.calls"), "count"},
        {"opt.cxprop_rounds", cnt("opt.cxprop_rounds"), "count"},
        {"opt.checks_removed", cnt("opt.checks_removed"), "count"},
        {"opt.funcs_inlined", cnt("opt.funcs_inlined"), "count"},
        {"opt.ir_instrs_out", cnt("opt.ir_instrs_out"), "count"},
        {"backend.ms", layerMs("backend"), "ms"},
        {"backend.calls", cnt("backend.calls"), "count"},
        {"backend.code_bytes_out", cnt("backend.code_bytes_out"), "bytes"},
        {"stagecache.requests", requests, "count"},
        {"stagecache.executed", executed, "count"},
        {"stagecache.reused", reused, "count"},
        {"stagecache.disk_hits", disk, "count"},
        {"stagecache.hit_ratio", requests ? (reused + disk) / requests : 0,
         "ratio"},
        {"store.write_ms",
         callMs("serialize") + callMs("ArtifactStore::store"), "ms"},
        {"store.writes", cnt("store.writes"), "count"},
        {"store.write_mb", cnt("store.write_bytes") / 1048576.0, "MB"},
        {"store.load_ms", callMs("ArtifactStore::load"), "ms"},
        {"store.loads", cnt("store.loads"), "count"},
        {"store.load_mb", cnt("store.load_bytes") / 1048576.0, "MB"},
        {"store.deserialize_ms", callMs("deserialize"), "ms"},
        {"decode.ms", layerMs("decode"), "ms"},
        {"decode.programs", cnt("decode.programs"), "count"},
        {"decode.fused_pairs", cnt("decode.fused_pairs"), "count"},
        {"dispatch.ms", dispatchMs, "ms"},
        {"dispatch.minstr", minstr, "Minstr"},
        {"dispatch.minstr_per_s",
         dispatchMs > 0 ? minstr / (dispatchMs / 1000.0) : 0,
         "Minstr/s"},
        {"network.windows", cnt("network.windows"), "count"},
        {"network.hub_consultations", cnt("network.hub_consultations"),
         "count"},
        {"network.windows_per_sim_s",
         cnt("network.windows") / (static_cast<double>(n) * simSeconds),
         "1/s"},
        {"pool.build_phase_ms", median(buildMs), "ms"},
        {"pool.sim_phase_ms", median(simMs), "ms"},
        {"pool.busy_frac", median(busy), "ratio"},
        {"trace.untraced_wall_s", untraced, "s"},
        {"trace.traced_wall_s", traced, "s"},
        {"trace.overhead_frac", (traced - untraced) / untraced, "ratio"},
    };
    emitResult(attempted, failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string err;
    if (!parseArgs(argc, argv, &o, &err)) {
        std::fprintf(stderr,
                     "figbench: %s\nusage: figbench --workload "
                     "cold_regen|warm_regen|sim_long --seed N --seconds S "
                     "--trace 0|1 [--jobs J] [--work-dir DIR] "
                     "[--trace-file PATH]\n",
                     err.c_str());
        return 2;
    }
    try {
        fs::create_directories(o.workDir);
        return o.trace ? runTraced(o) : runTimed(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "figbench: %s\n", e.what());
        return 1;
    }
}
