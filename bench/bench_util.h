/**
 * @file
 * Shared helpers for the figure-reproduction benchmark binaries:
 * percentage formatting, consistent table layout matching the paper's
 * presentation (baseline = unsafe unoptimized build), and BenchCli —
 * the one place every bench parses its command line, runs its
 * Experiment, applies the --serial equivalence gate, and emits the
 * requested reports.
 */
#ifndef STOS_BENCH_BENCH_UTIL_H
#define STOS_BENCH_BENCH_UTIL_H

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace stos::bench {

inline double
pctChange(double value, double baseline)
{
    if (baseline == 0)
        return 0.0;
    return 100.0 * (value - baseline) / baseline;
}

inline void
printHeader(const std::string &title)
{
    printf("\n================================================================\n");
    printf("%s\n", title.c_str());
    printf("================================================================\n");
}

inline std::string
appLabel(const tinyos::AppInfo &app)
{
    return app.name + "_" + app.platform;
}

/** Build/Sim records share the app+platform identity fields. */
template <typename Record>
inline std::string
appLabel(const Record &rec)
{
    return rec.app + "_" + rec.platform;
}

/** Print every failed cell of a driver report; returns exit status. */
template <typename Report>
inline int
reportFailures(const Report &rep, const char *what = "BUILD")
{
    for (const auto &r : rep.records) {
        if (!r.ok)
            fprintf(stderr, "%s FAILED %s / %s: %s\n", what,
                    r.app.c_str(), r.config.c_str(), r.error.c_str());
    }
    return rep.allOk() ? 0 : 1;
}

/** Both phases of a combined report. */
inline int
reportFailures(const core::ExperimentReport &rep)
{
    int rc = reportFailures(rep.builds);
    if (rep.simulated)
        rc = reportFailures(rep.sims, "SIM") ? 1 : rc;
    return rc;
}

/**
 * Open `path` (empty = skip), run `emit(ostream)`, flush, and report
 * the outcome. The single emission path every report writer shares.
 */
template <typename Emit>
inline int
emitTo(const std::string &path, Emit emit)
{
    if (path.empty())
        return 0;
    std::ofstream os(path);
    if (os)
        emit(os);
    os.flush();
    if (!os) {
        fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    printf("wrote %s\n", path.c_str());
    return 0;
}

/**
 * Command-line surface shared by every figure benchmark:
 *
 *   --serial      also run the cold serial legacy reference (1 job,
 *                 no stage memoization, per-cell companion rebuilds,
 *                 legacy interpreter, lockstep networks) and gate
 *                 cell-for-cell equivalence against it
 *   --corpus=paper|full
 *                 row set for corpus-driven benches: the paper's
 *                 twelve applications (default, matches the figures)
 *                 or the whole expanded registry
 *   --jobs N      worker threads (0 = hardware threads, which also
 *                 cap N)
 *   --csv PATH    write the report as CSV
 *   --json PATH   write the report as JSON
 *   --joined-csv PATH   write the joined static+dynamic table as CSV
 *   --joined-json PATH  ditto as JSON
 *   --cache-dir PATH    back the run's StageCache with an on-disk
 *                 artifact store at PATH: each cell's build persists
 *                 across processes, and a warmed directory serves a
 *                 repeat run without executing a single stage; the
 *                 store's counters (disk hits, misses, corrupt
 *                 rejects, bytes) print after the run
 *   --faults=SPEC fault campaign for the simulation phase, e.g.
 *                 "mem=8,reg=4,crash=1,loss=0.1,corrupt=0.05,dup=0.02"
 *                 (sim/fault.h taxonomy)
 *   --fault-seed N      campaign seed (re-mixed per matrix cell)
 *   --fault-companions  also schedule state faults on companion
 *                 motes (default: node 1 only, so multi-mote
 *                 workloads keep a live peer)
 *   --recovery=wedge|reboot-on-trap|reboot-on-wedge
 *                 what a mote does when a safety check fires
 *   --cell-timeout SECONDS   wall-clock watchdog per simulated cell
 *                 (a runaway cell fails with a diagnostic, 0 = off)
 *
 * parse() resolves the simulated duration from
 * SAFE_TINYOS_SIM_SECONDS (a plain decimal number of seconds > 0 whose
 * cycle count fits the simulator, else the usage error; unset falls
 * back to the bench's default), so `seconds` is authoritative for
 * table headers.
 */
struct BenchCli {
    bool serial = false;
    unsigned jobs = 0;
    std::string corpus = "paper";
    std::string csvPath;
    std::string jsonPath;
    std::string joinedCsvPath;
    std::string joinedJsonPath;
    std::string cacheDir;
    double seconds = 0.0;
    sim::FaultOptions faults;
    bool recoverySet = false;  ///< --recovery= given explicitly
    double cellTimeout = 0.0;

    /** A whole non-negative decimal no larger than `max`. */
    static bool
    parseCount(const char *s, unsigned long long max,
               unsigned long long *out)
    {
        errno = 0;
        *out = std::strtoull(s, nullptr, 10);
        return *s && s[std::strspn(s, "0123456789")] == '\0' &&
               errno == 0 && *out <= max;
    }

    /** A finite non-negative decimal number of seconds: digits, an
     *  optional fraction and exponent, and nothing else (no sign,
     *  whitespace, hex, inf or nan, which strtod would take). */
    static bool
    parseSeconds(const char *s, double *out)
    {
        if (!*s || !std::strchr("0123456789.", *s) ||
            s[std::strspn(s, "0123456789.eE+-")] != '\0')
            return false;
        char *end = nullptr;
        errno = 0;
        *out = std::strtod(s, &end);
        return *end == '\0' && errno == 0 && std::isfinite(*out);
    }

    static BenchCli
    parse(int argc, char **argv, double defaultSeconds = 3.0)
    {
        BenchCli f;
        f.seconds = defaultSeconds;
        auto usage = [&] {
            fprintf(stderr,
                    "usage: %s [--serial] [--corpus=paper|full] "
                    "[--jobs N] [--csv PATH] [--json PATH] "
                    "[--joined-csv PATH] [--joined-json PATH] "
                    "[--cache-dir PATH] "
                    "[--faults=SPEC] [--fault-seed N] "
                    "[--fault-companions] [--recovery=POLICY] "
                    "[--cell-timeout SECS]\n",
                    argv[0]);
            std::exit(2);
        };
        auto badValue = [&](const char *flag, const char *value,
                            const char *want) {
            fprintf(stderr, "%s needs %s, got '%s'\n", flag, want,
                    value);
            usage();
        };
        if (const char *env = std::getenv("SAFE_TINYOS_SIM_SECONDS")) {
            bool ok = parseSeconds(env, &f.seconds) && f.seconds > 0;
            try {
                for (const auto &t : {backend::TargetInfo::mica2(),
                                      backend::TargetInfo::telosb()})
                    core::simCycles(f.seconds, t.clockHz);
            } catch (const FatalError &) {
                ok = false;
            }
            if (!ok)
                badValue("SAFE_TINYOS_SIM_SECONDS", env,
                         "a number of seconds > 0 that fits the "
                         "simulator's cycle counter");
        }
        unsigned long long count = 0;
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--serial")) {
                f.serial = true;
            } else if (!std::strncmp(argv[i], "--corpus=", 9)) {
                f.corpus = argv[i] + 9;
                if (f.corpus != "paper" && f.corpus != "full") {
                    fprintf(stderr,
                            "--corpus must be 'paper' or 'full'\n");
                    std::exit(2);
                }
            } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
                if (!parseCount(argv[++i], UINT_MAX, &count))
                    badValue("--jobs", argv[i], "a whole number >= 0");
                f.jobs = static_cast<unsigned>(count);
            } else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc) {
                f.csvPath = argv[++i];
            } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
                f.jsonPath = argv[++i];
            } else if (!std::strcmp(argv[i], "--joined-csv") &&
                       i + 1 < argc) {
                f.joinedCsvPath = argv[++i];
            } else if (!std::strcmp(argv[i], "--joined-json") &&
                       i + 1 < argc) {
                f.joinedJsonPath = argv[++i];
            } else if (!std::strcmp(argv[i], "--cache-dir") &&
                       i + 1 < argc) {
                f.cacheDir = argv[++i];
            } else if (!std::strncmp(argv[i], "--faults=", 9)) {
                std::string err;
                if (!sim::parseFaultSpec(argv[i] + 9, &f.faults,
                                         &err)) {
                    fprintf(stderr, "bad --faults spec: %s\n",
                            err.c_str());
                    std::exit(2);
                }
            } else if (!std::strcmp(argv[i], "--fault-seed") &&
                       i + 1 < argc) {
                if (!parseCount(argv[++i], UINT64_MAX, &count))
                    badValue("--fault-seed", argv[i],
                             "a whole number >= 0");
                f.faults.seed = count;
            } else if (!std::strcmp(argv[i], "--fault-companions")) {
                f.faults.faultCompanions = true;
            } else if (!std::strncmp(argv[i], "--recovery=", 11)) {
                if (!sim::parseRecoveryPolicy(argv[i] + 11,
                                              &f.faults.recovery)) {
                    fprintf(stderr,
                            "--recovery must be wedge, reboot-on-trap,"
                            " or reboot-on-wedge\n");
                    std::exit(2);
                }
                f.recoverySet = true;
            } else if (!std::strcmp(argv[i], "--cell-timeout") &&
                       i + 1 < argc) {
                if (!parseSeconds(argv[++i], &f.cellTimeout))
                    badValue("--cell-timeout", argv[i],
                             "a finite number of seconds >= 0");
            } else {
                usage();
            }
        }
        return f;
    }

    /**
     * The benchmark's row set: the paper's twelve (default) or the
     * whole registry, optionally filtered to one platform (the
     * Figure-3(c) Mica2 row set).
     */
    std::vector<tinyos::AppInfo>
    corpusApps(const std::string &platform = std::string()) const
    {
        const auto &src = corpus == "full" ? tinyos::allApps()
                                           : tinyos::paperApps();
        std::vector<tinyos::AppInfo> out;
        for (const auto &app : src) {
            if (platform.empty() || app.platform == platform)
                out.push_back(app);
        }
        return out;
    }

    /** ExperimentOptions for this command line. */
    core::ExperimentOptions
    options(bool simulate = true) const
    {
        core::ExperimentOptions o;
        o.jobs = jobs;
        o.simulate = simulate;
        o.seconds = seconds;
        o.faults = faults;
        o.cellTimeout = cellTimeout;
        return o;
    }

    /** The artifact store --cache-dir names, or null without one. */
    std::unique_ptr<core::ArtifactStore>
    openStore() const
    {
        if (cacheDir.empty())
            return nullptr;
        return std::make_unique<core::ArtifactStore>(
            core::CacheOptions{cacheDir});
    }

    /** Print the store's counters; nothing when `store` is null. */
    void
    printStore(const core::ArtifactStore *store) const
    {
        if (!store)
            return;
        core::ArtifactStoreStats s = store->stats();
        printf("[cache %s: %zu disk hits, %zu misses, %zu corrupt, "
               "%zu writes, %llu KiB read, %llu KiB written]\n",
               cacheDir.c_str(), s.diskHits, s.misses, s.corrupt,
               s.writes,
               static_cast<unsigned long long>(s.bytesRead / 1024),
               static_cast<unsigned long long>(s.bytesWritten / 1024));
    }

    /**
     * The --serial gate: with the flag, rerun `exp` as the cold serial
     * reference and compare it cell for cell against `out`. Returns 1
     * on a mismatch, else 0.
     */
    int
    serialGate(const core::Experiment &exp,
               const core::ExperimentReport &out) const
    {
        if (!serial)
            return 0;
        std::string why;
        if (!exp.verifySerialEquivalence(out, &why)) {
            fprintf(stderr, "EQUIVALENCE MISMATCH: %s\n", why.c_str());
            return 1;
        }
        printf("cold serial legacy reference identical cell-for-cell\n");
        return 0;
    }

    /** Write every requested report of `out`; 0 unless a write fails. */
    int
    emitReports(const core::ExperimentReport &out) const
    {
        if (int rc = emitTo(csvPath, [&](std::ostream &os) {
                out.emitCsv(os);
            }))
            return rc;
        if (int rc = emitTo(jsonPath, [&](std::ostream &os) {
                out.emitJson(os);
            }))
            return rc;
        if (int rc = emitTo(joinedCsvPath, [&](std::ostream &os) {
                out.emitJoinedCsv(os);
            }))
            return rc;
        return emitTo(joinedJsonPath, [&](std::ostream &os) {
            out.emitJoinedJson(os);
        });
    }

    /**
     * Run the declared experiment, print the stage/sim summaries,
     * report failed cells, apply the --serial cold-reference gate,
     * and write every requested report. Returns 0 and fills `out` on
     * success.
     */
    int
    run(core::Experiment &exp, core::ExperimentReport &out) const
    {
        // Reject impossible flag combinations before spending minutes
        // on the matrix (and the optional cold serial reference).
        if ((!joinedCsvPath.empty() || !joinedJsonPath.empty()) &&
            !exp.options().simulate) {
            fprintf(stderr,
                    "--joined-csv/--joined-json require a simulated "
                    "matrix\n");
            return 2;
        }
        // The store outlives the run, so its counters print after it.
        std::unique_ptr<core::ArtifactStore> store = openStore();
        core::StageCache cache(store.get());
        out = exp.run(cache);
        printf("[%s]\n", out.summary().c_str());
        printStore(store.get());
        if (int rc = reportFailures(out))
            return rc;
        if (int rc = serialGate(exp, out))
            return rc;
        return emitReports(out);
    }
};

} // namespace stos::bench

#endif
