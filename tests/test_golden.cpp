/**
 * @file
 * Golden-file tests. Two small example apps are compiled by the
 * frontend and their printed module text must match the checked-in
 * fixtures under tests/golden/. A frozen whole-matrix manifest pins
 * the behaviour of the whole toolchain: for every corpus app under
 * every matrix column it records the build's IR digest (the hash of
 * the serialized final module), the hash of the linked image, the
 * code/RAM/ROM sizes and the surviving check
 * branches. A frozen simulator manifest pins the simulator the same
 * way: every cell of that matrix simulated for 3 s on the default
 * core, with its cycle and instruction counters, halt/wedge state,
 * first trap FLID, hashes of the UART and trap logs, and the number
 * of superinstructions the decode of its image fused. The same run
 * also checks the clean corpus's invariants: no failed, wedged or
 * trapping cell, and every CFI column larger than its non-CFI twin.
 * A frozen store manifest pins the artifact store's wire format: the
 * hash of every stage product's serialized bytes, so a change of
 * layout or of stored values that forgot its kStoreFormatVersion bump
 * fails here.
 * Any intentional change is re-blessed by rerunning with
 * STOS_UPDATE_GOLDEN=1 and reviewing the fixture diff.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "backend/serialize.h"
#include "core/experiment.h"
#include "frontend/frontend.h"
#include "ir/printer.h"
#include "sim/decoded.h"
#include "support/binio.h"
#include "support/util.h"

#ifndef STOS_GOLDEN_DIR
#define STOS_GOLDEN_DIR "tests/golden"
#endif

namespace stos {
namespace {

using namespace stos::ir;

/**
 * Example app 1: an interrupt-driven counter — interrupt handlers,
 * atomic sections, globals, and arithmetic lowering.
 */
const char *kCounterApp = R"TC(
u16 count;
u8 overflowed;

void bump() {
    atomic {
        count = (u16)(count + 1);
        if (count == 0) { overflowed = 1; }
    }
}

interrupt(TIMER0) void on_tick() {
    bump();
}

u16 main() {
    count = 0;
    overflowed = 0;
    u8 i = 0;
    while (i < 10) {
        bump();
        i = (u8)(i + 1);
    }
    return count;
}
)TC";

/**
 * Example app 2: pointers, arrays, structs and function pointers —
 * the lowering paths the safety stage instruments.
 */
const char *kFilterApp = R"TC(
struct Sample { u16 value; u8 flags; };
struct Sample window[4];
u8 head;
fnptr handler;

void record(u16 v) {
    struct Sample s;
    s.value = v;
    s.flags = 1;
    window[(u8)(head & 3)] = s;
    head = (u8)(head + 1);
}

u16 smooth() {
    u16 acc = 0;
    u8 i = 0;
    while (i < 4) {
        acc = (u16)(acc + window[i].value);
        i = (u8)(i + 1);
    }
    return (u16)(acc >> 2);
}

void on_ready() { record(smooth()); }

u16 main() {
    handler = on_ready;
    record(100);
    record(300);
    if (handler != null) { handler(); }
    return smooth();
}
)TC";

std::string
printApp(const std::string &name, const char *src)
{
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC({{name + ".tc", src}}, diags, sm,
                                      name);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    return moduleToString(m);
}

std::string
goldenPath(const std::string &name)
{
    return std::string(STOS_GOLDEN_DIR) + "/" + name + ".golden";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Compare `printed` with fixture `name`, or bless it on request. */
void
checkGoldenText(const std::string &name, const std::string &printed)
{
    ASSERT_FALSE(printed.empty());
    std::string path = goldenPath(name);

    if (std::getenv("STOS_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << printed;
        GTEST_SKIP() << "fixture " << path << " regenerated";
    }

    std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << "missing fixture " << path
        << " (regenerate with STOS_UPDATE_GOLDEN=1)";
    if (printed != expected) {
        // Locate the first differing line for a readable failure.
        std::istringstream got(printed), want(expected);
        std::string gline, wline;
        size_t lineNo = 0;
        while (true) {
            ++lineNo;
            bool g = static_cast<bool>(std::getline(got, gline));
            bool w = static_cast<bool>(std::getline(want, wline));
            if (!g && !w)
                break;
            if (gline != wline || g != w) {
                FAIL() << name << ".golden line " << lineNo
                       << ":\n  expected: "
                       << (w ? wline : std::string("<eof>"))
                       << "\n  got:      "
                       << (g ? gline : std::string("<eof>"))
                       << "\n(bless with STOS_UPDATE_GOLDEN=1 after "
                          "review)";
            }
        }
        FAIL() << "printed text differs from " << path;
    }
}

void
checkGolden(const std::string &name, const char *src)
{
    checkGoldenText(name, printApp(name, src));
}

/**
 * The whole matrix: the full corpus under all 11 columns (Baseline,
 * the seven Figure-3 columns, the three CFI columns), built and
 * simulated for 3 s per cell on the default core. Run once and shared
 * by both manifests.
 */
const core::ExperimentReport &
matrixReport()
{
    static const core::ExperimentReport rep = [] {
        core::ExperimentOptions opts;
        opts.jobs = 2;
        opts.simulate = true;
        core::Experiment exp(opts);
        exp.addAllApps();
        exp.addConfig(core::ConfigId::Baseline);
        exp.addConfigs(core::figure3Configs());
        exp.addConfigs(core::cfiConfigs());
        return exp.run();
    }();
    return rep;
}

/** The build manifest: one tab-separated line per (app, config). */
std::string
matrixManifest()
{
    const core::ExperimentReport &rep = matrixReport();
    std::string out =
        "app\tconfig\tir_fnv1a\timage_fnv1a\tcode\tram\trom\t"
        "check_branches\n";
    for (const auto &r : rep.builds.records) {
        if (!r.ok) {
            out += strfmt("%s\t%s\tFAILED\n", r.app.c_str(),
                          r.config.c_str());
            continue;
        }
        const core::BuildResult &b = *r.result;
        support::BinWriter w;
        backend::writeProgram(w, b.image);
        out += strfmt(
            "%s\t%s\t%016llx\t%016llx\t%u\t%u\t%u\t%u\n",
            r.app.c_str(), r.config.c_str(),
            static_cast<unsigned long long>(b.irDigest),
            static_cast<unsigned long long>(support::fnv1a64(w.data())),
            b.codeBytes, b.ramBytes, b.romDataBytes,
            b.image.survivingCheckBranches());
    }
    return out;
}

/** FNV-1a over a trap log, one "flid:cycle:pc:kind;" per entry. */
uint64_t
trapLogHash(const std::vector<sim::TrapEntry> &log)
{
    std::string text;
    for (const auto &t : log)
        text += strfmt("%u:%llu:%u:%u;", t.flid,
                       static_cast<unsigned long long>(t.cycle), t.pc,
                       static_cast<unsigned>(t.kind));
    return support::fnv1a64(text);
}

/** The simulator manifest: one tab-separated line per (app, config). */
std::string
simManifest()
{
    const core::ExperimentReport &rep = matrixReport();
    std::string out =
        "app\tconfig\tawake\ttotal\tinstrs\thalted\twedged\t"
        "failed_flid\tuart_fnv1a\ttrap_fnv1a\tfused_pairs\n";
    for (const auto &s : rep.sims.records) {
        const core::BuildRecord *b =
            rep.builds.find(s.app, s.config);
        if (!s.ok || !b || !b->ok) {
            out += strfmt("%s\t%s\tFAILED\n", s.app.c_str(),
                          s.config.c_str());
            continue;
        }
        const core::SimOutcome &o = s.outcome;
        sim::DecodedProgram decoded(b->result->image);
        out += strfmt(
            "%s\t%s\t%llu\t%llu\t%llu\t%d\t%d\t%u\t%016llx\t"
            "%016llx\t%zu\n",
            s.app.c_str(), s.config.c_str(),
            static_cast<unsigned long long>(o.awakeCycles),
            static_cast<unsigned long long>(o.totalCycles),
            static_cast<unsigned long long>(o.instructions),
            o.halted ? 1 : 0, o.wedged ? 1 : 0, o.failedFlid,
            static_cast<unsigned long long>(support::fnv1a64(o.uartLog)),
            static_cast<unsigned long long>(trapLogHash(o.trapLog)),
            decoded.fusedPairs());
    }
    return out;
}

/**
 * The store manifest: FNV-1a of every serialized stage product. Each
 * app's FrontendProduct, and its SafetyProduct, OptProduct and
 * BuildResult under Baseline (the unsafe pass-through) and under the
 * CFI column that runs every stage body.
 */
std::string
storeManifest()
{
    std::string out =
        "# Artifact-store payload hashes. Any diff here means the bytes\n"
        "# the store persists changed, in layout or in value: bump\n"
        "# kStoreFormatVersion in src/core/artifactstore.h, then re-bless.\n"
        "app\tproduct\tconfig\tpayload_fnv1a\n";
    auto line = [&out](const std::string &app, const char *product,
                       const char *config, const auto &p) {
        support::BinWriter w;
        p.serialize(w);
        out += strfmt("%s\t%s\t%s\t%016llx\n", app.c_str(), product,
                      config,
                      static_cast<unsigned long long>(
                          support::fnv1a64(w.data())));
    };
    core::StageCache cache;
    for (const auto &app : tinyos::allApps()) {
        line(app.name, "frontend", "-", *cache.frontend(app));
        for (core::ConfigId id : {core::ConfigId::Baseline,
                                  core::ConfigId::SafeFlidInlineCxpropCfi}) {
            const core::PipelineConfig cfg =
                core::configFor(id, app.platform);
            const char *config = core::configName(id);
            line(app.name, "safety", config, *cache.safety(app, cfg));
            line(app.name, "opt", config, *cache.opt(app, cfg));
            line(app.name, "build", config, *cache.build(app, cfg));
        }
    }
    return out;
}

TEST(GoldenPrinter, CounterApp)
{
    checkGolden("counter", kCounterApp);
}

TEST(GoldenPrinter, FilterApp)
{
    checkGolden("sample_filter", kFilterApp);
}

/**
 * Any change to what the toolchain produces for any cell, however a
 * refactor or optimization arrives at it, shows up here.
 */
TEST(GoldenManifest, WholeMatrix)
{
    checkGoldenText("matrix_manifest", matrixManifest());
}

/**
 * Any change to what the simulator does with any cell (counters,
 * logs, or how many pairs the decoder fuses) shows up here.
 */
TEST(GoldenManifest, Simulator)
{
    checkGoldenText("sim_manifest", simManifest());
}

/**
 * Any change to the bytes the artifact store persists for any stage
 * product shows up here; see the fixture's header.
 */
TEST(GoldenManifest, StoreFormat)
{
    checkGoldenText("store_manifest", storeManifest());
}

/**
 * What the same run must show for the clean corpus under every
 * column: every cell builds and simulates without wedging, and no
 * cell traps (a CFI trap here is a false positive). Each CFI column
 * also out-sizes its non-CFI twin for every app, because the label
 * table, forward checks and shadow-stack ops are real code the
 * backend priced in.
 */
TEST(GoldenManifest, CleanCorpusInvariants)
{
    using core::ConfigId;
    const core::ExperimentReport &rep = matrixReport();
    const size_t apps = rep.builds.numApps;
    EXPECT_GE(apps, 25u);
    ASSERT_EQ(rep.builds.records.size(), 11 * apps);
    ASSERT_EQ(rep.sims.records.size(), 11 * apps);
    for (const auto &b : rep.builds.records)
        ASSERT_TRUE(b.ok) << b.app << " / " << b.config << ": " << b.error;
    for (const auto &s : rep.sims.records) {
        const std::string cell = s.app + " / " + s.config;
        EXPECT_TRUE(s.ok) << cell << ": " << s.error;
        EXPECT_FALSE(s.outcome.wedged) << cell;
        EXPECT_EQ(s.outcome.traps, 0u) << cell;
        EXPECT_EQ(s.outcome.cfiTraps, 0u) << cell;
    }
    const std::pair<ConfigId, ConfigId> twins[] = {
        {ConfigId::SafeFlidCfi, ConfigId::SafeFlid},
        {ConfigId::SafeFlidInlineCxpropCfi, ConfigId::SafeFlidInlineCxprop},
        {ConfigId::CfiOnly, ConfigId::Baseline},
    };
    for (const auto &[cfi, twin] : twins) {
        size_t compared = 0;
        for (const auto &b : rep.builds.records) {
            if (b.config != core::configName(cfi))
                continue;
            const core::BuildRecord *t =
                rep.builds.find(b.app, core::configName(twin));
            ASSERT_NE(t, nullptr) << b.app;
            EXPECT_GT(b.result->codeBytes, t->result->codeBytes)
                << b.app << ": " << b.config << " vs " << t->config;
            ++compared;
        }
        EXPECT_EQ(compared, apps) << core::configName(cfi);
    }
}

/**
 * A hand-built 2 apps x 2 configs report that reaches every emitter
 * branch with fixed timings: a cell that builds and simulates under
 * faults (trap log, UART output), one that builds but fails to
 * simulate (its error needs CSV and JSON quoting), one whose build
 * fails, and one with every reuse flag set.
 */
core::ExperimentReport
handBuiltReport()
{
    core::ExperimentReport rep;
    rep.simulated = true;
    core::BuildReport &b = rep.builds;
    core::SimReport &s = rep.sims;
    b.numApps = s.numApps = 2;
    b.numConfigs = s.numConfigs = 2;
    b.records.resize(4);
    s.records.resize(4);
    const char *apps[] = {"Surge", "BlinkTask"};
    const std::string configs[] = {
        core::configName(core::ConfigId::Baseline),
        core::configName(core::ConfigId::SafeFlidInlineCxprop)};
    for (uint32_t a = 0; a < 2; ++a) {
        for (uint32_t c = 0; c < 2; ++c) {
            core::BuildRecord &br = b.at(a, c);
            core::SimRecord &sr = s.at(a, c);
            br.app = sr.app = apps[a];
            br.platform = sr.platform = "Mica2";
            br.config = sr.config = configs[c];
            br.appIndex = sr.appIndex = a;
            br.configIndex = sr.configIndex = c;
            br.millis = 10.0 + a * 2 + c + 0.125;
            sr.millis = 20.0 + a * 2 + c + 0.5;
        }
    }
    auto result = [](uint32_t code, uint32_t ram, uint32_t rom,
                     uint32_t surviving, uint32_t inserted,
                     uint32_t removed) {
        auto r = std::make_shared<core::BuildResult>();
        r->codeBytes = code;
        r->ramBytes = ram;
        r->romDataBytes = rom;
        r->survivingChecks = surviving;
        r->safetyReport.checksInserted = inserted;
        r->cxpropReport.checksRemoved = removed;
        return r;
    };
    auto outcome = [](uint64_t awake, uint64_t total, uint64_t instrs) {
        core::SimOutcome o;
        o.awakeCycles = awake;
        o.totalCycles = total;
        o.instructions = instrs;
        o.dutyCycle = static_cast<double>(awake) /
                      static_cast<double>(total);
        return o;
    };

    // Surge / baseline: built, simulated under faults.
    b.at(0, 0).ok = true;
    b.at(0, 0).result = result(4210, 388, 12, 0, 0, 0);
    core::SimRecord &faulted = s.at(0, 0);
    faulted.ok = true;
    faulted.outcome = outcome(1234567, 22118400, 987654);
    faulted.outcome.failedFlid = 17;
    faulted.outcome.uartLog = "hello\n";
    faulted.outcome.traps = 2;
    faulted.outcome.cfiTraps = 1;
    faulted.outcome.reboots = 1;
    faulted.outcome.crashes = 1;
    faulted.outcome.downCycles = 4096;
    faulted.outcome.wedgedCycles = 512;
    faulted.outcome.availability = 0.999791667;
    faulted.outcome.trapLog = {{17, 1000, 0x1a2, 0}, {3, 250000, 0x3f0, 1}};
    faulted.outcome.packetsDropped = 3;
    faulted.outcome.packetsCorrupted = 2;
    faulted.outcome.packetsDuplicated = 1;

    // Surge / safe: built, but the simulation failed.
    b.at(0, 1).ok = true;
    b.at(0, 1).result = result(5120, 402, 30, 7, 41, 34);
    s.at(0, 1).error = "cell timeout, \"watchdog\" fired\nafter 1.5 s";

    // BlinkTask / baseline: the build failed.
    b.at(1, 0).error = "parse error: expected ')', got \"{\"";
    s.at(1, 0).error = "build failed: " + b.at(1, 0).error;

    // BlinkTask / safe: every stage and companion reused.
    core::BuildRecord &reused = b.at(1, 1);
    reused.ok = true;
    reused.result = result(1002, 44, 6, 2, 9, 7);
    reused.reused.each.fill(true);
    s.at(1, 1).ok = true;
    s.at(1, 1).outcome = outcome(2048, 7372800, 1500);
    s.at(1, 1).outcome.halted = true;
    s.at(1, 1).companionsReused = true;

    using core::Stage;  // {runs, reuses, diskHits} per stage
    b.stages[Stage::Frontend] = {2, 2, 1};
    b.stages[Stage::Safety] = {3, 1, 2};
    b.stages[Stage::Opt] = {2, 1, 3};
    b.stages[Stage::Backend] = {1, 2, 4};
    b.cacheBytesRead = 123456;
    b.cacheBytesWritten = 654321;
    b.wallMillis = 45.25;
    b.jobsUsed = 2;
    s.seconds = 3.0;
    s.companionBuilds = 2;
    s.companionReuses = 5;
    s.wallMillis = 81.75;
    s.jobsUsed = 2;
    return rep;
}

template <typename Emit>
std::string
emitted(Emit emit)
{
    std::ostringstream os;
    emit(os);
    return os.str();
}

/**
 * The bytes every report emitter and summary writes for the
 * hand-built report: any change to a column, its order, its
 * formatting or its quoting shows up here.
 */
TEST(GoldenReports, EveryEmitterAndSummary)
{
    const core::ExperimentReport rep = handBuiltReport();
    using OS = std::ostream;
    const std::pair<const char *, std::string> fixtures[] = {
        {"build_csv", emitted([&](OS &os) { rep.builds.emitCsv(os); })},
        {"build_json",
         emitted([&](OS &os) { rep.builds.emitJson(os); })},
        {"sim_csv", emitted([&](OS &os) { rep.sims.emitCsv(os); })},
        {"sim_json", emitted([&](OS &os) { rep.sims.emitJson(os); })},
        {"joined_csv",
         emitted([&](OS &os) { rep.sims.joinCsv(rep.builds, os); })},
        {"joined_json",
         emitted([&](OS &os) { rep.sims.joinJson(rep.builds, os); })},
        {"build_summary", rep.builds.summary() + "\n"},
        {"sim_summary", rep.sims.summary() + "\n"},
        {"experiment_summary", rep.summary() + "\n"},
    };
    for (const auto &[name, text] : fixtures) {
        SCOPED_TRACE(name);
        checkGoldenText(std::string("reports/") + name, text);
    }
}

/** The printer must be a pure function of the module. */
TEST(GoldenPrinter, PrintingIsDeterministic)
{
    EXPECT_EQ(printApp("counter", kCounterApp),
              printApp("counter", kCounterApp));
    EXPECT_EQ(printApp("sample_filter", kFilterApp),
              printApp("sample_filter", kFilterApp));
}

} // namespace
} // namespace stos
