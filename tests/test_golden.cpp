/**
 * @file
 * Golden-file tests. Two small example apps are compiled by the
 * frontend and their printed module text must match the checked-in
 * fixtures under tests/golden/. A frozen whole-matrix manifest pins
 * the behaviour of the whole toolchain: for every corpus app under
 * every matrix column it records hashes of the final IR text and of
 * the linked image, the code/RAM/ROM sizes and the surviving check
 * branches.
 * Any intentional change is re-blessed by rerunning with
 * STOS_UPDATE_GOLDEN=1 and reviewing the fixture diff.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "backend/serialize.h"
#include "core/experiment.h"
#include "frontend/frontend.h"
#include "ir/printer.h"
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
 * The whole-matrix behaviour manifest: the full corpus under all 11
 * columns (Baseline, the seven Figure-3 columns, the three CFI
 * columns), one tab-separated line per (app, config) cell.
 */
std::string
matrixManifest()
{
    core::ExperimentOptions opts;
    opts.jobs = 2;
    opts.simulate = false;
    core::Experiment exp(opts);
    exp.addAllApps();
    exp.addConfig(core::ConfigId::Baseline);
    exp.addConfigs(core::figure3Configs());
    exp.addConfigs(core::cfiConfigs());
    core::ExperimentReport rep = exp.run();

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
            static_cast<unsigned long long>(
                support::fnv1a64(moduleToString(b.module))),
            static_cast<unsigned long long>(support::fnv1a64(w.data())),
            b.codeBytes, b.ramBytes, b.romDataBytes,
            b.image.survivingCheckBranches());
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
