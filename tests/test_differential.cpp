/**
 * @file
 * Differential testing between the two executors: the IR reference
 * interpreter and the machine simulator must agree on observable
 * behaviour (UART output, final global values) for compute kernels,
 * across unsafe, safe, and safe+optimized builds. This cross-checks
 * lowering, instruction selection, the cost model's semantics, and
 * every optimization pass in one sweep.
 */
#include <gtest/gtest.h>

#include "backend/backend.h"
#include "core/experiment.h"
#include "frontend/frontend.h"
#include "ir/interp.h"
#include "opt/cxprop.h"
#include "safety/ccured.h"
#include "sim/machine.h"
#include "support/devmap.h"
#include "tinyos/tinyos.h"

namespace stos {
namespace {

using namespace stos::ir;

struct Kernel {
    const char *name;
    const char *src;
};

const Kernel kKernels[] = {
    {"checksum",
     R"TC(
u8 data[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
u16 main() {
    u16 sum = 0;
    u8 i = 0;
    while (i < 16) {
        sum = (u16)((sum << 1) ^ data[i]);
        i = (u8)(i + 1);
    }
    stos_uart_put_u16(sum);
    return sum;
}
)TC"},
    {"sort",
     R"TC(
u8 v[8] = {7, 2, 9, 4, 1, 8, 3, 6};
u16 main() {
    u8 i = 0;
    while (i < 8) {
        u8 j = 0;
        while (j < 7) {
            if (v[j] > v[(u8)(j + 1)]) {
                u8 t = v[j];
                v[j] = v[(u8)(j + 1)];
                v[(u8)(j + 1)] = t;
            }
            j = (u8)(j + 1);
        }
        i = (u8)(i + 1);
    }
    i = 0;
    while (i < 8) { stos_uart_put((u8)(48 + v[i])); i = (u8)(i + 1); }
    return v[0] + v[7] * 10;
}
)TC"},
    {"struct_queue",
     R"TC(
struct Item { u8 key; u16 weight; };
struct Item ring[4];
u8 head; u8 count;
void push(u8 k, u16 w) {
    if (count < 4) {
        struct Item it;
        it.key = k;
        it.weight = w;
        ring[(u8)((head + count) & 3)] = it;
        count = (u8)(count + 1);
    }
}
u16 pop() {
    if (count == 0) { return 0; }
    u16 w = ring[head].weight;
    head = (u8)((head + 1) & 3);
    count = (u8)(count - 1);
    return w;
}
u16 main() {
    push(1, 100); push(2, 250); push(3, 60);
    u16 a = pop();
    push(4, 9);
    u16 total = 0;
    while (count > 0) { total = total + pop(); }
    stos_uart_put_u16(total);
    return (u16)(a + total);
}
)TC"},
    {"string_scan",
     R"TC(
u8 text[20] = "the fat cat sat";
u16 main() {
    u8* p = text;
    u16 vowels = 0;
    u16 n = 0;
    while (p[n] != 0) {
        u8 c = p[n];
        if (c == 97 || c == 101 || c == 105 || c == 111 || c == 117) {
            vowels = vowels + 1;
        }
        n = n + 1;
    }
    stos_uart_put_u16(vowels);
    stos_uart_put(124);
    stos_uart_put_u16(n);
    return (u16)(vowels * 100 + n);
}
)TC"},
    {"fnptr_dispatch",
     R"TC(
u16 acc;
void addTwo() { acc = acc + 2; }
void triple() { acc = acc * 3; }
fnptr table[4];
u16 main() {
    table[0] = addTwo;
    table[1] = triple;
    table[2] = addTwo;
    table[3] = triple;
    acc = 1;
    u8 i = 0;
    while (i < 4) {
        fnptr f = table[i];
        if (f != null) { f(); }
        i = (u8)(i + 1);
    }
    stos_uart_put_u16(acc);
    return acc;
}
)TC"},
    {"pointer_walk",
     R"TC(
u16 grid[12];
u16 main() {
    u16* p = grid;
    u8 i = 0;
    while (i < 12) { p[i] = (u16)(i * i); i = (u8)(i + 1); }
    u16* q = grid + 11;
    u16 back = 0;
    while (q >= grid) {
        back = back + *q;
        if (q == grid) { break; }
        q = q - 1;
    }
    stos_uart_put_u16(back);
    return back;
}
)TC"},
};

enum class BuildMode { Unsafe, Safe, SafeOptimized };

const char *
modeName(BuildMode m)
{
    switch (m) {
      case BuildMode::Unsafe: return "unsafe";
      case BuildMode::Safe: return "safe";
      case BuildMode::SafeOptimized: return "safe_opt";
    }
    return "?";
}

struct Outcome {
    uint64_t ret = 0;
    std::string uart;
};

/** Run under the IR reference interpreter. */
Outcome
runInterp(Module &m)
{
    HwBus bus;
    Interp interp(m, &bus);
    auto r = interp.run("main");
    EXPECT_EQ(r.reason, StopReason::Returned) << r.detail;
    Outcome o;
    o.ret = r.retVal.i;
    for (const auto &w : bus.writeLog()) {
        if (w.addr == dev::kRegUartData)
            o.uart.push_back(static_cast<char>(w.value));
    }
    return o;
}

/** Run a pre-compiled firmware image on the machine simulator. */
Outcome
runImage(const backend::MProgram &img)
{
    sim::Machine mote(img, 1);
    mote.boot();
    mote.runUntilCycle(50'000'000);
    EXPECT_TRUE(mote.halted()) << "kernel must run to completion";
    EXPECT_FALSE(mote.wedged());
    Outcome o;
    o.uart = mote.devices().uartLog();
    return o;
}

/** Compile the module for Mica2 and run it on the simulator. */
Outcome
runMachine(Module &m)
{
    return runImage(
        backend::compileToTarget(m, backend::TargetInfo::mica2()));
}

class Differential
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Differential, InterpreterAndMachineAgree)
{
    const Kernel &k = kKernels[std::get<0>(GetParam())];
    BuildMode mode = static_cast<BuildMode>(std::get<1>(GetParam()));

    SourceManager sm;
    DiagnosticEngine diags(&sm);
    Module m = frontend::compileTinyC(
        {{"lib.tc", tinyos::libSource()}, {"k.tc", k.src}}, diags, sm);
    ASSERT_FALSE(diags.hasErrors()) << diags.dump();

    if (mode != BuildMode::Unsafe) {
        safety::SafetyConfig scfg;
        safety::applySafety(m, scfg, &sm);
    }
    if (mode == BuildMode::SafeOptimized) {
        opt::CxpropOptions copts;
        copts.inlineFirst = true;
        opt::runCxprop(m, copts);
    }

    // Interpreter and machine must emit identical UART streams;
    // and every mode must match the unsafe interpreter's result.
    Module forInterp = m.clone();
    Outcome iOut = runInterp(forInterp);
    Outcome mOut = runMachine(m);
    EXPECT_EQ(iOut.uart, mOut.uart)
        << k.name << " under " << modeName(mode);

    // Cross-mode reference: recompile unsafe and compare.
    SourceManager sm2;
    DiagnosticEngine d2(&sm2);
    Module ref = frontend::compileTinyC(
        {{"lib.tc", tinyos::libSource()}, {"k.tc", k.src}}, d2, sm2);
    Outcome refOut = runInterp(ref);
    EXPECT_EQ(iOut.ret, refOut.ret)
        << k.name << " result changed under " << modeName(mode);
    EXPECT_EQ(iOut.uart, refOut.uart);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Differential,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return std::string(kKernels[std::get<0>(info.param)].name) +
               "_" +
               modeName(static_cast<BuildMode>(std::get<1>(info.param)));
    });

/**
 * Every kernel under every Figure-3 configuration, batch-compiled by
 * the Experiment facade: the interpreter run of the final IR and the
 * machine run of the linked image must emit identical UART streams,
 * and every configuration must match the unsafe baseline's output.
 * Matrix records carry no IR, so each cell's final module comes from
 * buildSource, whose IR digest must match the record's. This widens
 * the three hand-picked modes above to the full evaluation matrix.
 */
TEST(DifferentialMatrix, AllFigure3ConfigsAgree)
{
    using namespace stos::core;

    Experiment exp;
    exp.options().simulate = false;
    for (const Kernel &k : kKernels)
        exp.addApp({k.name, "Mica2", k.src, {}, "kernel", {}});
    std::vector<ConfigId> configs = {ConfigId::Baseline};
    configs.insert(configs.end(), figure3Configs().begin(),
                   figure3Configs().end());
    exp.addConfigs(configs);
    BuildReport rep = exp.run().builds;
    ASSERT_TRUE(rep.allOk());
    ASSERT_EQ(rep.records.size(),
              std::size(kKernels) * (1 + figure3Configs().size()));

    for (size_t a = 0; a < rep.numApps; ++a) {
        // Column 0 (the unsafe baseline) doubles as the cross-config
        // reference output.
        Outcome ref;
        for (size_t c = 0; c < rep.numConfigs; ++c) {
            const BuildRecord &rec = rep.at(a, c);
            FullBuild full = buildSource(kKernels[a].name, kKernels[a].src,
                                         configFor(configs[c], "Mica2"));
            ASSERT_EQ(full.irDigest, rec.result->irDigest)
                << rec.app << " under " << rec.config;
            Outcome iOut = runInterp(full.module);
            Outcome mOut = runImage(rec.result->image);
            EXPECT_EQ(iOut.uart, mOut.uart)
                << rec.app << " under " << rec.config
                << ": interpreter vs machine";
            if (c == 0) {
                ref = iOut;
                continue;
            }
            EXPECT_EQ(iOut.uart, ref.uart)
                << rec.app << " under " << rec.config
                << ": output changed vs unsafe baseline";
            EXPECT_EQ(iOut.ret, ref.ret)
                << rec.app << " under " << rec.config
                << ": result changed vs unsafe baseline";
        }
    }
}

} // namespace
} // namespace stos
