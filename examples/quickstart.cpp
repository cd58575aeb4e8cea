/**
 * @file
 * Quickstart: compile a tiny TinyC program through the Safe TinyOS
 * pipeline, run it on the mote simulator, then demonstrate the whole
 * point — an out-of-bounds write is caught by an inserted dynamic
 * check and reported as a FLID that decodes to the exact source line.
 *
 * Build and run:  ./build/examples/quickstart
 */
#include <cstdio>

#include "core/pipeline.h"
#include "safety/flid.h"
#include "sim/machine.h"

using namespace stos;
using namespace stos::core;

namespace {

const char *kProgram = R"TC(
u8 readings[8];
u8 count;

task void record() {
    // BUG: the guard is off by one, so the 9th reading lands one
    // past the end of the buffer.
    if (count <= 8) {
        readings[count] = RANDOM;
        count = (u8)(count + 1);
    }
    stos_leds_set((u8)(count & 7));
}

interrupt(TIMER0) void on_timer() {
    post record;
}

void main() {
    stos_timer0_start(512);
    stos_run_scheduler();
}
)TC";

} // namespace

int
main()
{
    printf("=== Safe TinyOS quickstart ===\n\n");

    // 1. Build the same program twice: unsafe (plain backend) and
    //    safe (CCured-analogue + inliner + cXprop).
    PipelineConfig unsafeCfg = configFor(ConfigId::Baseline, "Mica2");
    PipelineConfig safeCfg =
        configFor(ConfigId::SafeFlidInlineCxprop, "Mica2");
    BuildResult unsafeBuild = buildSource("quickstart", kProgram,
                                          unsafeCfg);
    BuildResult safeBuild = buildSource("quickstart", kProgram, safeCfg);

    printf("unsafe build: %5u bytes code, %4u bytes RAM\n",
           unsafeBuild.codeBytes, unsafeBuild.ramBytes);
    printf("safe build:   %5u bytes code, %4u bytes RAM "
           "(%u checks inserted, %u removed by cXprop)\n\n",
           safeBuild.codeBytes, safeBuild.ramBytes,
           safeBuild.safetyReport.checksInserted,
           safeBuild.cxpropReport.checksRemoved);

    // 2. Run the unsafe build: the off-by-one silently corrupts the
    //    neighbouring `count` variable and the program keeps going.
    sim::Machine unsafeMote(unsafeBuild.image, 1);
    unsafeMote.boot();
    unsafeMote.runUntilCycle(8'000'000);
    printf("unsafe run:  %s after 8M cycles (count=%llu) — the bug "
           "corrupted memory silently\n",
           unsafeMote.wedged() ? "TRAPPED" : "still running",
           static_cast<unsigned long long>(
               unsafeMote.readGlobal("count", 1)));

    // 3. Run the safe build: the bounds check fires on the 9th write
    //    and halts the node with a 16-bit failure id.
    sim::Machine safeMote(safeBuild.image, 1);
    safeMote.boot();
    safeMote.runUntilCycle(8'000'000);
    if (safeMote.wedged() && safeMote.failedFlid() != 0) {
        printf("safe run:    TRAPPED with FLID %u\n",
               safeMote.failedFlid());
        printf("decoded:     %s\n",
               safety::decodeFlid(safeBuild.flidTable,
                                  safeMote.failedFlid())
                   .c_str());
    } else {
        printf("safe run:    unexpected: no fault caught\n");
        return 1;
    }

    printf("\nThe FLID table shipped with the firmware has %zu "
           "entries; the device itself stores none of the text.\n",
           safeBuild.flidTable.size());
    return 0;
}
