/**
 * @file
 * A small Surge sensor network: two safe Surge motes sampling and
 * forwarding readings toward a GenericBase bridge mote, all on the
 * cycle simulator. Reports traffic statistics and duty cycles — the
 * "reasonable sensor network context" of the paper's §3.4 — and shows
 * that safety checks stay silent during normal multihop operation.
 *
 * Build and run:  ./build/examples/surge_network
 */
#include <cstdio>

#include "core/pipeline.h"
#include "sim/machine.h"

using namespace stos;
using namespace stos::core;

int
main()
{
    printf("=== Surge multihop network (2 Surge + 1 base) ===\n\n");
    const auto &surge = tinyos::appByName("Surge");
    const auto &baseApp = tinyos::appByName("GenericBase");

    PipelineConfig safeCfg =
        configFor(ConfigId::SafeFlidInlineCxprop, "Mica2");
    BuildResult surgeBuild = buildApp(surge, safeCfg);
    BuildResult baseBuild = buildApp(baseApp, safeCfg);
    printf("Surge image: %u B code, %u B RAM, %u checks inserted, "
           "%u racy globals locked\n",
           surgeBuild.codeBytes, surgeBuild.ramBytes,
           surgeBuild.safetyReport.checksInserted,
           surgeBuild.safetyReport.racyGlobals);

    // Decode each firmware once and share the decode across the
    // motes that run it; the network steps them in radio-lookahead
    // windows on the threaded core (identical results to the legacy
    // lockstep reference — the equivalence suite holds them to that).
    sim::Network net;
    auto surgeDecode =
        std::make_shared<const sim::DecodedProgram>(surgeBuild.image);
    net.addMote(
        std::make_shared<const sim::DecodedProgram>(baseBuild.image),
        0);  // base station
    net.addMote(surgeDecode, 1);
    net.addMote(surgeDecode, 2);

    const uint64_t second = 7'372'800;
    for (int s = 1; s <= 4; ++s) {
        net.run(second);
        printf("t=%ds: ", s);
        for (size_t i = 0; i < net.size(); ++i) {
            auto &m = net.mote(i);
            printf("[mote%zu tx=%u rx=%u duty=%.2f%%%s] ", i,
                   m.devices().packetsSent(),
                   m.devices().packetsReceived(),
                   100.0 * m.dutyCycle(),
                   m.wedged() ? " FAULT" : "");
        }
        printf("\n");
    }

    bool ok = true;
    for (size_t i = 0; i < net.size(); ++i) {
        if (net.mote(i).wedged()) {
            printf("mote %zu faulted (flid %u) — unexpected\n", i,
                   net.mote(i).failedFlid());
            ok = false;
        }
    }
    uint32_t delivered = net.mote(0).devices().packetsReceived();
    printf("\nBase station received %u packets; uart bridge emitted "
           "%zu bytes.\n",
           delivered, net.mote(0).devices().uartLog().size());
    if (delivered == 0) {
        printf("no traffic reached the base — unexpected\n");
        ok = false;
    }
    printf("Safety checks stayed silent during normal operation: %s\n",
           ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
