/**
 * @file
 * `stosc` — the Safe TinyOS command-line compiler driver. Compiles a
 * TinyC source file (with the TinyOS-style library linked in) through
 * a chosen configuration, reports the cost metrics, optionally writes
 * the FLID table, and optionally boots the image on the simulator.
 *
 * Usage:
 *   stosc <file.tc> [--config baseline|safe|safe-opt|verbose|terse]
 *                   [--platform Mica2|TelosB]
 *                   [--flid-table <out.tsv>]
 *                   [--run <seconds>] [--node-id <n>]
 *                   [--dump-ir]
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "ir/printer.h"
#include "safety/flid.h"
#include "sim/machine.h"

using namespace stos;
using namespace stos::core;

namespace {

void
usage()
{
    fprintf(stderr,
            "usage: stosc <file.tc> [options]\n"
            "  --config <c>       baseline | safe | safe-opt (default) |\n"
            "                     verbose | terse\n"
            "  --platform <p>     Mica2 (default) | TelosB\n"
            "  --flid-table <f>   write the failure-id table to <f>\n"
            "  --run <seconds>    boot the image on the simulator\n"
            "  --node-id <n>      simulated node id (default 1)\n"
            "  --dump-ir          print the final TinyCIL\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string file = argv[1];
    std::string config = "safe-opt";
    std::string platform = "Mica2";
    std::string flidOut;
    double runSeconds = 0;
    int nodeId = 1;
    bool dumpIr = false;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--config")
            config = next();
        else if (a == "--platform")
            platform = next();
        else if (a == "--flid-table")
            flidOut = next();
        else if (a == "--run")
            runSeconds = atof(next());
        else if (a == "--node-id")
            nodeId = atoi(next());
        else if (a == "--dump-ir")
            dumpIr = true;
        else {
            usage();
            return 2;
        }
    }

    std::ifstream in(file);
    if (!in) {
        fprintf(stderr, "stosc: cannot open %s\n", file.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();

    ConfigId id;
    if (config == "baseline")
        id = ConfigId::Baseline;
    else if (config == "safe")
        id = ConfigId::SafeFlid;
    else if (config == "safe-opt")
        id = ConfigId::SafeFlidInlineCxprop;
    else if (config == "verbose")
        id = ConfigId::SafeVerboseRam;
    else if (config == "terse")
        id = ConfigId::SafeTerse;
    else {
        usage();
        return 2;
    }

    std::string name = file;
    size_t slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    size_t dot = name.find_last_of('.');
    if (dot != std::string::npos)
        name = name.substr(0, dot);

    FullBuild r;
    try {
        r = buildSource(name, ss.str(), configFor(id, platform));
    } catch (const std::exception &e) {
        fprintf(stderr, "stosc: %s\n", e.what());
        return 1;
    }

    printf("%s [%s, %s]\n", name.c_str(), configName(id),
           platform.c_str());
    printf("  code:  %6u bytes flash\n", r.codeBytes);
    printf("  data:  %6u bytes RAM, %u bytes ROM\n", r.ramBytes,
           r.romDataBytes);
    if (id != ConfigId::Baseline) {
        printf("  safety: %u checks inserted",
               r.safetyReport.checksInserted);
        if (r.cxpropReport.checksRemoved)
            printf(", %u removed by cXprop",
                   r.cxpropReport.checksRemoved);
        printf("; %u racy globals, %u locks\n",
               r.safetyReport.racyGlobals,
               r.safetyReport.locksInserted);
    }
    if (r.cxpropReport.rounds > 0)
        printf("  %s\n", cxpropReportString(r.cxpropReport).c_str());
    if (dumpIr)
        printf("%s", ir::moduleToString(r.module).c_str());
    if (!flidOut.empty()) {
        std::ofstream out(flidOut);
        out << safety::serializeFlidTable(r.flidTable);
        printf("  flid table: %s (%zu entries)\n", flidOut.c_str(),
               r.flidTable.size());
    }
    if (runSeconds > 0) {
        sim::Machine mote(r.image, static_cast<uint8_t>(nodeId));
        mote.boot();
        mote.runUntilCycle(static_cast<uint64_t>(
            runSeconds * r.image.target.clockHz));
        printf("  sim: %llu cycles, duty %.3f%%, %u LED writes\n",
               static_cast<unsigned long long>(mote.cycles()),
               100.0 * mote.dutyCycle(), mote.devices().ledWrites());
        if (!mote.devices().uartLog().empty())
            printf("  uart: %s\n", mote.devices().uartLog().c_str());
        if (mote.wedged() && mote.failedFlid()) {
            printf("  FAULT: flid %u — %s\n", mote.failedFlid(),
                   safety::decodeFlid(r.flidTable, mote.failedFlid())
                       .c_str());
            return 3;
        }
    }
    return 0;
}
