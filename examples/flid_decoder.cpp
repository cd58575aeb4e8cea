/**
 * @file
 * The error-message decompression tool (the "error message
 * decompression" box in Figure 1). A deployment keeps the FLID table
 * produced at build time next to the firmware; when a node reports a
 * 16-bit failure id over the UART, this tool turns it back into the
 * full file:line:kind message.
 *
 * Usage:
 *   flid_decoder                 demo: build an app, dump its table
 *   flid_decoder <table> <id>    decode `id` against a saved table
 */
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/pipeline.h"
#include "safety/flid.h"

using namespace stos;
using namespace stos::core;

int
main(int argc, char **argv)
{
    if (argc == 3) {
        std::ifstream in(argv[1]);
        if (!in) {
            fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        auto entries = safety::parseFlidTable(ss.str());
        uint32_t id = static_cast<uint32_t>(std::stoul(argv[2]));
        for (const auto &e : entries) {
            if (e.flid == id) {
                printf("%s:%u: %s check failed (%s)\n", e.file.c_str(),
                       e.line, e.checkKind.c_str(), e.detail.c_str());
                return 0;
            }
        }
        printf("unknown failure id %u\n", id);
        return 1;
    }

    // Demo mode: build SenseToRfm safely and show its table.
    const auto &app = tinyos::appByName("SenseToRfm");
    BuildResult r =
        buildApp(app, configFor(ConfigId::SafeFlid, app.platform));
    std::string table = safety::serializeFlidTable(r.flidTable);
    printf("FLID table for %s (%zu entries, %zu bytes host-side, "
           "0 bytes device-side):\n\n%s\n",
           app.name.c_str(), r.flidTable.size(), table.size(),
           table.c_str());
    printf("Example decode of id 1: %s\n",
           safety::decodeFlid(r.flidTable, 1).c_str());
    printf("\nSave the table and decode in the field with:\n"
           "  flid_decoder table.tsv <id>\n");
    return 0;
}
