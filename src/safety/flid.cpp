/**
 * @file
 * FLID table implementation.
 */
#include "safety/flid.h"

#include <sstream>

#include "support/util.h"

namespace stos::safety {

using namespace stos::ir;

uint32_t
allocFlid(Module &m, const SourceManager *sm, stos::SourceLoc loc,
          const std::string &checkKind, const std::string &detail)
{
    FlidEntry e;
    e.flid = static_cast<uint32_t>(m.flidTable().size()) + 1;
    e.file = sm && loc.valid() ? sm->fileName(loc.file) : "<unknown>";
    e.line = loc.line;
    e.checkKind = checkKind;
    e.detail = detail;
    m.flidTable().push_back(e);
    return e.flid;
}

std::string
decodeFlid(const std::vector<FlidEntry> &table, uint32_t flid)
{
    for (const auto &e : table) {
        if (e.flid == flid) {
            std::string s = strfmt("%s:%u: %s check failed",
                                   e.file.c_str(), e.line,
                                   e.checkKind.c_str());
            if (!e.detail.empty())
                s += " (" + e.detail + ")";
            return s;
        }
    }
    return strfmt("unknown failure id %u", flid);
}

std::string
serializeFlidTable(const std::vector<FlidEntry> &table)
{
    std::ostringstream os;
    os << "# flid\tfile\tline\tkind\tdetail\n";
    for (const auto &e : table) {
        os << e.flid << "\t" << e.file << "\t" << e.line << "\t"
           << e.checkKind << "\t" << e.detail << "\n";
    }
    return os.str();
}

std::vector<FlidEntry>
parseFlidTable(const std::string &text)
{
    std::vector<FlidEntry> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        FlidEntry e;
        std::istringstream ls(line);
        std::string flid, lineno;
        if (!std::getline(ls, flid, '\t') ||
            !std::getline(ls, e.file, '\t') ||
            !std::getline(ls, lineno, '\t') ||
            !std::getline(ls, e.checkKind, '\t')) {
            continue;
        }
        std::getline(ls, e.detail, '\t');
        e.flid = static_cast<uint32_t>(std::stoul(flid));
        e.line = static_cast<uint32_t>(std::stoul(lineno));
        out.push_back(std::move(e));
    }
    return out;
}

} // namespace stos::safety
