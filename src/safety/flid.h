/**
 * @file
 * FLID (failure location identifier) support. Instead of storing
 * error-message strings on the device, each check site gets a 16-bit
 * id; a host-side table (kept with the build artifacts) decompresses
 * an id back into file / line / check kind — the paper's §3.2
 * "error messages compressed as FLIDs" configuration.
 */
#ifndef STOS_SAFETY_FLID_H
#define STOS_SAFETY_FLID_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.h"
#include "support/source_loc.h"

namespace stos::safety {

/** Allocate a new FLID describing a check at `loc`. */
uint32_t allocFlid(ir::Module &m, const SourceManager *sm,
                   stos::SourceLoc loc, const std::string &checkKind,
                   const std::string &detail = "");

/**
 * Host-side decompression: id -> "file:line: kind" message, read from
 * a FLID table (a module's, a build's, or a parsed one).
 */
std::string decodeFlid(const std::vector<ir::FlidEntry> &table,
                       uint32_t flid);

/**
 * Serialize / parse the table (the artifact a deployment would keep
 * next to the firmware image so field failures can be decoded).
 */
std::string serializeFlidTable(const std::vector<ir::FlidEntry> &table);
std::vector<ir::FlidEntry> parseFlidTable(const std::string &text);

} // namespace stos::safety

#endif
