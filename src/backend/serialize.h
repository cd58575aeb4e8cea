/**
 * @file
 * Binary (de)serialization of linked firmware images (MProgram) and
 * their target descriptions for the on-disk artifact store. Same
 * discipline as ir/serialize.h: one transfer() per stored type
 * (backend/serialize.cpp) writes and reads it, deterministically,
 * versioned globally by the store's kStoreFormatVersion — bump it
 * when a transfer() there, or a field type it names, changes.
 */
#ifndef STOS_BACKEND_SERIALIZE_H
#define STOS_BACKEND_SERIALIZE_H

#include "backend/minstr.h"
#include "support/binio.h"

namespace stos::backend {

void writeProgram(support::BinWriter &w, const MProgram &p);
MProgram readProgram(support::BinReader &r);

} // namespace stos::backend

#endif
