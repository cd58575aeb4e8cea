/**
 * @file
 * Binary (de)serialization of whole IR modules for the on-disk
 * artifact store. Each stored IR type describes its layout once, as a
 * transfer() in ir/serialize.cpp that drives both directions
 * (support/binio.h). The encoding is deterministic — serializing
 * equal modules yields byte-identical buffers — and a module is
 * reconstructed through its public building API
 * (addStruct/addGlobal/addFunction/addHwReg), so the private
 * name->index maps rebuild themselves and every id stays positional.
 *
 * The encoding carries no version stamp of its own; the artifact
 * store's kStoreFormatVersion covers it. Bump that version whenever a
 * transfer() here, or a field type it names, changes.
 */
#ifndef STOS_IR_SERIALIZE_H
#define STOS_IR_SERIALIZE_H

#include "ir/module.h"
#include "support/binio.h"

namespace stos::ir {

void writeModule(support::BinWriter &w, const Module &m);
Module readModule(support::BinReader &r);

/** A FLID table entry's layout; the stored build carries the table. */
void
transfer(auto &a, FlidEntry &x)
{
    a(x.flid, x.file, x.line, x.checkKind, x.detail);
}

} // namespace stos::ir

#endif
