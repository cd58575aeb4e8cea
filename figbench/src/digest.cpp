#include "digest.h"

#include <algorithm>

#include "backend/serialize.h"

namespace figbench {

using namespace stos;

uint64_t
digestCell(const core::BuildResult *build, const core::SimOutcome *out)
{
    // Serialize every checked field, then hash the bytes.
    support::BinWriter w;
    w.u64(build ? 1 : 0);
    if (build) {
        backend::writeProgram(w, build->image);
        w.u64(build->codeBytes);
        w.u64(build->ramBytes);
        w.u64(build->romDataBytes);
        w.u64(build->survivingChecks);
    }
    w.u64(out ? 1 : 0);
    if (out) {
        w.u64(out->awakeCycles);
        w.u64(out->totalCycles);
        w.u64(out->instructions);
        w.u64(out->halted);
        w.u64(out->wedged);
        w.u64(out->failedFlid);
        w.str(out->uartLog);
        w.u64(out->traps);
        w.u64(out->cfiTraps);
        w.u64(out->reboots);
        w.u64(out->crashes);
        w.u64(out->downCycles);
        w.u64(out->wedgedCycles);
        w.u64(out->trapLog.size());
        for (const auto &t : out->trapLog) {
            w.u64(t.flid);
            w.u64(t.cycle);
            w.u64(t.pc);
            w.u64(t.kind);
        }
        w.u64(out->packetsDropped);
        w.u64(out->packetsCorrupted);
        w.u64(out->packetsDuplicated);
    }
    return support::fnv1a64(w.data());
}

RoundDigest
digestRound(const core::BuildReport &builds, const core::SimReport &sims)
{
    RoundDigest d;
    const size_t n = builds.records.size();
    d.cells.resize(n);
    d.ok.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const auto &b = builds.records[i];
        const core::SimRecord *s =
            i < sims.records.size() ? &sims.records[i] : nullptr;
        bool ok = b.ok && s && s->ok;
        d.ok[i] = ok;
        d.cells[i] = digestCell(b.ok ? b.result.get() : nullptr,
                                ok ? &s->outcome : nullptr);
    }
    finishDigest(d);
    return d;
}

void
finishDigest(RoundDigest &d)
{
    support::BinWriter w;
    for (uint64_t c : d.cells)
        w.u64(c);
    d.total = support::fnv1a64(w.data());
}

size_t
failedCells(const RoundDigest &ref, const RoundDigest &got)
{
    if (ref.cells.size() != got.cells.size() ||
        got.ok.size() != got.cells.size())
        return std::max(got.cells.size(), ref.cells.size());
    size_t failed = 0;
    for (size_t i = 0; i < got.cells.size(); ++i) {
        if (!got.ok[i] || got.cells[i] != ref.cells[i])
            ++failed;
    }
    return failed;
}

} // namespace figbench
