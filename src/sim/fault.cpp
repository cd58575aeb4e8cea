/**
 * @file
 * Fault-plan compilation and the pure per-delivery radio fault draw.
 */
#include "sim/fault.h"

#include <algorithm>
#include <cstdlib>

#include "support/binio.h"

namespace stos::sim {

namespace {

/** splitmix64: the one-instruction-deep seeded generator the fuzzer
 *  already trusts for reproducible randomness. */
uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** One finalization round, for mixing fixed inputs into a state. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
unitUniform(uint64_t &state)
{
    return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

} // namespace

const char *
recoveryPolicyName(RecoveryPolicy p)
{
    switch (p) {
      case RecoveryPolicy::Wedge: return "wedge";
      case RecoveryPolicy::RebootOnTrap: return "reboot-on-trap";
      case RecoveryPolicy::RebootOnWedge: return "reboot-on-wedge";
    }
    return "?";
}

bool
parseRecoveryPolicy(const std::string &s, RecoveryPolicy *out)
{
    if (s == "wedge")
        *out = RecoveryPolicy::Wedge;
    else if (s == "reboot-on-trap")
        *out = RecoveryPolicy::RebootOnTrap;
    else if (s == "reboot-on-wedge")
        *out = RecoveryPolicy::RebootOnWedge;
    else
        return false;
    return true;
}

bool
parseFaultSpec(const std::string &spec, FaultOptions *out,
               std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        size_t eq = item.find('=');
        if (eq == std::string::npos)
            return fail("expected key=value, got '" + item + "'");
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        char *rest = nullptr;
        if (key == "mem" || key == "reg" || key == "crash" ||
            key == "ptr" || key == "ret") {
            unsigned long n = std::strtoul(val.c_str(), &rest, 10);
            if (!rest || *rest)
                return fail("bad count for '" + key + "': " + val);
            if (key == "mem")
                out->memFlips = static_cast<uint32_t>(n);
            else if (key == "reg")
                out->regFlips = static_cast<uint32_t>(n);
            else if (key == "ptr")
                out->ptrOverwrites = static_cast<uint32_t>(n);
            else if (key == "ret")
                out->retSmashes = static_cast<uint32_t>(n);
            else
                out->crashes = static_cast<uint32_t>(n);
        } else if (key == "val") {
            unsigned long long n = std::strtoull(val.c_str(), &rest, 0);
            if (!rest || *rest)
                return fail("bad value for 'val': " + val);
            out->attackValue = n;
        } else if (key == "target") {
            out->attackGlobal = val;
        } else if (key == "loss" || key == "corrupt" || key == "dup") {
            double r = std::strtod(val.c_str(), &rest);
            if (!rest || *rest || r < 0.0 || r > 1.0)
                return fail("bad rate for '" + key + "': " + val);
            if (key == "loss")
                out->radioLoss = r;
            else if (key == "corrupt")
                out->radioCorrupt = r;
            else
                out->radioDup = r;
        } else {
            return fail("unknown fault key '" + key + "'");
        }
    }
    return true;
}

std::vector<FaultEvent>
scheduleFaults(const FaultOptions &o, uint8_t nodeId, uint64_t begin,
               uint64_t end)
{
    std::vector<FaultEvent> events;
    if (end <= begin + 1)
        return events;
    uint64_t span = end - begin;
    // Skip the first sixteenth of the span so the firmware finishes
    // booting before faults land (faulting pre-init state mostly
    // exercises nothing).
    uint64_t lo = span / 16 + 1;
    if (lo >= span)
        lo = 1;
    uint64_t range = span - lo;
    uint64_t state = mix64(o.seed ^ (0x9E3779B97F4A7C15ull *
                                     (nodeId + 1)));
    auto schedule = [&](FaultKind kind, uint32_t count) {
        for (uint32_t i = 0; i < count; ++i) {
            FaultEvent e;
            e.kind = kind;
            e.at = begin + lo +
                   (range ? splitmix(state) % range : 0);
            e.addr = static_cast<uint32_t>(splitmix(state));
            e.bit = static_cast<uint8_t>(splitmix(state) & 0xF);
            events.push_back(e);
        }
    };
    schedule(FaultKind::MemFlip, o.memFlips);
    schedule(FaultKind::RegFlip, o.regFlips);
    schedule(FaultKind::Crash, o.crashes);
    // Attack-shaped faults carry their payload instead of random
    // addr/bit draws (the draws still advance the generator so adding
    // an attack to a campaign never perturbs the SEU plan positions).
    size_t firstAttack = events.size();
    schedule(FaultKind::PtrOverwrite, o.ptrOverwrites);
    schedule(FaultKind::RetSmash, o.retSmashes);
    for (size_t i = firstAttack; i < events.size(); ++i) {
        events[i].value = o.attackValue;
        if (events[i].kind == FaultKind::PtrOverwrite)
            events[i].targetGlobal = o.attackGlobal;
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    return events;
}

RadioFaultDecision
radioFaultsFor(const FaultOptions &o, uint8_t src, uint8_t dst,
               uint64_t at, const std::vector<uint8_t> &bytes)
{
    RadioFaultDecision d;
    uint64_t h = support::fnv1a64(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), bytes.size()));
    uint64_t state =
        mix64(o.seed ^ mix64(h ^ (at * 0x9E3779B97F4A7C15ull) ^
                             (static_cast<uint64_t>(src) << 8) ^ dst));
    if (unitUniform(state) < o.radioLoss) {
        d.drop = true;
        return d;
    }
    if (unitUniform(state) < o.radioCorrupt) {
        d.corrupt = true;
        d.corruptByte = static_cast<uint32_t>(splitmix(state));
        d.corruptBit = static_cast<uint8_t>(splitmix(state) & 7);
    }
    if (unitUniform(state) < o.radioDup)
        d.dup = true;
    return d;
}

uint64_t
mixSeed(uint64_t seed, const std::string &label)
{
    return mix64(seed ^ support::fnv1a64(label));
}

} // namespace stos::sim
