/**
 * @file
 * §2.1 DCE ablation: the strong whole-program DCE (+ copy
 * propagation) in cXprop versus relying on the backend's weak DCE
 * only. The paper credits the stronger pass with a 3-5% code-size
 * improvement. Both columns run as one Experiment — they share the
 * frontend and safety stages in the StageCache — and are executed on
 * the cycle simulator so the runtime effect of the dead code
 * (duty-cycle delta) is measured too. `--serial` gates equivalence
 * against the cold serial legacy reference; `--csv`/`--json`/
 * `--joined-*` emit reports.
 */
#include "bench_util.h"

using namespace stos;
using namespace stos::core;
using namespace stos::bench;

int
main(int argc, char **argv)
{
    BenchCli cli = BenchCli::parse(argc, argv, 0.5);
    Experiment exp(cli.options());
    exp.addApps(cli.corpusApps());
    exp.addConfig(ConfigId::SafeFlidInlineCxprop);
    exp.addCustom("weak-dce", [](const std::string &platform) {
        PipelineConfig cfg =
            configFor(ConfigId::SafeFlidInlineCxprop, platform);
        cfg.cxprop.strongDce = false;
        return cfg;
    });

    printHeader("§2.1 ablation: strong (cXprop) vs weak (GCC) DCE");
    ExperimentReport rep;
    if (int rc = cli.run(exp, rep))
        return rc;

    printf("%-28s %10s %10s %8s %8s\n", "application", "strong(B)",
           "weak(B)", "delta", "duty-d");
    double totalStrong = 0, totalWeak = 0;
    for (size_t a = 0; a < rep.builds.numApps; ++a) {
        const BuildResult &rs = *rep.builds.at(a, 0).result;
        const BuildResult &rw = *rep.builds.at(a, 1).result;
        totalStrong += rs.codeBytes;
        totalWeak += rw.codeBytes;
        printf("%-28s %10u %10u %7.1f%% %7.1f%%\n",
               appLabel(rep.builds.at(a, 0)).c_str(), rs.codeBytes,
               rw.codeBytes, pctChange(rs.codeBytes, rw.codeBytes),
               pctChange(rep.sims.at(a, 0).outcome.dutyCycle,
                         rep.sims.at(a, 1).outcome.dutyCycle));
    }
    printf("\nAggregate: strong DCE is %.1f%% smaller (paper: 3-5%%).\n",
           -pctChange(totalStrong, totalWeak));
    return 0;
}
