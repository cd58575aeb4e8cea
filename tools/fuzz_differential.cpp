/**
 * @file
 * Grammar-driven differential fuzzer driver. Generates N seeded TinyC
 * programs, runs each through the per-program oracles (interpreter vs
 * both simulator cores — the legacy reference and the direct-threaded
 * fast path — across unsafe / safe / optimized builds), then runs the
 * surviving corpus through the Experiment facade oracles
 * (memoized-parallel vs cold-serial, cold vs cached byte-identity).
 * Exits nonzero on the first divergence, printing the seed so the run
 * is reproducible with --dump / --minimize.
 *
 *   fuzz_differential --seed 1 --count 500         # the CI sweep
 *   fuzz_differential --dump 42                    # print program 42
 *   fuzz_differential --minimize 42 --out bug.tc   # shrink a crasher
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "core/pool.h"
#include "fuzz/fuzz.h"

namespace {

void
usage()
{
    std::cerr
        << "usage: fuzz_differential [options]\n"
           "  --seed N      first seed (default 1)\n"
           "  --count N     number of programs (default 500)\n"
           "  --jobs N      worker threads (default: hardware)\n"
           "  --no-batch    skip the Experiment batch oracles\n"
           "  --batch N     apps per Experiment batch (default 25)\n"
           "  --oob N       deliberately out-of-bounds programs for\n"
           "                the safety-placement oracle (default\n"
           "                count/5; 0 disables)\n"
           "  --dump S      print the program for seed S and exit\n"
           "  --dump-oob S  print the OOB program for seed S and exit\n"
           "  --minimize S  shrink seed S against the oracles\n"
           "  --out FILE    write --dump/--minimize output to FILE\n";
}

uint64_t
parseU64(const char *s)
{
    return std::strtoull(s, nullptr, 10);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace stos;

    uint64_t seed = 1;
    uint64_t count = 500;
    uint64_t oobCount = UINT64_MAX;  // default resolved from count
    unsigned jobs = 0;
    bool runBatch = true;
    size_t batchSize = 25;
    bool doDump = false, doDumpOob = false, doMinimize = false;
    uint64_t targetSeed = 0;
    std::string outFile;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--seed") {
            seed = parseU64(next());
        } else if (a == "--count") {
            count = parseU64(next());
        } else if (a == "--jobs") {
            jobs = static_cast<unsigned>(parseU64(next()));
        } else if (a == "--no-batch") {
            runBatch = false;
        } else if (a == "--batch") {
            batchSize = static_cast<size_t>(parseU64(next()));
        } else if (a == "--oob") {
            oobCount = parseU64(next());
        } else if (a == "--dump") {
            doDump = true;
            targetSeed = parseU64(next());
        } else if (a == "--dump-oob") {
            doDumpOob = true;
            targetSeed = parseU64(next());
        } else if (a == "--minimize") {
            doMinimize = true;
            targetSeed = parseU64(next());
        } else if (a == "--out") {
            outFile = next();
        } else {
            usage();
            return 2;
        }
    }

    if (oobCount == UINT64_MAX)
        oobCount = count / 5;

    if (doDump || doDumpOob || doMinimize) {
        std::string src = doDumpOob
                              ? fuzz::generateOobProgram(targetSeed)
                              : fuzz::generateProgram(targetSeed);
        if (doMinimize) {
            fuzz::Divergence d = fuzz::checkProgram(src);
            if (!d) {
                std::cerr << "seed " << targetSeed
                          << " does not diverge; nothing to minimize\n";
                return 1;
            }
            std::cerr << "seed " << targetSeed << " diverges ["
                      << d.oracle << "]: " << d.detail << "\n";
            // A candidate must reproduce the *same* oracle failure;
            // otherwise minimization drifts onto unrelated breakage
            // (e.g. deleting main entirely).
            std::string oracle = d.oracle;
            src = fuzz::minimize(src, [&](const std::string &cand) {
                return fuzz::checkProgram(cand).oracle == oracle;
            });
            fuzz::Divergence dm = fuzz::checkProgram(src);
            std::cerr << "minimized to "
                      << std::count(src.begin(), src.end(), '\n')
                      << " lines, still diverges [" << dm.oracle
                      << "]\n";
        }
        if (outFile.empty()) {
            std::cout << src;
        } else {
            std::ofstream os(outFile);
            os << src;
            std::cerr << "wrote " << outFile << "\n";
        }
        return 0;
    }

    // Phase 1: per-program oracles, parallel across seeds.
    std::mutex mu;
    std::vector<std::pair<uint64_t, fuzz::Divergence>> failures;
    std::vector<std::pair<std::string, std::string>> corpus(count);
    core::runOnPool(jobs, count, [&](size_t k) {
        uint64_t s = seed + k;
        std::string src = fuzz::generateProgram(s);
        fuzz::Divergence d = fuzz::checkProgram(src);
        std::lock_guard<std::mutex> lock(mu);
        corpus[k] = {"fz" + std::to_string(s), src};
        if (d) {
            failures.push_back({s, d});
            std::cerr << "DIVERGENCE seed " << s << " [" << d.oracle
                      << "]: " << d.detail << "\n";
        }
    });
    std::cerr << "per-program: " << count << " seeds ["
              << seed << ", " << (seed + count - 1) << "], "
              << failures.size() << " divergence(s)\n";
    if (!failures.empty()) {
        std::cerr << "reproduce: fuzz_differential --minimize "
                  << failures.front().first << "\n";
        return 1;
    }

    // Phase 1.5: safety-check placement. Deliberately out-of-bounds
    // programs must trap on every safe engine, with one common FLID.
    if (oobCount > 0) {
        std::vector<std::pair<uint64_t, fuzz::Divergence>> oobFailures;
        core::runOnPool(jobs, oobCount, [&](size_t k) {
            uint64_t s = seed + k;
            std::string src = fuzz::generateOobProgram(s);
            fuzz::Divergence d = fuzz::checkOobProgram(src);
            if (d) {
                std::lock_guard<std::mutex> lock(mu);
                oobFailures.push_back({s, d});
                std::cerr << "DIVERGENCE oob seed " << s << " ["
                          << d.oracle << "]: " << d.detail << "\n";
            }
        });
        std::cerr << "oob placement: " << oobCount << " programs, "
                  << oobFailures.size() << " divergence(s)\n";
        if (!oobFailures.empty()) {
            std::cerr << "reproduce: fuzz_differential --dump-oob "
                      << oobFailures.front().first << "\n";
            return 1;
        }
    }

    // Phase 2: corpus oracles via the Experiment facade, in batches
    // (each batch is a full build+sim matrix plus its serial
    // reference, so batches keep the cost bounded).
    if (runBatch && batchSize > 0) {
        for (size_t at = 0; at < corpus.size(); at += batchSize) {
            size_t n = std::min(batchSize, corpus.size() - at);
            std::vector<std::pair<std::string, std::string>> batch(
                corpus.begin() + static_cast<ptrdiff_t>(at),
                corpus.begin() + static_cast<ptrdiff_t>(at + n));
            fuzz::Divergence d = fuzz::checkBatch(batch, jobs);
            if (d) {
                std::cerr << "DIVERGENCE batch at " << at << " ["
                          << d.oracle << "]: " << d.detail << "\n";
                return 1;
            }
        }
        std::cerr << "batch: " << corpus.size() << " apps through the "
                  << "Experiment oracles, no divergence\n";
    }
    std::cerr << "OK\n";
    return 0;
}
