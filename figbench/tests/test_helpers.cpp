/**
 * @file
 * Tests for the benchmark's own helpers: the tail-percentile rule, the
 * self-time subtraction over nested spans, digest stability across
 * rounds, and failure counting on an injected mismatch.
 *
 *   cmake --build .bench_build --target figbench_tests
 *   .bench_build/figbench_tests
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "digest.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

using namespace figbench;
using namespace stos;

namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

Span
span(uint32_t id, uint32_t parent, int64_t start, int64_t end,
     const char *layer = "x")
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    s.layer = layer;
    s.round = 1;
    return s;
}

/** A small real matrix: one app, two columns, a short simulation. */
core::ExperimentReport
smallRound()
{
    core::ExperimentOptions opts;
    opts.jobs = 1;
    opts.seconds = 0.2;
    core::Experiment exp(opts);
    exp.addApp(tinyos::appByName("BlinkTask"))
        .addConfig(core::ConfigId::Baseline)
        .addConfig(core::ConfigId::SafeFlidInlineCxprop);
    return exp.run();
}

} // namespace

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Stats, TailNeedsTenBeyond)
{
    // 19 samples: even the median leaves only 9 beyond it.
    EXPECT_FALSE(tailWithBeyond(oneTo(19)).found);

    Tail t = tailWithBeyond(oneTo(20));
    ASSERT_TRUE(t.found);
    EXPECT_DOUBLE_EQ(t.percentile, 50);
    EXPECT_EQ(t.beyond, 10u);

    t = tailWithBeyond(oneTo(200));
    ASSERT_TRUE(t.found);
    EXPECT_DOUBLE_EQ(t.percentile, 95);
    EXPECT_DOUBLE_EQ(t.value, 190);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 200u);

    // 999 samples are one short of a p99 with ten beyond.
    EXPECT_DOUBLE_EQ(tailWithBeyond(oneTo(999)).percentile, 95);
    t = tailWithBeyond(oneTo(1000));
    EXPECT_DOUBLE_EQ(t.percentile, 99);
    EXPECT_DOUBLE_EQ(t.value, 990);

    t = tailWithBeyond(oneTo(10000));
    EXPECT_DOUBLE_EQ(t.percentile, 99.9);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(Stats, TailIgnoresInputOrder)
{
    std::vector<double> v = oneTo(200);
    std::reverse(v.begin(), v.end());
    EXPECT_DOUBLE_EQ(tailWithBeyond(v).value, 190);
}

TEST(Trace, SelfTimeSubtractsNestedChildren)
{
    // root [0,100]: child a [10,30] with grandchild [15,25]; child b
    // [20,50] runs in parallel with a; child c [90,120] overhangs.
    std::vector<Span> s = {
        span(1, 0, 0, 100),  span(2, 1, 10, 30), span(3, 2, 15, 25),
        span(4, 1, 20, 50),  span(5, 1, 90, 120),
    };
    std::vector<int64_t> self = selfTimes(s);
    EXPECT_EQ(self[0], 100 - 40 - 10);  // union [10,50] + [90,100]
    EXPECT_EQ(self[1], 20 - 10);
    EXPECT_EQ(self[2], 10);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 30);
}

TEST(Trace, ScopesNestOnOneThreadAndCoverTheRoot)
{
    Tracer t;
    t.setRound(7);
    uint32_t rootId = 0, childId = 0;
    {
        SpanScope root(&t, "round", "round", 3);
        rootId = root.id();
        {
            SpanScope child(&t, "opt", "runOptStage");
            childId = child.id();
            t.count("opt.calls", 1);
        }
    }
    std::vector<Span> s = t.spans();
    ASSERT_EQ(s.size(), 2u);
    const Span &child = s[0].id == childId ? s[0] : s[1];
    const Span &root = s[0].id == rootId ? s[0] : s[1];
    EXPECT_EQ(child.parent, rootId);
    EXPECT_EQ(child.cell, 3);  // inherited from the enclosing span
    EXPECT_EQ(child.round, 7u);
    std::vector<int64_t> self = selfTimes(s);
    EXPECT_EQ(self[0] + self[1], root.endNs - root.startNs);
    EXPECT_DOUBLE_EQ(t.counts(7).at("opt.calls"), 1);
}

TEST(Digest, StableAcrossTwoRounds)
{
    core::ExperimentReport a = smallRound(), b = smallRound();
    ASSERT_TRUE(a.allOk());
    RoundDigest da = digestRound(a.builds, a.sims);
    RoundDigest db = digestRound(b.builds, b.sims);
    ASSERT_EQ(da.cells.size(), 2u);
    EXPECT_EQ(da.total, db.total);
    EXPECT_EQ(da.cells, db.cells);
    EXPECT_NE(da.cells[0], da.cells[1]);  // the columns differ
    EXPECT_EQ(failedCells(da, db), 0u);
}

TEST(Digest, SensitiveToSimulatedState)
{
    core::ExperimentReport a = smallRound();
    RoundDigest before = digestRound(a.builds, a.sims);
    a.sims.records[1].outcome.uartLog += "x";
    EXPECT_NE(digestRound(a.builds, a.sims).cells[1], before.cells[1]);
}

TEST(FailFrac, CountsAnInjectedMismatch)
{
    core::ExperimentReport a = smallRound();
    RoundDigest ref = digestRound(a.builds, a.sims);

    RoundDigest got = ref;
    got.cells[1] ^= 1;  // one cell's output changed
    EXPECT_EQ(failedCells(ref, got), 1u);

    got = ref;
    got.ok[0] = false;  // one cell failed to build or simulate
    EXPECT_EQ(failedCells(ref, got), 1u);

    got.cells.pop_back();  // wrong shape: every cell fails
    got.ok.pop_back();
    EXPECT_EQ(failedCells(ref, got), 2u);
}

TEST(FailFrac, FailedSimulationDigestsAsFailure)
{
    core::ExperimentReport a = smallRound();
    RoundDigest ref = digestRound(a.builds, a.sims);
    a.sims.records[0].ok = false;
    RoundDigest got = digestRound(a.builds, a.sims);
    EXPECT_FALSE(got.ok[0]);
    EXPECT_EQ(failedCells(ref, got), 1u);
}

TEST(Workloads, NamesRoundTrip)
{
    for (Workload w :
         {Workload::ColdRegen, Workload::WarmRegen, Workload::SimLong}) {
        Workload back;
        ASSERT_TRUE(parseWorkload(workloadName(w), &back));
        EXPECT_EQ(back, w);
    }
    Workload unused;
    EXPECT_FALSE(parseWorkload("cold", &unused));
    EXPECT_EQ(matrixColumns().size(), 11u);
}
