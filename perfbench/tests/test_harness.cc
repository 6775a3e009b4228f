/**
 * @file
 * Tests of the benchmark's own helpers: the tail-percentile rule, op
 * accounting against the reference, windowed throughput and argument
 * parsing. The per-workload smoke runs are registered in CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include "driver.hh"
#include "harness.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

UnitResult
unit(double ops, double failed, std::vector<std::uint64_t> digests,
     std::string report = "")
{
    UnitResult u;
    u.ops = ops;
    u.failed = failed;
    u.digests = std::move(digests);
    u.report = std::move(report);
    return u;
}

} // namespace

TEST(TailRule, LeavesExactlyTenSamplesBeyond)
{
    const Tail t = tailOf(oneTo(1000));
    EXPECT_EQ(t.samples, 1000u);
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
    EXPECT_DOUBLE_EQ(t.value, 990.0);

    const Tail u = tailOf(oneTo(200));
    EXPECT_DOUBLE_EQ(u.percentile, 95.0);
    EXPECT_DOUBLE_EQ(u.value, 190.0);
}

TEST(TailRule, PercentileFollowsSampleCount)
{
    const Tail t = tailOf(oneTo(4000));
    EXPECT_DOUBLE_EQ(t.percentile, 99.75);
    EXPECT_DOUBLE_EQ(t.value, 3990.0);
}

TEST(TailRule, SmallSamplesReportTheMedian)
{
    const Tail t = tailOf(oneTo(19));
    EXPECT_DOUBLE_EQ(t.percentile, 50.0);
    EXPECT_DOUBLE_EQ(t.value, 10.0);
    EXPECT_EQ(t.samples, 19u);

    const Tail empty = tailOf({});
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_DOUBLE_EQ(empty.value, 0.0);
}

TEST(TailRule, LongRunsReportTheMedianWindow)
{
    // Three windows of 1000; one window carries a stall.
    std::vector<double> s;
    for (int w = 0; w < 3; ++w)
        for (int i = 1; i <= 1000; ++i)
            s.push_back(w == 1 && i > 980 ? 5000.0 : w + i);
    const WindowedTail t = windowedTail(s);
    EXPECT_EQ(t.windows, 3u);
    EXPECT_EQ(t.samples, 1000u);
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
    EXPECT_DOUBLE_EQ(t.value, 992.0); // window 2's tail, not the stall

    // Under 2000 samples there is one window: the plain rule.
    const WindowedTail one = windowedTail(oneTo(1999));
    EXPECT_EQ(one.windows, 1u);
    EXPECT_DOUBLE_EQ(one.value, tailOf(oneTo(1999)).value);
}

TEST(TailRule, MedianIsNearestRank)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(OpCounting, MatchingDigestsCountNoFailures)
{
    const std::vector<UnitResult> ref = {unit(2, 0, {1, 2}),
                                         unit(2, 0, {3, 4})};
    const OpCount c = countOps(ref, ref);
    EXPECT_EQ(c.attempted, 4u);
    EXPECT_EQ(c.failed, 0u);
}

TEST(OpCounting, EachDifferingDigestFailsOneOp)
{
    const std::vector<UnitResult> ref = {unit(3, 0, {1, 2, 3})};
    const OpCount c = countOps({unit(3, 0, {1, 9, 8})}, ref);
    EXPECT_EQ(c.attempted, 3u);
    EXPECT_EQ(c.failed, 2u);
}

TEST(OpCounting, ServingFailuresAddToMismatches)
{
    // Five offered, one shed (no output), one output differs.
    const std::vector<UnitResult> ref = {unit(5, 1, {1, 2, 3, 4}, "r")};
    const OpCount c = countOps({unit(5, 1, {1, 2, 3, 7}, "r")}, ref);
    EXPECT_EQ(c.attempted, 5u);
    EXPECT_EQ(c.failed, 2u);
}

TEST(OpCounting, ShapeOrReportMismatchFailsTheWholeUnit)
{
    const std::vector<UnitResult> ref = {unit(2, 0, {1, 2}, "a"),
                                         unit(2, 0, {3, 4}, "a")};
    OpCount c = countOps({unit(2, 0, {1, 2}, "b"), unit(2, 0, {3})}, ref);
    EXPECT_EQ(c.attempted, 4u);
    EXPECT_EQ(c.failed, 4u);

    // A unit the reference never ran cannot be checked.
    c = countOps({unit(2, 0, {1, 2}, "a"), unit(2, 0, {3, 4}, "a"),
                  unit(2, 0, {5, 6}, "a")},
                 ref);
    EXPECT_EQ(c.attempted, 6u);
    EXPECT_EQ(c.failed, 2u);
}

TEST(OpCounting, RepeatingUnitsCheckAgainstTheLastReference)
{
    const std::vector<UnitResult> ref = {unit(1, 0, {5}), unit(1, 0, {6})};
    const OpCount c = countOps({unit(1, 0, {5}), unit(1, 0, {6}),
                                unit(1, 0, {6}), unit(1, 0, {7})},
                               ref, 0, true);
    EXPECT_EQ(c.attempted, 4u);
    EXPECT_EQ(c.failed, 1u);

    // In epochs of three, the fourth unit is the first of an epoch.
    const OpCount e = countOps({unit(1, 0, {5}), unit(1, 0, {6}),
                                unit(1, 0, {6}), unit(1, 0, {5})},
                               ref, 3, true);
    EXPECT_EQ(e.attempted, 4u);
    EXPECT_EQ(e.failed, 0u);
}

TEST(OpCounting, EachEpochChecksAgainstTheReferenceEpoch)
{
    const std::vector<UnitResult> ref = {unit(1, 0, {1}), unit(1, 0, {2})};
    const OpCount c = countOps({unit(1, 0, {1}), unit(1, 0, {2}),
                                unit(1, 0, {1}), unit(1, 0, {3})},
                               ref, 2);
    EXPECT_EQ(c.attempted, 4u);
    EXPECT_EQ(c.failed, 1u);
}

TEST(Throughput, AllOpsOverAllWallTime)
{
    std::vector<Chunk> chunks(16, Chunk{10.0, 10.0}); // 1000 ops/s
    chunks[5].wallMs = 170.0;                          // a slow spell
    EXPECT_DOUBLE_EQ(throughputOf(chunks), 160.0 / 0.32);
    EXPECT_DOUBLE_EQ(throughputOf({Chunk{4.0, 2.0}}), 2000.0);
    EXPECT_DOUBLE_EQ(throughputOf({}), 0.0);
}

TEST(Throughput, MedianOfEpochs)
{
    // Three epochs of two units: 1000, 100 and 500 ops/s.
    const std::vector<Chunk> chunks = {{5, 5},   {5, 5},  {5, 50},
                                       {5, 50},  {5, 10}, {5, 10}};
    EXPECT_DOUBLE_EQ(epochThroughput(chunks, 2), 500.0);
    EXPECT_DOUBLE_EQ(epochThroughput(chunks, 0), throughputOf(chunks));
    EXPECT_DOUBLE_EQ(epochThroughput({Chunk{4.0, 2.0}}, 8), 2000.0);
}

TEST(Args, ParsesTheDriverCommandLine)
{
    RunOptions o;
    EXPECT_EQ(parseArgs({"--workload", "serve-drain", "--seed", "7",
                         "--seconds", "10", "--trace", "1", "--jit-dir",
                         "d"},
                        o),
              "");
    EXPECT_EQ(o.workload, "serve-drain");
    EXPECT_EQ(o.seed, 7u);
    EXPECT_DOUBLE_EQ(o.seconds, 10.0);
    EXPECT_TRUE(o.trace);
    EXPECT_EQ(o.jitDir, "d");
    EXPECT_TRUE(o.metrics.empty());
}

TEST(Args, ParsesTheDeclaredMetrics)
{
    RunOptions o;
    EXPECT_EQ(parseArgs({"--workload", "online-multi", "--jit-dir", "d",
                         "--metrics", "setup_s:s,wall.throughput:ops/s"},
                        o),
              "");
    ASSERT_EQ(o.metrics.size(), 2u);
    EXPECT_EQ(o.metrics[0].name, "setup_s");
    EXPECT_EQ(o.metrics[0].unit, "s");
    EXPECT_EQ(o.metrics[1].name, "wall.throughput");
    EXPECT_EQ(o.metrics[1].unit, "ops/s");
}

TEST(Args, RejectsBadInput)
{
    auto reason = [](std::vector<std::string> args) {
        RunOptions o;
        return parseArgs(args, o);
    };
    EXPECT_NE(reason({"--workload", "nope", "--jit-dir", "d"}), "");
    EXPECT_NE(reason({"--workload", "serve-drain"}), "");
    EXPECT_NE(reason({"--workload", "serve-drain", "--jit-dir", "d",
                      "--seed", "-1"}),
              "");
    EXPECT_NE(reason({"--workload", "serve-drain", "--jit-dir", "d",
                      "--trace", "2"}),
              "");
    EXPECT_NE(reason({"--workload", "serve-drain", "--jit-dir", "d",
                      "--seconds", "0"}),
              "");
    EXPECT_NE(reason({"--workload", "serve-drain", "--jit-dir", "d",
                      "--bogus", "1"}),
              "");
    EXPECT_NE(reason({"--workload", "serve-drain", "--jit-dir", "d",
                      "--metrics", "setup_s"}),
              "");
    EXPECT_NE(reason({"--workload", "serve-drain", "--jit-dir", "d",
                      "--metrics", "setup_s:s,"}),
              "");
    EXPECT_NE(reason({"--workload"}), "");
}

TEST(Digest, DependsOnEveryBit)
{
    const float a[2] = {1.0f, 2.0f};
    const float b[2] = {1.0f, -2.0f};
    EXPECT_NE(digestBytes(a, sizeof(a)), digestBytes(b, sizeof(b)));
    EXPECT_EQ(digestBytes(a, sizeof(a)), digestBytes(a, sizeof(a)));
}
