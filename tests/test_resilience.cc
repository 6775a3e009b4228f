/**
 * @file
 * Tests for the request-resilience layer (serve/resilience.* + its
 * integration in serve/online.*): validateServingConfig rejects
 * degenerate resilience/diurnal fields by name, p99.9 percentile math
 * is pinned (nearest-rank ties and clamping), retry backoff is seeded
 * and jitter-bounded, the circuit breaker walks closed -> open ->
 * half-open -> closed (and re-opens on a failed probe), brownout
 * levels step with hysteresis, trace-replay and diurnal arrival modes
 * are deterministic (and bit-identical to the legacy stream when
 * disabled), benign resilience (enabled but never firing) leaves the
 * serving timeline bit-identical to a no-resilience oracle across
 * {RGAT, RGCN, HGT} x {1, 2, 4 host threads}, and the firing paths
 * (timeout cancellation, hedging, quarantine retries under an
 * injected device failure) are deterministic with exact offered-load
 * accounting: offered = served + shed + timedOut + failed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "serve/online.hh"
#include "serve/resilience.hh"
#include "sim/device_group.hh"
#include "sim/fault.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace hector;
using tensor::Tensor;

graph::HeteroGraph
servingGraph()
{
    return graph::generate(graph::datasetSpec("aifb"), 1.0 / 16.0, 11);
}

Tensor
hostFeatures(const graph::HeteroGraph &g, std::int64_t dim,
             std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    return Tensor::uniform({g.numNodes(), dim}, rng, 0.5f);
}

serve::OnlineConfig
baseConfig(std::size_t requests, double rate_per_sec)
{
    serve::OnlineConfig cfg;
    cfg.serving.maxBatch = 8;
    cfg.serving.numStreams = 2;
    cfg.serving.din = 8;
    cfg.serving.dout = 8;
    cfg.serving.sample.numSeeds = 16;
    cfg.serving.sample.fanout = 4;
    cfg.serving.seed = 777;
    cfg.numRequests = requests;
    cfg.arrivalRatePerSec = rate_per_sec;
    return cfg;
}

serve::OnlineReport
runServer(const graph::HeteroGraph &g, const Tensor &features,
          const char *source, serve::OnlineConfig cfg,
          std::vector<double> *latencies_ms = nullptr)
{
    sim::Runtime rt;
    serve::OnlineServer server(g, features, source, cfg, rt);
    const serve::OnlineReport rep = server.run();
    if (latencies_ms)
        *latencies_ms = server.latenciesMs();
    return rep;
}

std::vector<double>
drainGen(serve::LoadGenerator gen)
{
    std::vector<double> out;
    while (!gen.done())
        out.push_back(gen.next());
    return out;
}

// ------------------------------------------------------------ validation

TEST(ResilienceConfigValidation, NamesTheOffendingField)
{
    auto expectThrowNaming = [](serve::ServingConfig cfg,
                                const char *field) {
        try {
            serve::validateServingConfig(cfg, "test");
            FAIL() << "expected std::invalid_argument naming " << field;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << "message '" << e.what() << "' must name " << field;
        }
    };

    serve::ServingConfig base;
    base.din = 8;
    base.dout = 8;
    base.resilience.enabled = true;
    EXPECT_NO_THROW(serve::validateServingConfig(base, "test"));

    serve::ServingConfig bad = base;
    bad.resilience.maxRetries = -1;
    expectThrowNaming(bad, "resilience.maxRetries");

    bad = base;
    bad.resilience.retryBackoffMs = -0.5;
    expectThrowNaming(bad, "resilience.retryBackoffMs");
    bad.resilience.retryBackoffMs = std::nan("");
    expectThrowNaming(bad, "resilience.retryBackoffMs");

    bad = base;
    bad.resilience.retryBackoffMultiplier = 0.5;
    expectThrowNaming(bad, "resilience.retryBackoffMultiplier");

    bad = base;
    bad.resilience.retryBackoffCapMs =
        base.resilience.retryBackoffMs / 2.0;
    expectThrowNaming(bad, "resilience.retryBackoffCapMs");

    bad = base;
    bad.resilience.retryJitterFraction = 1.5;
    expectThrowNaming(bad, "resilience.retryJitterFraction");
    bad.resilience.retryJitterFraction = -0.1;
    expectThrowNaming(bad, "resilience.retryJitterFraction");

    bad = base;
    bad.resilience.hedge = true;
    bad.resilience.hedgeDelayFactor = 0.0;
    expectThrowNaming(bad, "resilience.hedgeDelayFactor");
    // Hedging disabled: the factor is never read.
    bad.resilience.hedge = false;
    EXPECT_NO_THROW(serve::validateServingConfig(bad, "test"));

    bad = base;
    bad.resilience.breakerFailureThreshold = 0;
    expectThrowNaming(bad, "resilience.breakerFailureThreshold");

    bad = base;
    bad.resilience.breakerOpenMs = -1.0;
    expectThrowNaming(bad, "resilience.breakerOpenMs");

    bad = base;
    bad.resilience.brownoutHighWatermark = 0.0;
    expectThrowNaming(bad, "resilience.brownoutHighWatermark");
    bad.resilience.brownoutHighWatermark = 1.5;
    expectThrowNaming(bad, "resilience.brownoutHighWatermark");

    bad = base;
    bad.resilience.brownoutLowWatermark =
        bad.resilience.brownoutHighWatermark;
    expectThrowNaming(bad, "resilience.brownoutLowWatermark");
    bad.resilience.brownoutLowWatermark = -0.1;
    expectThrowNaming(bad, "resilience.brownoutLowWatermark");

    bad = base;
    bad.diurnal.enabled = true;
    bad.diurnal.amplitude = 1.0;
    expectThrowNaming(bad, "diurnal.amplitude");
    bad.diurnal.amplitude = 0.5;
    bad.diurnal.periodSec = 0.0;
    expectThrowNaming(bad, "diurnal.periodSec");

    // Disabled resilience/diurnal is inert: degenerate values are
    // never read.
    bad = base;
    bad.resilience.enabled = false;
    bad.resilience.maxRetries = -5;
    bad.resilience.brownoutHighWatermark = 9.0;
    bad.diurnal.enabled = false;
    bad.diurnal.periodSec = -1.0;
    EXPECT_NO_THROW(serve::validateServingConfig(bad, "test"));
}

// --------------------------------------------------------- p99.9 pinning

TEST(P999Percentile, NearestRankTiesAndClampsArePinned)
{
    EXPECT_DOUBLE_EQ(serve::percentileSorted({}, 0.999), 0.0);
    // n = 1: every quantile is the only sample.
    EXPECT_DOUBLE_EQ(serve::percentileSorted({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(serve::percentileSorted({7.0}, 0.999), 7.0);
    EXPECT_DOUBLE_EQ(serve::percentileSorted({7.0}, 1.0), 7.0);

    // n = 10, nearest-rank: rank = ceil(q * n), index rank - 1.
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i)
        ten.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(serve::percentileSorted(ten, 0.50), 5.0);
    EXPECT_DOUBLE_EQ(serve::percentileSorted(ten, 0.95), 10.0);
    EXPECT_DOUBLE_EQ(serve::percentileSorted(ten, 0.99), 10.0);
    // Small n: p99.9 ties with the max until n is large enough to
    // resolve the 10^-3 tail.
    EXPECT_DOUBLE_EQ(serve::percentileSorted(ten, 0.999), 10.0);

    // n = 1000: rank ceil(999.0) = 999 -> index 998 (the second
    // largest), NOT the max — the tail is now resolvable.
    std::vector<double> thousand;
    for (int i = 1; i <= 1000; ++i)
        thousand.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(serve::percentileSorted(thousand, 0.999), 999.0);
    EXPECT_DOUBLE_EQ(serve::percentileSorted(thousand, 1.0), 1000.0);
    // Out-of-range quantiles clamp instead of indexing out of bounds.
    EXPECT_DOUBLE_EQ(serve::percentileSorted(thousand, -0.5), 1.0);
    EXPECT_DOUBLE_EQ(serve::percentileSorted(thousand, 2.0), 1000.0);
}

TEST(P999Percentile, ReportedThroughFillLatencyStatsAndOnlineReport)
{
    serve::ServingReport stats;
    std::vector<double> lat;
    for (int i = 1; i <= 2000; ++i)
        lat.push_back(static_cast<double>(i) * 1e-3);
    serve::fillLatencyStats(stats, lat, {}, 0.0);
    EXPECT_DOUBLE_EQ(stats.p999LatencyMs, 1.998 * 1e3);
    EXPECT_GE(stats.p999LatencyMs, stats.p99LatencyMs);
    EXPECT_LE(stats.p999LatencyMs, stats.maxLatencyMs);

    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);
    const serve::OnlineReport rep = runServer(
        g, features, models::kRgcnSource, baseConfig(48, 2000.0));
    EXPECT_GT(rep.p999LatencyMs, 0.0);
    EXPECT_GE(rep.p999LatencyMs, rep.p99LatencyMs);
}

// ----------------------------------------------------------- retry/backoff

TEST(RetryBackoff, SeededJitterBoundedAndCapped)
{
    serve::ResilienceConfig cfg;
    cfg.enabled = true;
    cfg.maxRetries = 6;
    cfg.retryBackoffMs = 1.0;
    cfg.retryBackoffMultiplier = 2.0;
    cfg.retryBackoffCapMs = 4.0;
    cfg.retryJitterFraction = 0.5;

    serve::ResilienceManager a(cfg, 1), b(cfg, 1);
    for (int prior = 0; prior < 6; ++prior) {
        const auto da = a.onFailure(1, 0, 0, 0.0, "quarantine", prior);
        const auto db = b.onFailure(1, 0, 0, 0.0, "quarantine", prior);
        ASSERT_TRUE(da.retry);
        EXPECT_EQ(da.attempt, prior + 1);
        EXPECT_DOUBLE_EQ(da.notBeforeSec, db.notBeforeSec)
            << "same seed must draw the same jitter";
        // Nominal backoff min(cap, base * mult^(attempt-1)), jittered
        // within [1 - j/2, 1 + j/2].
        const double nominal =
            std::min(cfg.retryBackoffCapMs,
                     cfg.retryBackoffMs *
                         std::pow(cfg.retryBackoffMultiplier, prior)) *
            1e-3;
        EXPECT_GE(da.notBeforeSec, nominal * 0.75);
        EXPECT_LE(da.notBeforeSec, nominal * 1.25);
    }

    // Zero jitter pins the sequence exactly: 1, 2, 4 (cap), 4, ...
    serve::ResilienceConfig exact = cfg;
    exact.retryJitterFraction = 0.0;
    serve::ResilienceManager m(exact, 1);
    EXPECT_DOUBLE_EQ(m.onFailure(1, 0, 0, 0.0, "q", 0).notBeforeSec,
                     1e-3);
    EXPECT_DOUBLE_EQ(m.onFailure(1, 0, 0, 0.0, "q", 1).notBeforeSec,
                     2e-3);
    EXPECT_DOUBLE_EQ(m.onFailure(1, 0, 0, 0.0, "q", 2).notBeforeSec,
                     4e-3);
    EXPECT_DOUBLE_EQ(m.onFailure(1, 0, 0, 0.0, "q", 3).notBeforeSec,
                     4e-3)
        << "backoff must saturate at retryBackoffCapMs";
}

TEST(RetryBackoff, ExhaustionFailsTheRequest)
{
    serve::ResilienceConfig cfg;
    cfg.enabled = true;
    cfg.maxRetries = 2;
    serve::ResilienceManager m(cfg, 1);

    // The replay-exhaustion seam: a request whose detection-triggered
    // replays ran out retries like any transient failure, then fails.
    EXPECT_TRUE(m.onFailure(9, 0, 0, 0.0, "replay-exhausted", 0).retry);
    EXPECT_TRUE(m.onFailure(9, 0, 0, 1e-3, "replay-exhausted", 1).retry);
    const auto last = m.onFailure(9, 0, 0, 2e-3, "replay-exhausted", 2);
    EXPECT_FALSE(last.retry);
    EXPECT_EQ(last.attempt, 3);
    EXPECT_EQ(m.stats().requestsRetried, 2u);
    EXPECT_EQ(m.stats().requestsFailed, 1u);

    // maxRetries = 0 disables retries outright.
    serve::ResilienceConfig none = cfg;
    none.maxRetries = 0;
    serve::ResilienceManager z(none, 1);
    EXPECT_FALSE(z.onFailure(1, 0, 0, 0.0, "quarantine", 0).retry);
    EXPECT_EQ(z.stats().requestsFailed, 1u);
}

// --------------------------------------------------------- circuit breaker

TEST(CircuitBreaker, OpensProbesClosesAndReopensOnFailedProbe)
{
    serve::ResilienceConfig cfg;
    cfg.enabled = true;
    cfg.breakerFailureThreshold = 3;
    cfg.breakerOpenMs = 10.0;
    serve::ResilienceManager m(cfg, 2);

    EXPECT_STREQ(m.breakerState(0), "closed");
    m.noteFailure(0, 0.0, "shed");
    m.noteFailure(0, 0.0, "shed");
    EXPECT_STREQ(m.breakerState(0), "closed");
    m.noteFailure(0, 0.0, "shed");
    EXPECT_STREQ(m.breakerState(0), "open");
    EXPECT_EQ(m.stats().breakerOpens, 1u);
    EXPECT_STREQ(m.breakerState(1), "closed")
        << "breakers are per-lane";

    EXPECT_TRUE(m.blocked(0, 0.005));
    // Past openUntil the breaker half-opens and stops blocking: the
    // next served batch is the probe.
    EXPECT_FALSE(m.blocked(0, 0.011));
    EXPECT_STREQ(m.breakerState(0), "half-open");

    // A failure during the probe re-opens immediately (no threshold).
    m.noteFailure(0, 0.011, "timeout");
    EXPECT_STREQ(m.breakerState(0), "open");
    EXPECT_EQ(m.stats().breakerOpens, 2u);
    EXPECT_TRUE(m.blocked(0, 0.015));

    // A successful probe closes it.
    EXPECT_FALSE(m.blocked(0, 0.022));
    m.noteSuccess(0, 0.022);
    EXPECT_STREQ(m.breakerState(0), "closed");
    EXPECT_EQ(m.stats().breakerCloses, 1u);
    EXPECT_FALSE(m.blocked(0, 0.023));
}

TEST(CircuitBreaker, AdmissionBreaksAShedStreak)
{
    serve::ResilienceConfig cfg;
    cfg.enabled = true;
    cfg.breakerFailureThreshold = 3;
    serve::ResilienceManager m(cfg, 1);

    // A full-but-draining queue interleaves sheds with admissions;
    // the admit resets the streak so a healthy lane never opens.
    m.noteFailure(0, 0.0, "shed");
    m.noteFailure(0, 0.0, "shed");
    m.noteAdmit(0);
    m.noteFailure(0, 0.0, "shed");
    m.noteFailure(0, 0.0, "shed");
    EXPECT_STREQ(m.breakerState(0), "closed");
    m.noteFailure(0, 0.0, "shed");
    EXPECT_STREQ(m.breakerState(0), "open");
}

// ----------------------------------------------------------------- brownout

TEST(Brownout, StepsUpAtHighWatermarkAndResetsBelowLow)
{
    serve::ResilienceConfig cfg;
    cfg.enabled = true;
    cfg.hedge = true;
    cfg.brownoutHighWatermark = 0.75;
    cfg.brownoutLowWatermark = 0.25;
    serve::ResilienceManager m(cfg, 1);
    m.observeLatency(1e-3);
    EXPECT_TRUE(m.hedgeReady());
    EXPECT_DOUBLE_EQ(m.duplicationScale(), 1.0);

    // Depth 8/10 >= 0.75: one level per tick, hedging sheds first.
    m.tickBrownout(8, 10, 0.0);
    EXPECT_EQ(m.brownoutLevel(), 1);
    EXPECT_FALSE(m.hedgeReady()) << "level 1 must shed hedging";
    EXPECT_DOUBLE_EQ(m.duplicationScale(), 1.0);

    m.tickBrownout(8, 10, 0.001);
    EXPECT_EQ(m.brownoutLevel(), 2);
    EXPECT_DOUBLE_EQ(m.duplicationScale(), 0.0)
        << "level 2 must shed ASPIS duplication too";

    // Hysteresis: between the watermarks the level holds.
    m.tickBrownout(5, 10, 0.002);
    EXPECT_EQ(m.brownoutLevel(), 2);

    // Below the low watermark it resets fully.
    m.tickBrownout(2, 10, 0.003);
    EXPECT_EQ(m.brownoutLevel(), 0);
    EXPECT_TRUE(m.hedgeReady());

    EXPECT_EQ(m.stats().brownoutTicks, 3u);
    EXPECT_EQ(m.stats().maxBrownoutLevel, 2);

    // No admission bound -> never browns.
    m.tickBrownout(1000000, 0, 0.004);
    EXPECT_EQ(m.brownoutLevel(), 0);
}

// --------------------------------------------------------- deadline math

TEST(DeadlineFailFast, ExpiryIsEstimateAware)
{
    serve::ResilienceConfig cfg;
    cfg.enabled = true;
    serve::ResilienceManager m(cfg, 1);

    // Arrival 0, 10 ms deadline, clock at 5 ms: a 4 ms estimate still
    // fits, a 6 ms one cannot.
    EXPECT_FALSE(m.deadlineExpired(0.0, 0.010, 0.005, 0.004));
    EXPECT_TRUE(m.deadlineExpired(0.0, 0.010, 0.005, 0.006));
    // Before calibration (estimate 0) only an already-blown deadline
    // trips.
    EXPECT_FALSE(m.deadlineExpired(0.0, 0.010, 0.010, 0.0));
    EXPECT_TRUE(m.deadlineExpired(0.0, 0.010, 0.011, 0.0));
    // No deadline -> never.
    EXPECT_FALSE(m.deadlineExpired(0.0, 0.0, 100.0, 100.0));

    serve::ResilienceConfig off = cfg;
    off.failFast = false;
    serve::ResilienceManager n(off, 1);
    EXPECT_FALSE(n.deadlineExpired(0.0, 0.010, 0.011, 0.0));
}

// ------------------------------------------------------------ trace replay

TEST(LoadGeneratorTrace, ReplaysTimestampsExactlyAndValidates)
{
    const std::vector<double> times = {0.0, 0.5e-3, 0.5e-3, 2e-3};
    serve::LoadGenerator gen(times);
    EXPECT_EQ(gen.remaining(), times.size());
    EXPECT_FALSE(gen.inBurst());
    std::vector<double> got;
    while (!gen.done()) {
        EXPECT_DOUBLE_EQ(gen.peekSec(), times[got.size()]);
        got.push_back(gen.next());
    }
    EXPECT_EQ(got, times) << "trace replay must bypass the RNG";

    const std::vector<double> decreasing = {1e-3, 0.5e-3};
    const std::vector<double> negative = {-1e-3, 0.5e-3};
    const std::vector<double> with_nan = {0.0, std::nan("")};
    EXPECT_THROW(serve::LoadGenerator gen(decreasing),
                 std::invalid_argument)
        << "decreasing timestamps";
    EXPECT_THROW(serve::LoadGenerator gen(negative),
                 std::invalid_argument)
        << "negative timestamps";
    EXPECT_THROW(serve::LoadGenerator gen(with_nan),
                 std::invalid_argument)
        << "NaN timestamps";
}

TEST(LoadGeneratorTrace, LoadTraceParsesCommentsAndRejectsGarbage)
{
    const std::string path = "test_resilience_trace.tmp";
    {
        std::ofstream f(path);
        f << "# arrival trace, seconds\n"
          << "\n"
          << "0.0\n"
          << "  0.0015 \n"
          << "2.5e-3\n";
    }
    const std::vector<double> t = serve::LoadGenerator::loadTrace(path);
    ASSERT_EQ(t.size(), 3u);
    EXPECT_DOUBLE_EQ(t[0], 0.0);
    EXPECT_DOUBLE_EQ(t[1], 0.0015);
    EXPECT_DOUBLE_EQ(t[2], 0.0025);

    {
        std::ofstream f(path);
        f << "0.0\nnot-a-number\n";
    }
    EXPECT_THROW(serve::LoadGenerator::loadTrace(path),
                 std::runtime_error);
    std::remove(path.c_str());
    EXPECT_THROW(serve::LoadGenerator::loadTrace(path),
                 std::runtime_error)
        << "missing file";
}

TEST(OnlineTraceReplay, DrivesSingleAndShardedRunsDeterministically)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig cfg = baseConfig(0, 1.0);
    cfg.numRequests = 9999; // must be ignored in trace mode
    for (int i = 0; i < 24; ++i)
        cfg.arrivalTrace.push_back(static_cast<double>(i) * 2e-5);

    std::vector<double> lat_a, lat_b;
    const serve::OnlineReport a =
        runServer(g, features, models::kRgcnSource, cfg, &lat_a);
    const serve::OnlineReport b =
        runServer(g, features, models::kRgcnSource, cfg, &lat_b);
    EXPECT_EQ(a.requests, cfg.arrivalTrace.size())
        << "trace length must define the offered load";
    EXPECT_EQ(lat_a, lat_b);

    sim::DeviceGroup group(2);
    serve::OnlineServer sharded(g, features, models::kRgcnSource, cfg,
                                group);
    const serve::OnlineReport s = sharded.run();
    EXPECT_EQ(s.requests, cfg.arrivalTrace.size());
    EXPECT_EQ(s.devices, 2);
}

// ---------------------------------------------------------------- diurnal

TEST(LoadGeneratorDiurnal, DisabledIsBitIdenticalToLegacyStreams)
{
    const auto plain = serve::LoadGenerator::arrivals(2000.0, 256, 42);
    const auto off = drainGen(serve::LoadGenerator(
        2000.0, 256, 42, serve::MmppSpec{}, serve::DiurnalSpec{}));
    EXPECT_EQ(plain, off)
        << "a disabled DiurnalSpec must not perturb the stream";

    serve::MmppSpec mmpp;
    mmpp.enabled = true;
    const auto mmpp_only =
        serve::LoadGenerator::arrivals(2000.0, 256, 42, mmpp);
    const auto mmpp_off = drainGen(serve::LoadGenerator(
        2000.0, 256, 42, mmpp, serve::DiurnalSpec{}));
    EXPECT_EQ(mmpp_only, mmpp_off);
}

TEST(LoadGeneratorDiurnal, ModulatesDeterministicallyAcrossThreads)
{
    serve::DiurnalSpec diurnal;
    diurnal.enabled = true;
    diurnal.amplitude = 0.8;
    diurnal.periodSec = 0.05;

    const auto ref = drainGen(serve::LoadGenerator(
        2000.0, 512, 42, serve::MmppSpec{}, diurnal));
    const auto plain = serve::LoadGenerator::arrivals(2000.0, 512, 42);
    ASSERT_EQ(ref.size(), 512u);
    EXPECT_NE(ref, plain) << "the sinusoid must modulate gaps";
    for (std::size_t i = 1; i < ref.size(); ++i)
        EXPECT_GT(ref[i], ref[i - 1]) << "arrivals must strictly increase";

    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        const auto got = drainGen(serve::LoadGenerator(
            2000.0, 512, 42, serve::MmppSpec{}, diurnal));
        EXPECT_EQ(ref, got) << "threads=" << threads;
    }
    util::setGlobalThreads(0);

    // Composes with MMPP: enabling both changes the stream again.
    serve::MmppSpec mmpp;
    mmpp.enabled = true;
    const auto both = drainGen(
        serve::LoadGenerator(2000.0, 512, 42, mmpp, diurnal));
    EXPECT_NE(both, ref);
}

// ------------------------------------------- benign-path bit-identity

TEST(BenignResilience, MatrixIsBitIdenticalToNoResilienceOracle)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    const struct
    {
        const char *name;
        const char *source;
    } kModels[] = {{"rgat", models::kRgatSource},
                   {"rgcn", models::kRgcnSource},
                   {"hgt", models::kHgtSource}};

    for (const auto &model : kModels) {
        // Moderate load, generous deadline, hedging off: the layer is
        // on but nothing can fire — the timeline must not move.
        serve::OnlineConfig oracle_cfg = baseConfig(48, 2000.0);
        oracle_cfg.serving.deadlineMs = 50.0;

        std::vector<double> lat_oracle;
        const serve::OnlineReport oracle = runServer(
            g, features, model.source, oracle_cfg, &lat_oracle);

        serve::OnlineConfig res_cfg = oracle_cfg;
        res_cfg.serving.resilience.enabled = true;
        for (int threads : {1, 2, 4}) {
            util::setGlobalThreads(threads);
            std::vector<double> lat;
            const serve::OnlineReport rep = runServer(
                g, features, model.source, res_cfg, &lat);
            EXPECT_EQ(lat, lat_oracle)
                << model.name << " threads=" << threads
                << ": benign resilience must be bit-identical";
            EXPECT_EQ(rep.ticks, oracle.ticks);
            EXPECT_DOUBLE_EQ(rep.p99LatencyMs, oracle.p99LatencyMs);
            EXPECT_EQ(rep.requestsRetried, 0u);
            EXPECT_EQ(rep.requestsHedged, 0u);
            EXPECT_EQ(rep.requestsTimedOut, 0u);
            EXPECT_EQ(rep.requestsFailed, 0u);
            EXPECT_EQ(rep.breakerOpens, 0u);
            EXPECT_EQ(rep.brownoutTicks, 0u);
        }
        util::setGlobalThreads(0);
    }
}

// -------------------------------------------------------- firing paths

TEST(TimeoutCancellation, FailsFastWithExactAccounting)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig cfg = baseConfig(96, 200000.0);
    cfg.serving.deadlineMs = 0.3;
    cfg.serving.maxQueueDepth = 16;
    cfg.serving.shed = serve::ShedMode::RejectNewest;
    cfg.serving.resilience.enabled = true;

    std::vector<double> lat_a;
    const serve::OnlineReport a =
        runServer(g, features, models::kRgcnSource, cfg, &lat_a);
    EXPECT_GT(a.requestsTimedOut, 0u)
        << "a 0.3 ms deadline under deep overload must cancel work";
    EXPECT_GT(a.requestsShed, 0u)
        << "the bounded queue must also shed under this burst";
    EXPECT_EQ(a.requests + a.requestsShed + a.requestsTimedOut +
                  a.requestsFailed,
              cfg.numRequests)
        << "offered arrivals must partition exactly";

    std::vector<double> lat_b;
    const serve::OnlineReport b =
        runServer(g, features, models::kRgcnSource, cfg, &lat_b);
    EXPECT_EQ(lat_a, lat_b);
    EXPECT_EQ(a.requestsTimedOut, b.requestsTimedOut);
    EXPECT_EQ(a.requestsShed, b.requestsShed);
}

TEST(Hedging, FiresDeterministicallyWithFirstWinsAccounting)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    // 40 k req/s: sustained pressure (32 ticks) rather than one shed
    // burst, so the EWMA warms up and head waits cross the hedge
    // delay while the queue stays below the brownout watermark.
    serve::OnlineConfig cfg = baseConfig(96, 40000.0);
    cfg.serving.maxQueueDepth = 12;
    cfg.serving.shed = serve::ShedMode::RejectNewest;
    cfg.serving.resilience.enabled = true;
    cfg.serving.resilience.hedge = true;
    cfg.serving.resilience.hedgeDelayFactor = 0.5;
    // Keep brownout from shedding the hedges this test is about.
    cfg.serving.resilience.brownoutHighWatermark = 1.0;

    std::vector<double> lat_a;
    const serve::OnlineReport a =
        runServer(g, features, models::kRgcnSource, cfg, &lat_a);
    EXPECT_GT(a.requestsHedged, 0u)
        << "queue waits past 0.5x EWMA must hedge";
    EXPECT_LE(a.hedgeWins, a.requestsHedged);
    EXPECT_EQ(a.requests + a.requestsShed + a.requestsTimedOut +
                  a.requestsFailed,
              cfg.numRequests);

    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        std::vector<double> lat;
        const serve::OnlineReport rep =
            runServer(g, features, models::kRgcnSource, cfg, &lat);
        EXPECT_EQ(lat, lat_a) << "threads=" << threads;
        EXPECT_EQ(rep.requestsHedged, a.requestsHedged);
        EXPECT_EQ(rep.hedgeWins, a.hedgeWins);
    }
    util::setGlobalThreads(0);
}

TEST(ResilienceUnderFaults, QuarantineRetriesAreThreadDeterministic)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig cfg = baseConfig(64, 100000.0);
    cfg.serving.resilience.enabled = true;
    cfg.serving.resilience.maxRetries = 2;

    // Fault-free sharded run to anchor the failure instant mid-run.
    double t_fail = 0.0;
    {
        sim::DeviceGroup group(4);
        serve::OnlineServer server(g, features, models::kRgatSource,
                                   cfg, group);
        const double start = group.nowSec();
        server.run();
        t_fail = start + 0.5 * (group.nowSec() - start);
    }

    struct FaultRun
    {
        serve::OnlineReport rep;
        std::vector<double> latencies;
    };
    auto run = [&](int threads) {
        util::setGlobalThreads(threads);
        sim::FaultSchedule sched;
        sched.events.push_back(
            {sim::FaultKind::DeviceFailure, 3, t_fail, 1});
        sim::FaultInjector fi(sched);
        sim::DeviceGroup group(4);
        group.setFaultInjector(&fi);
        serve::OnlineServer server(g, features, models::kRgatSource,
                                   cfg, group);
        FaultRun out;
        out.rep = server.run();
        out.latencies = server.latenciesMs();
        util::setGlobalThreads(0);
        return out;
    };

    const FaultRun ref = run(1);
    EXPECT_EQ(ref.rep.devicesFailed, 1);
    EXPECT_EQ(ref.rep.requests + ref.rep.requestsShed +
                  ref.rep.requestsTimedOut + ref.rep.requestsFailed,
              cfg.numRequests)
        << "offered arrivals must partition exactly under faults";

    for (int threads : {2, 4}) {
        const FaultRun got = run(threads);
        EXPECT_EQ(got.latencies, ref.latencies)
            << "threads=" << threads;
        EXPECT_EQ(got.rep.requestsRetried, ref.rep.requestsRetried);
        EXPECT_EQ(got.rep.requestsFailed, ref.rep.requestsFailed);
        EXPECT_EQ(got.rep.requestsRerouted, ref.rep.requestsRerouted);
        EXPECT_EQ(got.rep.breakerOpens, ref.rep.breakerOpens);
    }
}

/** maxRetries = 0: a mid-run device failure fails every request it
 *  re-routes, each leaves its destination queue, and every request
 *  that is still served keeps the fault-free run's output bits. */
TEST(ResilienceUnderFaults, RetryExhaustionFailsEveryRerouted)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig cfg = baseConfig(64, 100000.0);
    cfg.serving.resilience.enabled = true;
    cfg.serving.resilience.maxRetries = 0;
    cfg.retainResults = true;

    // Fault-free oracle; it also anchors the failure instant mid-run.
    sim::DeviceGroup oracle_group(4);
    serve::OnlineServer oracle(g, features, models::kRgatSource, cfg,
                               oracle_group);
    const double start = oracle_group.nowSec();
    oracle.run();
    const double t_fail = start + 0.5 * (oracle_group.nowSec() - start);

    sim::FaultSchedule sched;
    sched.events.push_back({sim::FaultKind::DeviceFailure, 3, t_fail, 1});
    sim::FaultInjector fi(sched);
    sim::DeviceGroup group(4);
    group.setFaultInjector(&fi);
    serve::OnlineServer server(g, features, models::kRgatSource, cfg,
                               group);
    const serve::OnlineReport rep = server.run();

    EXPECT_EQ(rep.devicesFailed, 1);
    EXPECT_GT(rep.requestsRerouted, 0u)
        << "the failure must strike a device with queued work";
    EXPECT_EQ(rep.requestsFailed, rep.requestsRerouted)
        << "with no retry budget every re-routed request fails";
    EXPECT_EQ(rep.requestsRetried, 0u);
    EXPECT_EQ(server.sharded().queued(), 0u)
        << "a failed request must leave its destination queue";
    EXPECT_EQ(rep.requests + rep.requestsShed + rep.requestsTimedOut +
                  rep.requestsFailed,
              cfg.numRequests)
        << "offered arrivals must partition exactly";

    std::size_t compared = 0;
    for (std::uint64_t id = 1; id <= cfg.numRequests; ++id) {
        const Tensor *got = server.sharded().result(id);
        if (!got)
            continue; // failed after the re-route
        const Tensor *want = oracle.sharded().result(id);
        ASSERT_NE(want, nullptr) << "id " << id;
        ASSERT_EQ(got->shape(), want->shape()) << "id " << id;
        EXPECT_EQ(std::memcmp(got->data(), want->data(),
                              got->numel() * sizeof(float)),
                  0)
            << "id " << id;
        ++compared;
    }
    EXPECT_EQ(compared, rep.requests);
}

} // namespace
