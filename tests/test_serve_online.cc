/**
 * @file
 * Tests for the online serving layer (src/serve/online.*): the Poisson
 * load generator is deterministic under a fixed seed and scales
 * exactly with rate, the adaptive batcher serves shallow queues
 * immediately and grows to maxBatch under saturation, the open-loop
 * server produces bit-identical per-request results to closed-loop
 * drain cycles, SLO attainment is monotone non-increasing in offered
 * load, the simulated virtual clock advances monotonically to the
 * run's makespan, a single-device server is bit-identical to a
 * one-lane engine run, and every report judges a deadline the same
 * way. Everything here is deterministic under fixed seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "serve/online.hh"
#include "sim/device_group.hh"

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
onlineConfig(std::size_t requests = 24, double rate = 50000.0)
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
    cfg.arrivalRatePerSec = rate;
    return cfg;
}

serve::OnlineReport
runServer(const graph::HeteroGraph &g, const Tensor &features,
          serve::OnlineConfig cfg,
          std::vector<double> *latencies_ms = nullptr,
          std::vector<std::size_t> *batch_sizes = nullptr)
{
    sim::Runtime rt;
    serve::OnlineServer server(g, features, models::kRgcnSource, cfg, rt);
    const serve::OnlineReport rep = server.run();
    if (latencies_ms)
        *latencies_ms = server.latenciesMs();
    if (batch_sizes)
        *batch_sizes = server.batchSizes();
    return rep;
}

// ------------------------------------------------------------ LoadGenerator

TEST(LoadGenerator, DeterministicUnderFixedSeed)
{
    const auto a = serve::LoadGenerator::arrivals(1000.0, 256, 42);
    const auto b = serve::LoadGenerator::arrivals(1000.0, 256, 42);
    const auto c = serve::LoadGenerator::arrivals(1000.0, 256, 43);
    ASSERT_EQ(a.size(), 256u);
    EXPECT_EQ(a, b) << "same seed must give the identical sequence";
    EXPECT_NE(a, c) << "different seeds must diverge";
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]) << "arrivals must strictly increase";
    EXPECT_GT(a.front(), 0.0);
}

TEST(LoadGenerator, MeanInterArrivalMatchesRate)
{
    const double rate = 2000.0;
    const auto t = serve::LoadGenerator::arrivals(rate, 4096, 7);
    const double mean_gap = t.back() / static_cast<double>(t.size());
    EXPECT_NEAR(mean_gap, 1.0 / rate, 0.1 / rate)
        << "mean inter-arrival must approximate 1/rate";
}

TEST(LoadGenerator, ArrivalTimesScaleExactlyWithRate)
{
    const auto slow = serve::LoadGenerator::arrivals(500.0, 128, 99);
    const auto fast = serve::LoadGenerator::arrivals(2000.0, 128, 99);
    ASSERT_EQ(slow.size(), fast.size());
    // Equal seeds draw the same uniforms, so times scale by the exact
    // rate ratio — the property that makes rate sweeps comparable.
    for (std::size_t i = 0; i < slow.size(); ++i)
        EXPECT_NEAR(slow[i], 4.0 * fast[i], 1e-12 * slow[i] + 1e-15);
}

TEST(LoadGenerator, StreamingInterfaceMatchesBatchInterface)
{
    const auto batch = serve::LoadGenerator::arrivals(1234.0, 32, 5);
    serve::LoadGenerator gen(1234.0, 32, 5);
    for (double expected : batch) {
        ASSERT_FALSE(gen.done());
        EXPECT_EQ(gen.peekSec(), expected);
        EXPECT_EQ(gen.next(), expected);
    }
    EXPECT_TRUE(gen.done());
    EXPECT_THROW(gen.peekSec(), std::runtime_error);
}

// ---------------------------------------------------------- AdaptiveBatcher

TEST(AdaptiveBatcher, ReachesMaxBatchUnderSaturation)
{
    serve::AdaptiveBatcher b(8, 1e-3);
    EXPECT_EQ(b.pick(8), 8u);
    EXPECT_EQ(b.pick(100), 8u);
    // Still true once calibrated, even with costly batches: with an
    // UNBOUNDED queue (the default here) saturation means deadlines
    // are blown either way and throughput rules. A bounded-queue
    // batcher keeps its deadline cap instead — see
    // test_serve_overload.cc.
    b.observe({8, 1e-3, 8e-3});
    EXPECT_EQ(b.pick(8), 8u);
    EXPECT_EQ(b.pick(1000), 8u);
}

TEST(AdaptiveBatcher, ServesQueueDepthImmediatelyWhenUncalibrated)
{
    serve::AdaptiveBatcher b(8, 1e-3);
    EXPECT_FALSE(b.calibrated());
    EXPECT_EQ(b.pick(0), 0u);
    EXPECT_EQ(b.pick(1), 1u);
    EXPECT_EQ(b.pick(5), 5u);
}

TEST(AdaptiveBatcher, DeadlineBudgetCapsBatchSize)
{
    // deadline 1 ms, budget fraction 0.5 -> 0.5 ms service budget.
    serve::AdaptiveBatcher b(8, 1e-3, 0.25, 0.5);
    // Expensive service: 0.1 ms overhead + 0.4 ms exec for 2 requests
    // (0.2 ms per request) -> budget after overhead fits exactly 2.
    b.observe({2, 1e-4, 4e-4});
    EXPECT_TRUE(b.calibrated());
    EXPECT_EQ(b.pick(5), 2u)
        << "cost model must cap the batch to the deadline budget";
    EXPECT_EQ(b.pick(1), 1u);

    // Cheap service: the cap is far above the depth, so depth rules.
    serve::AdaptiveBatcher cheap(8, 1e-3, 0.25, 0.5);
    cheap.observe({4, 1e-6, 4e-6});
    EXPECT_EQ(cheap.pick(5), 5u);
}

TEST(AdaptiveBatcher, EwmaTracksObservedCosts)
{
    serve::AdaptiveBatcher b(8, 0.0, 0.5);
    b.observe({4, 2e-5, 4e-5}); // first observation seeds the EWMA
    EXPECT_DOUBLE_EQ(b.ewmaOverheadSec(), 2e-5);
    EXPECT_DOUBLE_EQ(b.ewmaExecPerRequestSec(), 1e-5);

    // Costs double: the EWMA moves monotonically toward the new level
    // without overshooting it.
    double prev = b.ewmaExecPerRequestSec();
    for (int i = 0; i < 10; ++i) {
        b.observe({4, 4e-5, 8e-5});
        EXPECT_GT(b.ewmaExecPerRequestSec(), prev);
        EXPECT_LE(b.ewmaExecPerRequestSec(), 2e-5);
        prev = b.ewmaExecPerRequestSec();
    }
    EXPECT_NEAR(b.ewmaExecPerRequestSec(), 2e-5, 1e-7);
}

// ------------------------------------------------------------- OnlineServer

TEST(OnlineServer, DeterministicUnderFixedSeeds)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 61);

    std::vector<double> lat1, lat2;
    std::vector<std::size_t> sizes1, sizes2;
    const serve::OnlineReport r1 =
        runServer(g, host, onlineConfig(), &lat1, &sizes1);
    const serve::OnlineReport r2 =
        runServer(g, host, onlineConfig(), &lat2, &sizes2);

    EXPECT_EQ(lat1, lat2);
    EXPECT_EQ(sizes1, sizes2);
    EXPECT_EQ(r1.makespanMs, r2.makespanMs);
    EXPECT_EQ(r1.p99LatencyMs, r2.p99LatencyMs);
    EXPECT_EQ(r1.sloAttainment, r2.sloAttainment);
    EXPECT_EQ(r1.ticks, r2.ticks);
}

TEST(OnlineServer, ResultsBitIdenticalToClosedLoopDrain)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 62);

    serve::OnlineConfig cfg = onlineConfig(12);
    cfg.retainResults = true;

    sim::Runtime rt_online;
    serve::OnlineServer server(g, host, models::kRgcnSource, cfg,
                               rt_online);
    server.run();

    // A closed-loop session with the same serving seed samples the
    // identical request stream (ids 1..n in the same order).
    sim::Runtime rt_closed;
    serve::ServingSession session(g, host, models::kRgcnSource,
                                  cfg.serving, rt_closed);
    for (std::size_t i = 0; i < cfg.numRequests; ++i)
        session.submit();
    session.drain();

    for (std::uint64_t id = 1; id <= cfg.numRequests; ++id) {
        const Tensor *online_out = server.session().result(id);
        const Tensor *closed_out = session.result(id);
        ASSERT_NE(online_out, nullptr) << "online result " << id;
        ASSERT_NE(closed_out, nullptr) << "closed result " << id;
        ASSERT_EQ(online_out->shape(), closed_out->shape());
        EXPECT_EQ(tensor::maxAbsDiff(*online_out, *closed_out), 0.0f)
            << "request " << id
            << " served differently online vs closed-loop";
    }
}

TEST(OnlineServer, SloAttainmentMonotoneNonIncreasingInOfferedLoad)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 63);

    // Calibrate the deadline to the lone-request latency so the rate
    // sweep crosses from trivially-attained to hopeless.
    serve::OnlineConfig probe = onlineConfig(4, 1.0);
    const serve::OnlineReport lone = runServer(g, host, probe);
    const double deadline_ms = 3.0 * lone.meanLatencyMs;
    ASSERT_GT(deadline_ms, 0.0);

    // Saturation capacity anchors the sweep.
    serve::OnlineConfig sat = onlineConfig(32, 1e12);
    const serve::OnlineReport peak = runServer(g, host, sat);
    ASSERT_GT(peak.throughputReqPerSec, 0.0);

    double prev = 1.1;
    for (double frac : {0.05, 0.3, 1.0, 4.0}) {
        serve::OnlineConfig cfg = onlineConfig(32);
        cfg.serving.deadlineMs = deadline_ms;
        cfg.arrivalRatePerSec = frac * peak.throughputReqPerSec;
        const serve::OnlineReport rep = runServer(g, host, cfg);
        EXPECT_LE(rep.sloAttainment, prev + 1e-12)
            << "attainment increased at load fraction " << frac;
        prev = rep.sloAttainment;
    }
    EXPECT_LT(prev, 1.0)
        << "the sweep must actually reach an overloaded regime";
}

TEST(OnlineServer, AdaptiveBatcherSaturatesEndToEnd)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 64);

    serve::OnlineConfig cfg = onlineConfig(48, 1e12); // instant arrivals
    std::vector<std::size_t> sizes;
    const serve::OnlineReport rep =
        runServer(g, host, cfg, nullptr, &sizes);

    ASSERT_FALSE(sizes.empty());
    EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()),
              cfg.serving.maxBatch)
        << "saturation must drive the batcher to maxBatch";
    EXPECT_GT(rep.meanBatchSize,
              static_cast<double>(cfg.serving.maxBatch) / 2.0);
    EXPECT_EQ(rep.peakQueueDepth, cfg.numRequests);
}

TEST(OnlineServer, LowLoadServesSmallBatchesAndMeetsGenerousDeadline)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 65);

    serve::OnlineConfig cfg = onlineConfig(24, 10.0); // near-isolated
    cfg.serving.deadlineMs = 1e6;
    std::vector<std::size_t> sizes;
    const serve::OnlineReport rep =
        runServer(g, host, cfg, nullptr, &sizes);

    EXPECT_EQ(rep.sloAttainment, 1.0);
    for (std::size_t s : sizes)
        EXPECT_EQ(s, 1u) << "an idle server must not wait to batch";
    EXPECT_LT(rep.meanQueueDelayMs, rep.meanLatencyMs);
    EXPECT_EQ(rep.peakQueueDepth, 1u);
}

TEST(OnlineServer, VirtualClockAdvancesMonotonicallyToMakespan)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 66);

    sim::Runtime rt;
    EXPECT_EQ(rt.nowSec(), 0.0);
    rt.advanceTo(5.0);
    rt.advanceTo(2.0); // earlier: ignored
    EXPECT_EQ(rt.nowSec(), 5.0);
    rt.resetCounters();
    EXPECT_EQ(rt.nowSec(), 0.0);

    serve::OnlineServer server(g, host, models::kRgcnSource,
                               onlineConfig(), rt);
    const serve::OnlineReport rep = server.run();
    EXPECT_NEAR(rt.nowMs(), rep.makespanMs, 1e-9)
        << "the clock must end at the last completion";
}

TEST(OnlineServer, ReportInternallyConsistent)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 67);

    serve::OnlineConfig cfg = onlineConfig(32);
    cfg.serving.deadlineMs = 0.5;
    std::vector<double> lats;
    std::vector<std::size_t> sizes;
    const serve::OnlineReport rep = runServer(g, host, cfg, &lats, &sizes);

    EXPECT_EQ(rep.requests, cfg.numRequests);
    EXPECT_EQ(rep.batches, rep.ticks);
    EXPECT_EQ(sizes.size(), rep.ticks);
    EXPECT_EQ(lats.size(), rep.requests);

    std::size_t total = 0;
    for (std::size_t s : sizes)
        total += s;
    EXPECT_EQ(total, rep.requests);
    EXPECT_NEAR(rep.meanBatchSize,
                static_cast<double>(total) /
                    static_cast<double>(rep.ticks),
                1e-12);

    EXPECT_LE(rep.p50LatencyMs, rep.p95LatencyMs);
    EXPECT_LE(rep.p95LatencyMs, rep.p99LatencyMs);
    EXPECT_LE(rep.p99LatencyMs, rep.maxLatencyMs);
    EXPECT_GT(rep.makespanMs, 0.0);
    EXPECT_GT(rep.throughputReqPerSec, 0.0);
    EXPECT_GE(rep.sloAttainment, 0.0);
    EXPECT_LE(rep.sloAttainment, 1.0);
    EXPECT_GE(rep.makespanMs, rep.lastArrivalMs);
    EXPECT_GT(rep.launches, 0u);
    EXPECT_EQ(rep.cacheMisses, 1u) << "one plan compile per model";
}

TEST(OnlineServer, AdaptiveBeatsFixedTailAtLowLoadMatchesThroughputAtHigh)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 68);

    serve::OnlineConfig sat = onlineConfig(32, 1e12);
    const double capacity = runServer(g, host, sat).throughputReqPerSec;
    ASSERT_GT(capacity, 0.0);

    auto with_policy = [&](double rate, bool adaptive) {
        serve::OnlineConfig cfg = onlineConfig(32, rate);
        cfg.policy = adaptive ? "adaptive" : "fixed";
        cfg.serving.deadlineMs = 1.0;
        return runServer(g, host, cfg);
    };

    // Low load: wait-to-fill pays fill-wait latency, adaptive doesn't.
    const double low = 0.05 * capacity;
    const serve::OnlineReport a_low = with_policy(low, true);
    const serve::OnlineReport f_low = with_policy(low, false);
    EXPECT_LT(a_low.p99LatencyMs, f_low.p99LatencyMs);

    // High load: both serve full batches back to back.
    const double high = 2.0 * capacity;
    const serve::OnlineReport a_high = with_policy(high, true);
    const serve::OnlineReport f_high = with_policy(high, false);
    EXPECT_GE(a_high.throughputReqPerSec,
              0.95 * f_high.throughputReqPerSec);
}

TEST(OnlineServer, FixedBatchClampedToMaxBatch)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 70);

    serve::OnlineConfig cfg = onlineConfig(24, 1e12); // saturated
    cfg.policy = "fixed";
    cfg.fixedBatch = 32; // above maxBatch: must be clamped
    std::vector<std::size_t> sizes;
    runServer(g, host, cfg, nullptr, &sizes);

    ASSERT_FALSE(sizes.empty());
    for (std::size_t s : sizes)
        EXPECT_LE(s, cfg.serving.maxBatch)
            << "fixedBatch must not exceed the micro-batch bound";
    EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()),
              cfg.serving.maxBatch);
}

TEST(OnlineServer, ZeroRequestsReturnsEmptyReport)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 69);

    const serve::OnlineReport rep = runServer(g, host, onlineConfig(0));
    EXPECT_EQ(rep.requests, 0u);
    EXPECT_EQ(rep.ticks, 0u);
    EXPECT_EQ(rep.makespanMs, 0.0);
    EXPECT_EQ(rep.throughputReqPerSec, 0.0);
    EXPECT_EQ(rep.sloAttainment, 1.0);
    EXPECT_TRUE(std::isfinite(rep.meanLatencyMs));
}

// ---------------------------------------- single device == one-lane engine

/** Everything one open-loop run exposes, for bit-equality checks. */
struct RunCapture
{
    serve::OnlineReport rep;
    std::vector<double> latenciesMs;
    std::vector<double> queueDelaysMs;
    std::vector<std::size_t> batchSizes;
    /** Output bits of request ids 1..numRequests; empty when unserved. */
    std::vector<std::vector<std::uint32_t>> outputs;
};

template <typename ResultFn>
void
capture(RunCapture &out, serve::OnlineServer &server, std::size_t ids,
        ResultFn result)
{
    out.rep = server.run();
    out.latenciesMs = server.latenciesMs();
    out.queueDelaysMs = server.queueDelaysMs();
    out.batchSizes = server.batchSizes();
    for (std::uint64_t id = 1; id <= ids; ++id) {
        std::vector<std::uint32_t> bits;
        if (const Tensor *t = result(id)) {
            bits.resize(t->numel());
            std::memcpy(bits.data(), t->data(),
                        t->numel() * sizeof(float));
        }
        out.outputs.push_back(std::move(bits));
    }
}

RunCapture
runSingleDevice(const graph::HeteroGraph &g, const Tensor &features,
                const serve::OnlineConfig &cfg)
{
    sim::Runtime rt;
    serve::OnlineServer server(g, features, models::kRgcnSource, cfg, rt);
    RunCapture out;
    capture(out, server, cfg.numRequests, [&](std::uint64_t id) {
        return server.session().result(id);
    });
    return out;
}

/** The same run through the Engine constructor: one variant registered
 *  with the run's ServingConfig and one VariantLoad with its arrivals. */
RunCapture
runOneLaneEngine(const graph::HeteroGraph &g, const Tensor &features,
                 const serve::OnlineConfig &cfg)
{
    sim::Runtime rt;
    serve::EngineConfig ec;
    ec.numStreams = cfg.serving.numStreams;
    ec.planBudgetBytes = cfg.serving.planBudgetBytes;
    ec.autotuneSchedules = cfg.serving.autotuneSchedules;
    serve::Engine engine(g, ec, rt);
    engine.registerVariant("default", features, models::kRgcnSource,
                           cfg.serving);
    serve::OnlineConfig ecfg = cfg;
    serve::VariantLoad load;
    load.variant = "default";
    load.ratePerSec = cfg.arrivalRatePerSec;
    load.numRequests = cfg.numRequests;
    load.arrivalSeed = cfg.arrivalSeed;
    ecfg.variants = {load};
    serve::OnlineServer server(engine, ecfg);
    RunCapture out;
    capture(out, server, cfg.numRequests,
            [&](std::uint64_t id) { return engine.result(id); });
    return out;
}

void
expectSameRun(const RunCapture &a, const RunCapture &b,
              const std::string &label)
{
    SCOPED_TRACE(label);
    const serve::OnlineReport &x = a.rep;
    const serve::OnlineReport &y = b.rep;
    EXPECT_EQ(x.requests, y.requests);
    EXPECT_EQ(x.batches, y.batches);
    EXPECT_EQ(x.makespanMs, y.makespanMs);
    EXPECT_EQ(x.throughputReqPerSec, y.throughputReqPerSec);
    EXPECT_EQ(x.meanLatencyMs, y.meanLatencyMs);
    EXPECT_EQ(x.p50LatencyMs, y.p50LatencyMs);
    EXPECT_EQ(x.p95LatencyMs, y.p95LatencyMs);
    EXPECT_EQ(x.p99LatencyMs, y.p99LatencyMs);
    EXPECT_EQ(x.p999LatencyMs, y.p999LatencyMs);
    EXPECT_EQ(x.maxLatencyMs, y.maxLatencyMs);
    EXPECT_EQ(x.meanQueueDelayMs, y.meanQueueDelayMs);
    EXPECT_EQ(x.sloAttainment, y.sloAttainment);
    EXPECT_EQ(x.msPerRequest, y.msPerRequest);
    EXPECT_EQ(x.cacheHits, y.cacheHits);
    EXPECT_EQ(x.cacheMisses, y.cacheMisses);
    EXPECT_EQ(x.cacheRecompiles, y.cacheRecompiles);
    EXPECT_EQ(x.cacheEvictions, y.cacheEvictions);
    EXPECT_EQ(x.cacheResidentBytes, y.cacheResidentBytes);
    EXPECT_EQ(x.launches, y.launches);
    EXPECT_EQ(x.perVariant.size(), y.perVariant.size());
    for (std::size_t i = 0;
         i < std::min(x.perVariant.size(), y.perVariant.size()); ++i) {
        EXPECT_EQ(x.perVariant[i].name, y.perVariant[i].name);
        EXPECT_EQ(x.perVariant[i].requests, y.perVariant[i].requests);
        EXPECT_EQ(x.perVariant[i].meanLatencyMs,
                  y.perVariant[i].meanLatencyMs);
        EXPECT_EQ(x.perVariant[i].p50LatencyMs,
                  y.perVariant[i].p50LatencyMs);
        EXPECT_EQ(x.perVariant[i].p99LatencyMs,
                  y.perVariant[i].p99LatencyMs);
        EXPECT_EQ(x.perVariant[i].sloAttainment,
                  y.perVariant[i].sloAttainment);
        EXPECT_EQ(x.perVariant[i].requestsShed,
                  y.perVariant[i].requestsShed);
    }
    EXPECT_EQ(x.offeredRatePerSec, y.offeredRatePerSec);
    EXPECT_EQ(x.deadlineMs, y.deadlineMs);
    EXPECT_EQ(x.ticks, y.ticks);
    EXPECT_EQ(x.meanBatchSize, y.meanBatchSize);
    EXPECT_EQ(x.peakQueueDepth, y.peakQueueDepth);
    EXPECT_EQ(x.lastArrivalMs, y.lastArrivalMs);
    EXPECT_EQ(x.devices, y.devices);
    EXPECT_EQ(x.haloBytes, y.haloBytes);
    EXPECT_EQ(x.interconnectMs, y.interconnectMs);
    EXPECT_EQ(x.devicesFailed, y.devicesFailed);
    EXPECT_EQ(x.requestsRerouted, y.requestsRerouted);
    EXPECT_EQ(x.requestsShed, y.requestsShed);
    EXPECT_EQ(x.shedFraction, y.shedFraction);
    EXPECT_EQ(x.admittedSloAttainment, y.admittedSloAttainment);
    EXPECT_EQ(x.peakLaneQueueDepth, y.peakLaneQueueDepth);
    EXPECT_EQ(x.policy, y.policy);
    EXPECT_EQ(x.requestsRetried, y.requestsRetried);
    EXPECT_EQ(x.requestsHedged, y.requestsHedged);
    EXPECT_EQ(x.hedgeWins, y.hedgeWins);
    EXPECT_EQ(x.requestsTimedOut, y.requestsTimedOut);
    EXPECT_EQ(x.requestsFailed, y.requestsFailed);
    EXPECT_EQ(x.breakerOpens, y.breakerOpens);
    EXPECT_EQ(x.brownoutTicks, y.brownoutTicks);
    EXPECT_EQ(a.latenciesMs, b.latenciesMs);
    EXPECT_EQ(a.queueDelaysMs, b.queueDelaysMs);
    EXPECT_EQ(a.batchSizes, b.batchSizes);
    EXPECT_EQ(a.outputs, b.outputs);
}

TEST(OnlineServer, SingleDeviceEqualsOneLaneEngineRun)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 70);

    auto base = [](const char *policy) {
        serve::OnlineConfig cfg = onlineConfig(48, 50000.0);
        cfg.policy = policy;
        cfg.serving.deadlineMs = 1.0;
        cfg.retainResults = true;
        return cfg;
    };
    std::vector<std::pair<std::string, serve::OnlineConfig>> cases;
    for (const char *policy : {"fixed", "adaptive", "wfq"})
        cases.emplace_back(policy, base(policy));

    serve::OnlineConfig shed = base("adaptive");
    shed.arrivalRatePerSec = 200000.0;
    shed.serving.maxQueueDepth = 8;
    shed.serving.shed = serve::ShedMode::RejectNewest;
    cases.emplace_back("shed", shed);

    // Deadline fail-fast and hedging both fire on the 2-stream device;
    // at twice the load brownout engages as well.
    serve::OnlineConfig resil = base("adaptive");
    resil.numRequests = 96;
    resil.arrivalRatePerSec = 40000.0;
    resil.serving.deadlineMs = 0.2;
    resil.serving.maxQueueDepth = 16;
    resil.serving.shed = serve::ShedMode::RejectNewest;
    resil.serving.resilience.enabled = true;
    resil.serving.resilience.hedge = true;
    resil.serving.resilience.hedgeDelayFactor = 0.5;
    cases.emplace_back("resilience", resil);
    resil.arrivalRatePerSec = 80000.0;
    resil.serving.deadlineMs = 0.3;
    cases.emplace_back("resilience-brownout", resil);

    for (const auto &[name, cfg] : cases) {
        ASSERT_EQ(cfg.serving.numStreams, 2);
        const RunCapture single = runSingleDevice(g, host, cfg);
        const RunCapture lane = runOneLaneEngine(g, host, cfg);
        ASSERT_GT(single.rep.requests, 0u) << name;
        expectSameRun(single, lane, name);
        if (name == "shed") {
            EXPECT_GT(single.rep.requestsShed, 0u);
        }
        if (name == "resilience") {
            EXPECT_GT(single.rep.requestsTimedOut, 0u);
            EXPECT_GT(single.rep.requestsHedged, 0u);
        }
        if (name == "resilience-brownout") {
            EXPECT_GT(single.rep.requestsTimedOut, 0u);
            EXPECT_GT(single.rep.brownoutTicks, 0u);
        }
    }
}

// ------------------------------------------------------ overload handling

/**
 * Brownout ticks of a two-tenant run: "hot" offers 96 RGCN requests at
 * 200k req/s against a queue bound of 4, while "cold" idles under
 * @p cold_bound.
 */
std::size_t
brownoutTicksBesideIdleBound(std::size_t cold_bound)
{
    const graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 72);
    sim::Runtime rt;
    serve::Engine engine(g, serve::EngineConfig{}, rt);
    serve::OnlineConfig cfg = onlineConfig();
    cfg.serving.shed = serve::ShedMode::RejectNewest;
    cfg.serving.resilience.enabled = true;
    for (const auto &[name, bound] :
         {std::pair<const char *, std::size_t>{"hot", 4},
          std::pair<const char *, std::size_t>{"cold", cold_bound}}) {
        serve::ServingConfig scfg = cfg.serving;
        scfg.maxQueueDepth = bound;
        engine.registerVariant(name, host, models::kRgcnSource, scfg);
    }
    serve::VariantLoad hot;
    hot.variant = "hot";
    hot.ratePerSec = 200000.0;
    hot.numRequests = 96;
    serve::VariantLoad cold;
    cold.variant = "cold";
    cold.numRequests = 0;
    cfg.variants = {hot, cold};
    serve::OnlineServer server(engine, cfg);
    const serve::OnlineReport rep = server.run();
    EXPECT_GT(rep.perVariant.at(0).requestsShed, 0u)
        << "the hot tenant must overload its queue";
    return rep.brownoutTicks;
}

TEST(OnlineServer, BrownoutJudgesEachTenantAgainstItsOwnQueueBound)
{
    const std::size_t tight = brownoutTicksBesideIdleBound(4);
    const std::size_t loose = brownoutTicksBesideIdleBound(64);
    EXPECT_GT(tight, 0u);
    EXPECT_EQ(tight, loose)
        << "an idle tenant's queue bound must not mask another "
           "tenant's overload";
}

TEST(OnlineServer, FixedFillOnAGroupStopsWaitingAtTheAdmissionBound)
{
    // Admission bounds the group's whole backlog at 8, below 4 devices
    // x fixedBatch 8: no device lane can fill, so "fixed" must serve
    // what admission lets in rather than hold it until arrivals end.
    const graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 73);
    auto run = [&](const char *policy) {
        serve::OnlineConfig cfg = onlineConfig(64, 100000.0);
        cfg.policy = policy;
        cfg.serving.deadlineMs = 0.6;
        cfg.serving.maxQueueDepth = 8;
        cfg.serving.shed = serve::ShedMode::RejectNewest;
        sim::DeviceGroup group(4);
        serve::OnlineServer server(g, host, models::kRgatSource, cfg, group);
        return server.run();
    };
    const serve::OnlineReport adaptive = run("adaptive");
    const serve::OnlineReport fixed = run("fixed");
    ASSERT_EQ(adaptive.admittedSloAttainment, 1.0);
    EXPECT_GT(fixed.requests, 8u);
    EXPECT_EQ(fixed.admittedSloAttainment, adaptive.admittedSloAttainment)
        << "served " << fixed.requests << ", shed "
        << fixed.requestsShed;
}

// ----------------------------------------------------------- deadline test

TEST(MetDeadline, JudgesInMillisecondsAtTheBoundary)
{
    // 1.3 * 1e-3 rounds to 0.0013000000000000002 s, whose millisecond
    // value 1.3000000000000003 exceeds 1.3: the millisecond form says
    // missed, while the seconds form (lat <= 1.3 * 1e-3) says met.
    const double lat_sec = 1.3 * 1e-3;
    ASSERT_TRUE(lat_sec <= 1.3 * 1e-3);
    ASSERT_FALSE(lat_sec * 1e3 <= 1.3);
    EXPECT_FALSE(serve::metDeadline(lat_sec, 1.3));
    EXPECT_TRUE(serve::metDeadline(std::nextafter(lat_sec, 0.0), 1.3));
    EXPECT_TRUE(serve::metDeadline(lat_sec, 0.0)) << "0 = no deadline";
}

TEST(MetDeadline, OverallAndPerVariantAttainmentAgreeAtEveryBoundary)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 71);

    // A one-lane engine run under wait-to-fill: the deadline changes
    // no scheduling decision, so the timeline is the same for every
    // deadline and each observed latency can be put exactly on it.
    // With the deadline on a latency or one ulp below it, the seconds
    // and millisecond forms of the test disagree for three of these.
    serve::OnlineConfig cfg = onlineConfig(48, 10000.0);
    cfg.policy = "fixed";
    const std::vector<double> lat =
        runOneLaneEngine(g, host, cfg).latenciesMs;
    ASSERT_EQ(lat.size(), cfg.numRequests);

    for (double l : lat)
        for (double deadline_ms : {l, std::nextafter(l, 0.0)}) {
            serve::OnlineConfig dcfg = cfg;
            dcfg.serving.deadlineMs = deadline_ms;
            const RunCapture run = runOneLaneEngine(g, host, dcfg);
            ASSERT_EQ(run.latenciesMs, lat);
            ASSERT_EQ(run.rep.perVariant.size(), 1u);
            EXPECT_EQ(run.rep.sloAttainment,
                      run.rep.perVariant[0].sloAttainment)
                << "deadline " << deadline_ms << " ms";
        }
}

} // namespace
