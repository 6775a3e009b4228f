/**
 * @file
 * Tests for multi-device sharded serving (serve/sharded.hh,
 * sim/device_group.hh): the golden determinism property — a 4-shard
 * ShardedSession's per-request outputs are bit-identical to the
 * single-device ServingSession's for the same seed and request stream,
 * across all three model sources — plus interconnect accounting,
 * multi-device speedup, and the sharded online-serving path.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "serve/online.hh"
#include "serve/session.hh"
#include "serve/sharded.hh"
#include "sim/device_group.hh"

namespace
{

using namespace hector;
using tensor::Tensor;

graph::HeteroGraph
servingGraph(double scale = 1.0 / 16.0)
{
    return graph::generate(graph::datasetSpec("aifb"), scale, 11);
}

Tensor
hostFeatures(const graph::HeteroGraph &g, std::int64_t dim,
             std::uint64_t seed = 21)
{
    std::mt19937_64 rng(seed);
    return Tensor::uniform({g.numNodes(), dim}, rng, 0.5f);
}

serve::ServingConfig
servingConfig(std::int64_t dim = 8)
{
    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.numStreams = 2;
    cfg.din = dim;
    cfg.dout = dim;
    cfg.sample.numSeeds = 8;
    cfg.sample.fanout = 4;
    cfg.seed = 0x60d;
    return cfg;
}

/** Bitwise tensor equality (not allClose: the property is exact). */
void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    ASSERT_EQ(a.numel(), b.numel());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.numel() * sizeof(float)),
              0);
}

// ---------------------------------------------------------- golden identity

class ShardedGolden : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ShardedGolden, FourShardOutputBitIdenticalToSingleDevice)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);
    const char *source = GetParam();
    const std::size_t requests = 10;

    serve::ServingConfig cfg = servingConfig(dim);
    cfg.seed = 0x5ea1;

    // Single-device reference.
    sim::Runtime rt;
    serve::ServingSession single(g, feats, source, cfg, rt);
    std::vector<std::uint64_t> single_ids;
    for (std::size_t i = 0; i < requests; ++i)
        single_ids.push_back(single.submit());
    const serve::ServingReport single_rep = single.drain();
    ASSERT_EQ(single_rep.requests, requests);

    // 4-shard session: same seed => same weights, same sampled
    // request stream; different batching and devices must not change
    // a single bit of any output.
    sim::DeviceGroup group(4);
    serve::ShardedConfig scfg;
    scfg.serving = cfg;
    serve::ShardedSession sharded(g, feats, source, scfg, group);
    std::vector<std::uint64_t> sharded_ids;
    for (std::size_t i = 0; i < requests; ++i)
        sharded_ids.push_back(sharded.submit());
    const serve::ShardedReport rep = sharded.drain();
    ASSERT_EQ(rep.requests, requests);
    EXPECT_EQ(rep.devices, 4);

    ASSERT_EQ(single_ids, sharded_ids);
    for (std::uint64_t id : single_ids) {
        const Tensor *a = single.result(id);
        const Tensor *b = sharded.result(id);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        expectBitIdentical(*a, *b);
    }
}

INSTANTIATE_TEST_SUITE_P(Models, ShardedGolden,
                         ::testing::Values(models::kRgatSource,
                                           models::kRgcnSource,
                                           models::kHgtSource));

// ------------------------------------------------------------- device group

TEST(DeviceGroup, SharedClockAdvancesEveryDevice)
{
    sim::DeviceGroup group(3);
    EXPECT_EQ(group.size(), 3);
    group.advanceTo(0.25);
    for (int d = 0; d < 3; ++d)
        EXPECT_DOUBLE_EQ(group.device(d).nowSec(), 0.25);
    group.advanceTo(0.1); // never backward
    EXPECT_DOUBLE_EQ(group.nowSec(), 0.25);
    EXPECT_THROW(group.device(3), std::runtime_error);
    EXPECT_THROW(sim::DeviceGroup(0), std::runtime_error);
}

TEST(Interconnect, LinksSerializeAndChargeLatencyPlusBytes)
{
    sim::InterconnectSpec spec;
    spec.linkBandwidth = 100.0e9;
    spec.linkLatency = 1.0e-6;
    sim::Interconnect ic(2, spec);

    // 100 KB at 100 GB/s = 1 us, plus 1 us latency.
    const double t1 = ic.transfer(0, 1, 100.0e3, 0.0);
    EXPECT_DOUBLE_EQ(t1, 2.0e-6);
    // Same link: serializes behind the first transfer.
    const double t2 = ic.transfer(0, 1, 100.0e3, 0.0);
    EXPECT_DOUBLE_EQ(t2, 4.0e-6);
    // Opposite direction: independent link, starts immediately.
    const double t3 = ic.transfer(1, 0, 100.0e3, 0.0);
    EXPECT_DOUBLE_EQ(t3, 2.0e-6);
    // Local "transfer" is free and does not occupy any link.
    EXPECT_DOUBLE_EQ(ic.transfer(0, 0, 1.0e9, 0.5), 0.5);

    EXPECT_DOUBLE_EQ(ic.totalBytes(), 300.0e3);
    EXPECT_EQ(ic.transfers(), 3u);
    EXPECT_DOUBLE_EQ(ic.linkBusyUntilSec(0, 1), 4.0e-6);
    EXPECT_THROW(ic.transfer(0, 2, 1.0, 0.0), std::runtime_error);
}

// ------------------------------------------------------- sharded reporting

TEST(ShardedSession, ChargesInterconnectForCutTraffic)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);

    serve::ServingConfig cfg = servingConfig(dim);
    cfg.seed = 0xabc;

    sim::DeviceGroup group(4);
    serve::ShardedConfig scfg;
    scfg.serving = cfg;
    serve::ShardedSession session(g, feats, models::kRgatSource, scfg,
                                  group);
    // Weight replication alone already moves bytes.
    EXPECT_GT(group.interconnect().totalBytes(), 0.0);

    for (int i = 0; i < 12; ++i)
        session.submit();
    const serve::ShardedReport rep = session.drain();

    EXPECT_EQ(rep.requests, 12u);
    EXPECT_EQ(rep.devices, 4);
    EXPECT_EQ(rep.cutEdges, session.partition().cutEdges);
    EXPECT_GT(rep.cutRatio, 0.0);
    // Sampled neighborhoods straddle shards, so halo rows moved; and
    // some device other than 0 served something, so results gathered.
    EXPECT_GT(rep.haloBytes, 0.0);
    EXPECT_GT(rep.gatherBytes, 0.0);
    EXPECT_GT(rep.interconnectMs, 0.0);
    EXPECT_GT(rep.makespanMs, 0.0);
    EXPECT_GT(rep.throughputReqPerSec, 0.0);

    std::size_t routed = 0;
    for (std::size_t n : rep.perDeviceRequests)
        routed += n;
    EXPECT_EQ(routed, 12u);

    // The cycle advanced the shared clock to its completion.
    EXPECT_GE(group.nowMs(), rep.makespanMs);
}

TEST(ShardedSession, SingleDeviceGroupHasNoInterconnectTraffic)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);

    serve::ServingConfig cfg = servingConfig(dim);
    sim::DeviceGroup group(1);
    serve::ShardedConfig scfg;
    scfg.serving = cfg;
    serve::ShardedSession session(g, feats, models::kRgcnSource, scfg,
                                  group);
    for (int i = 0; i < 6; ++i)
        session.submit();
    const serve::ShardedReport rep = session.drain();
    EXPECT_EQ(rep.requests, 6u);
    EXPECT_EQ(rep.cutEdges, 0);
    EXPECT_DOUBLE_EQ(rep.haloBytes, 0.0);
    EXPECT_DOUBLE_EQ(rep.gatherBytes, 0.0);
    EXPECT_DOUBLE_EQ(group.interconnect().totalBytes(), 0.0);
}

TEST(ShardedSession, FourDevicesBeatOneOnModeledMakespan)
{
    const graph::HeteroGraph g = servingGraph(1.0 / 8.0);
    const std::int64_t dim = 16;
    const Tensor feats = hostFeatures(g, dim);

    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.numStreams = 2;
    cfg.din = dim;
    cfg.dout = dim;
    cfg.sample.numSeeds = 16;
    cfg.sample.fanout = 4;
    cfg.seed = 0x77;

    auto run = [&](int devices) {
        sim::DeviceGroup group(devices);
        serve::ShardedConfig scfg;
        scfg.serving = cfg;
        serve::ShardedSession session(g, feats, models::kRgatSource,
                                      scfg, group);
        for (int i = 0; i < 32; ++i)
            session.submit();
        return session.drain();
    };

    const serve::ShardedReport one = run(1);
    const serve::ShardedReport four = run(4);
    EXPECT_EQ(one.requests, four.requests);
    EXPECT_LT(four.makespanMs, one.makespanMs)
        << "4 devices must complete the same cycle faster";
    EXPECT_GT(four.throughputReqPerSec, one.throughputReqPerSec);
}

TEST(ShardedSession, ServeOldestOnDrainsPerDeviceQueues)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);

    serve::ServingConfig cfg = servingConfig(dim);
    sim::DeviceGroup group(2);
    serve::ShardedConfig scfg;
    scfg.serving = cfg;
    serve::ShardedSession session(g, feats, models::kRgcnSource, scfg,
                                  group);

    std::vector<serve::ShardedSession::SubmitInfo> infos;
    for (int i = 0; i < 8; ++i)
        infos.push_back(session.submitRouted());
    ASSERT_EQ(session.queued(), 8u);

    for (int d = 0; d < 2; ++d) {
        while (session.queuedOn(d) > 0) {
            const std::size_t before = session.queuedOn(d);
            const serve::ShardBatch sb = session.serveOldestOn(d, 3);
            EXPECT_EQ(sb.device, d);
            EXPECT_EQ(sb.cost.requests,
                      std::min<std::size_t>(3, before));
            EXPECT_GT(sb.cost.execSec, 0.0);
            if (d != 0) {
                EXPECT_GT(sb.gatherBytes, 0.0);
            }
        }
    }
    EXPECT_EQ(session.queued(), 0u);
    // Every submitted request has a retained result.
    for (const auto &info : infos)
        EXPECT_NE(session.result(info.id), nullptr);
    // Serving an empty queue is a zeroed no-op.
    const serve::ShardBatch empty = session.serveOldestOn(0, 4);
    EXPECT_EQ(empty.cost.requests, 0u);
    EXPECT_EQ(empty.cost.execSec, 0.0);
}

TEST(ShardedSession, ServeOldestOnRebasesDrainTransferAccounting)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);
    serve::ShardedConfig scfg;
    scfg.serving = servingConfig(dim);
    const std::size_t epoch = 12;

    // Zero-cost interconnect: the construction-time weight broadcast
    // and the epochs' halo/gather traffic then cannot skew the two
    // sessions' second-epoch timelines, which isolates exactly the
    // PCIe transfer bookkeeping the rebase is about.
    sim::InterconnectSpec free_ic;
    free_ic.linkLatency = 0.0;
    free_ic.linkBandwidth = 1e18;

    // Serving a first epoch incrementally (serveOldestOn per device)
    // must take its transfer time out of the next drain cycle: the
    // second epoch's drain reports the identical timeline whether the
    // first epoch was served incrementally or drained. Both sessions
    // consume the same sampling stream and end the first epoch with
    // empty queues, so the second epoch routes identically.
    sim::DeviceGroup group1(4, sim::DeviceSpec{}, free_ic);
    serve::ShardedSession incremental(g, feats, models::kRgcnSource,
                                      scfg, group1);
    for (std::size_t i = 0; i < epoch; ++i)
        incremental.submit();
    for (int d = 0; d < group1.size(); ++d)
        incremental.serveOldestOn(d, incremental.queuedOn(d));
    ASSERT_EQ(incremental.queued(), 0u);
    for (std::size_t i = 0; i < epoch; ++i)
        incremental.submit();
    const serve::ShardedReport rep1 = incremental.drain();

    sim::DeviceGroup group2(4, sim::DeviceSpec{}, free_ic);
    serve::ShardedSession drained(g, feats, models::kRgcnSource, scfg,
                                  group2);
    for (std::size_t i = 0; i < epoch; ++i)
        drained.submit();
    drained.drain();
    for (std::size_t i = 0; i < epoch; ++i)
        drained.submit();
    const serve::ShardedReport rep2 = drained.drain();

    ASSERT_EQ(rep1.requests, epoch);
    ASSERT_EQ(rep2.requests, epoch);
    EXPECT_DOUBLE_EQ(rep1.makespanMs, rep2.makespanMs)
        << "a later drain must not be charged served requests' "
           "transfers";
    EXPECT_DOUBLE_EQ(rep1.meanLatencyMs, rep2.meanLatencyMs);
    EXPECT_DOUBLE_EQ(rep1.meanQueueDelayMs, rep2.meanQueueDelayMs);
    EXPECT_DOUBLE_EQ(rep1.p95LatencyMs, rep2.p95LatencyMs);
}

/** How many of @p id's flight events are named @p what. */
std::size_t
countEvents(const obs::FlightRecorder &fr, std::uint64_t id,
            const char *what)
{
    std::size_t n = 0;
    if (const auto *tl = fr.timeline(id))
        for (const obs::FlightEvent &e : *tl)
            n += e.what == what ? 1 : 0;
    return n;
}

TEST(ShardedSession, DropOldestOnThenDrainMatchesServeOldestOn)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);
    serve::ShardedConfig scfg;
    scfg.serving = servingConfig(dim);
    sim::InterconnectSpec free_ic;
    free_ic.linkLatency = 0.0;
    free_ic.linkBandwidth = 1e18;

    // Serving and dropping each device's oldest request both charge its
    // transfer, so the drain of the rest, and of the requests
    // submitted after, reports the same timeline either way.
    const auto run = [&](bool drop) {
        sim::DeviceGroup group(4, sim::DeviceSpec{}, free_ic);
        serve::ShardedSession s(g, feats, models::kRgcnSource, scfg, group);
        for (int i = 0; i < 12; ++i)
            s.submit();
        for (int d = 0; d < group.size(); ++d) {
            if (s.queuedOn(d) == 0)
                continue;
            if (drop)
                EXPECT_EQ(s.dropOldestOn(d, 1).size(), 1u);
            else
                EXPECT_EQ(s.serveOldestOn(d, 1).cost.requests, 1u);
        }
        for (int i = 0; i < 4; ++i)
            s.submit();
        return s.drain();
    };
    const serve::ShardedReport served = run(false);
    const serve::ShardedReport dropped = run(true);
    ASSERT_GE(served.requests, 12u);
    ASSERT_EQ(served.requests, dropped.requests);
    EXPECT_DOUBLE_EQ(served.makespanMs, dropped.makespanMs);
    EXPECT_DOUBLE_EQ(served.meanLatencyMs, dropped.meanLatencyMs);
    EXPECT_DOUBLE_EQ(served.meanQueueDelayMs, dropped.meanQueueDelayMs);
    EXPECT_DOUBLE_EQ(served.p95LatencyMs, dropped.p95LatencyMs);
    EXPECT_DOUBLE_EQ(served.maxLatencyMs, dropped.maxLatencyMs);
}

TEST(ShardedSession, HedgeOldestOnLeavesQueuesAndResultsUnchanged)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);
    serve::ShardedConfig scfg;
    scfg.serving = servingConfig(dim);
    sim::DeviceGroup group(2);
    serve::ShardedSession s(g, feats, models::kRgcnSource, scfg, group);
    for (int i = 0; i < 8; ++i)
        s.submit();
    const int from = s.queuedOn(0) >= 2 ? 0 : 1;
    const int to = 1 - from;
    ASSERT_GE(s.queuedOn(from), 2u);
    const serve::ShardBatch first = s.serveOldestOn(from, 1);
    const std::uint64_t served_id = first.cost.servedIds.at(0);
    const Tensor *served = s.result(served_id);
    ASSERT_NE(served, nullptr);
    const Tensor before = served->clone();
    const std::size_t q_from = s.queuedOn(from);
    const std::size_t q_to = s.queuedOn(to);

    const serve::ShardBatch hedge = s.hedgeOldestOn(from, to);
    EXPECT_EQ(hedge.device, to);
    ASSERT_EQ(hedge.cost.requests, 1u);
    const std::uint64_t head = hedge.cost.servedIds.at(0);
    EXPECT_GT(hedge.cost.execSec, 0.0);
    EXPECT_GT(hedge.cost.overheadSec, 0.0);
    EXPECT_EQ(s.queuedOn(from), q_from);
    EXPECT_EQ(s.queuedOn(to), q_to);
    EXPECT_EQ(s.result(head), nullptr) << "a hedge stores no result";
    ASSERT_EQ(s.result(served_id), served);
    expectBitIdentical(*served, before);
}

TEST(ShardedSession, PlanLookupEventsOnlyOnServedRequests)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);
    serve::ShardedConfig scfg;
    scfg.serving = servingConfig(dim);
    sim::DeviceGroup group(2);
    serve::ShardedSession s(g, feats, models::kRgcnSource, scfg, group);
    obs::FlightRecorder fr;
    s.setFlightRecorder(&fr);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(s.submit());

    // Same rule as the single-device engine: a hedge records no
    // lookup, a served batch one per request it serves.
    const int from = s.queuedOn(0) > 0 ? 0 : 1;
    const serve::ShardBatch hedge = s.hedgeOldestOn(from, 1 - from);
    EXPECT_EQ(countEvents(fr, hedge.cost.servedIds.at(0), "plan-lookup"),
              0u);
    for (int d = 0; d < group.size(); ++d)
        while (s.queuedOn(d) > 0)
            s.serveOldestOn(d, 1);
    for (std::uint64_t id : ids) {
        EXPECT_EQ(countEvents(fr, id, "plan-lookup"), 1u)
            << fr.timelineText(id);
        EXPECT_EQ(countEvents(fr, id, "batch-join"), 1u)
            << fr.timelineText(id);
    }
}

// ----------------------------------------------------------- online sharded

TEST(OnlineSharded, ServesAllArrivalsAndReportsInterconnect)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);

    serve::OnlineConfig cfg;
    cfg.serving = servingConfig(dim);
    cfg.serving.seed = 0x123;
    cfg.serving.deadlineMs = 50.0;
    cfg.arrivalRatePerSec = 3000.0;
    cfg.numRequests = 24;
    cfg.retainResults = true;

    sim::DeviceGroup group(4);
    serve::OnlineServer server(g, feats, models::kRgatSource, cfg,
                               group);
    EXPECT_THROW(server.session(), std::runtime_error);
    const serve::OnlineReport rep = server.run();

    EXPECT_EQ(rep.requests, 24u);
    EXPECT_EQ(rep.devices, 4);
    EXPECT_GT(rep.haloBytes, 0.0);
    EXPECT_GT(rep.interconnectMs, 0.0);
    EXPECT_GT(rep.makespanMs, 0.0);
    EXPECT_GE(rep.sloAttainment, 0.0);
    EXPECT_LE(rep.sloAttainment, 1.0);
    EXPECT_LE(rep.p50LatencyMs, rep.p95LatencyMs);
    EXPECT_LE(rep.p95LatencyMs, rep.p99LatencyMs);
    EXPECT_EQ(server.latenciesMs().size(), 24u);
}

TEST(OnlineSharded, ResultsBitIdenticalToSingleDeviceOnlineRun)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);

    serve::OnlineConfig cfg;
    cfg.serving = servingConfig(dim);
    cfg.serving.seed = 0x321;
    cfg.arrivalRatePerSec = 2000.0;
    cfg.numRequests = 16;
    cfg.retainResults = true;

    sim::Runtime rt;
    serve::OnlineServer single(g, feats, models::kHgtSource, cfg, rt);
    single.run();

    sim::DeviceGroup group(4);
    serve::OnlineServer shard(g, feats, models::kHgtSource, cfg, group);
    shard.run();

    // Same session seed => same sampled request stream with the same
    // ids; batching and placement differ, outputs must not.
    for (std::uint64_t id = 1; id <= 16; ++id) {
        const Tensor *a = single.session().result(id);
        const Tensor *b = shard.sharded().result(id);
        ASSERT_NE(a, nullptr) << "id " << id;
        ASSERT_NE(b, nullptr) << "id " << id;
        ASSERT_EQ(a->shape(), b->shape());
        EXPECT_EQ(std::memcmp(a->data(), b->data(),
                              a->numel() * sizeof(float)),
                  0)
            << "id " << id;
    }
}

TEST(OnlineSharded, WaitToFillPolicyRunsToCompletion)
{
    const graph::HeteroGraph g = servingGraph();
    const std::int64_t dim = 8;
    const Tensor feats = hostFeatures(g, dim);

    serve::OnlineConfig cfg;
    cfg.serving = servingConfig(dim);
    cfg.policy = "fixed";
    cfg.fixedBatch = 3;
    cfg.arrivalRatePerSec = 4000.0;
    cfg.numRequests = 20;

    sim::DeviceGroup group(2);
    serve::OnlineServer server(g, feats, models::kRgcnSource, cfg,
                               group);
    const serve::OnlineReport rep = server.run();
    EXPECT_EQ(rep.requests, 20u);
    EXPECT_GT(rep.ticks, 0u);
    // Wait-to-fill holds queues, so batches average near the fill.
    EXPECT_GE(rep.meanBatchSize, 1.0);
}

} // namespace
