/**
 * @file
 * Tests for overload scheduling (serve/scheduler_policy.* + the
 * admission-control path of serve/online.*): new ServingConfig fields
 * are validated with diagnostics naming the offending field, the MMPP
 * load mode is seeded and bit-stable (and degenerates to the legacy
 * Poisson stream when disabled), the bounded-queue AdaptiveBatcher
 * keeps its deadline cap at saturation, admission control bounds the
 * per-lane queue and sheds deterministically, the WFQ policy honors
 * priority tiers and tenant weights, an injected policy factory wins
 * over the policy name, and the whole overload
 * path (shed decisions, per-tenant reports, MMPP arrivals) is
 * byte-identical across reruns and 1/2/4 host threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "obs/flight_recorder.hh"
#include "serve/online.hh"
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

/** Overloaded single-lane config: offered rate far above capacity,
 *  tight deadline, bounded queue. */
serve::OnlineConfig
overloadConfig(std::size_t requests = 96)
{
    serve::OnlineConfig cfg;
    cfg.serving.maxBatch = 8;
    cfg.serving.numStreams = 2;
    cfg.serving.din = 8;
    cfg.serving.dout = 8;
    cfg.serving.sample.numSeeds = 16;
    cfg.serving.sample.fanout = 4;
    cfg.serving.seed = 777;
    cfg.serving.deadlineMs = 2.0;
    cfg.numRequests = requests;
    cfg.arrivalRatePerSec = 200000.0;
    return cfg;
}

serve::OnlineReport
runServer(const graph::HeteroGraph &g, const Tensor &features,
          serve::OnlineConfig cfg,
          std::vector<double> *latencies_ms = nullptr)
{
    sim::Runtime rt;
    serve::OnlineServer server(g, features, models::kRgcnSource, cfg, rt);
    const serve::OnlineReport rep = server.run();
    if (latencies_ms)
        *latencies_ms = server.latenciesMs();
    return rep;
}

// ---------------------------------------------------------- validation

TEST(OverloadConfigValidation, NamesTheOffendingField)
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
    EXPECT_NO_THROW(serve::validateServingConfig(base, "test"));

    // Shedding enabled with nothing to bound is a contradiction.
    serve::ServingConfig bad = base;
    bad.shed = serve::ShedMode::RejectNewest;
    bad.maxQueueDepth = 0;
    expectThrowNaming(bad, "maxQueueDepth");
    bad.maxQueueDepth = 4;
    EXPECT_NO_THROW(serve::validateServingConfig(bad, "test"));

    bad = base;
    bad.tenantWeight = 0.0;
    expectThrowNaming(bad, "tenantWeight");
    bad.tenantWeight = -2.0;
    expectThrowNaming(bad, "tenantWeight");
    bad.tenantWeight = std::nan("");
    expectThrowNaming(bad, "tenantWeight");

    bad = base;
    bad.tenantTier = -1;
    expectThrowNaming(bad, "tenantTier");

    bad = base;
    bad.mmpp.enabled = true;
    bad.mmpp.burstRateMultiplier = 0.0;
    expectThrowNaming(bad, "burstRateMultiplier");

    bad = base;
    bad.mmpp.enabled = true;
    bad.mmpp.pEnterBurst = 1.5;
    expectThrowNaming(bad, "pEnterBurst");

    bad = base;
    bad.mmpp.enabled = true;
    bad.mmpp.pExitBurst = -0.1;
    expectThrowNaming(bad, "pExitBurst");

    // Disabled MMPP is inert: degenerate values are never read.
    bad = base;
    bad.mmpp.enabled = false;
    bad.mmpp.burstRateMultiplier = -1.0;
    bad.mmpp.pEnterBurst = 7.0;
    EXPECT_NO_THROW(serve::validateServingConfig(bad, "test"));
}

// ----------------------------------------------------------------- MMPP

TEST(LoadGeneratorMmpp, DisabledMatchesLegacyPoissonExactly)
{
    const auto legacy = serve::LoadGenerator::arrivals(2000.0, 256, 42);
    const auto off =
        serve::LoadGenerator::arrivals(2000.0, 256, 42, serve::MmppSpec{});
    EXPECT_EQ(legacy, off)
        << "a disabled MmppSpec must not perturb the arrival stream";
}

TEST(LoadGeneratorMmpp, DeterministicAndDistinctFromPoisson)
{
    serve::MmppSpec mmpp;
    mmpp.enabled = true;
    mmpp.burstRateMultiplier = 8.0;
    mmpp.pEnterBurst = 0.1;
    mmpp.pExitBurst = 0.2;
    const auto a = serve::LoadGenerator::arrivals(2000.0, 512, 42, mmpp);
    const auto b = serve::LoadGenerator::arrivals(2000.0, 512, 42, mmpp);
    const auto plain = serve::LoadGenerator::arrivals(2000.0, 512, 42);
    ASSERT_EQ(a.size(), 512u);
    EXPECT_EQ(a, b) << "same seed must give the identical sequence";
    EXPECT_NE(a, plain) << "bursts must modulate the stream";
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]) << "arrivals must strictly increase";
}

TEST(LoadGeneratorMmpp, ByteIdenticalAcrossThreadCountsAndReruns)
{
    serve::MmppSpec mmpp;
    mmpp.enabled = true;
    const auto ref = serve::LoadGenerator::arrivals(5000.0, 256, 7, mmpp);
    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        const auto got =
            serve::LoadGenerator::arrivals(5000.0, 256, 7, mmpp);
        EXPECT_EQ(ref, got) << "threads=" << threads;
    }
    util::setGlobalThreads(0);
}

TEST(LoadGeneratorMmpp, BurstsRaiseTheMeanArrivalRate)
{
    serve::MmppSpec mmpp;
    mmpp.enabled = true;
    mmpp.burstRateMultiplier = 8.0;
    mmpp.pEnterBurst = 0.1;
    mmpp.pExitBurst = 0.1;
    const auto bursty =
        serve::LoadGenerator::arrivals(1000.0, 4096, 9, mmpp);
    const auto plain = serve::LoadGenerator::arrivals(1000.0, 4096, 9);
    // Time spent in the burst state compresses gaps, so the same
    // number of arrivals lands in a strictly shorter window.
    EXPECT_LT(bursty.back(), plain.back());
}

// -------------------------------------------- bounded AdaptiveBatcher

TEST(AdaptiveBatcherBounded, KeepsDeadlineCapActiveAtSaturation)
{
    // Unbounded twin of this batcher short-circuits to maxBatch at
    // queue_depth >= maxBatch ("deadlines blown either way"); with a
    // bounded queue that premise is false — queueing delay is finite
    // and admitted requests are still servable within SLO — so the
    // deadline-budget cap must survive saturation.
    serve::AdaptiveBatcher unbounded(8, 1e-3, 0.25, 0.5, false);
    serve::AdaptiveBatcher bounded(8, 1e-3, 0.25, 0.5, true);
    EXPECT_FALSE(unbounded.boundedQueue());
    EXPECT_TRUE(bounded.boundedQueue());

    // 0.1 ms overhead + 0.2 ms/request: the 0.5 ms budget fits 2.
    const serve::BatchCost cost{2, 1e-4, 4e-4};
    unbounded.observe(cost);
    bounded.observe(cost);
    EXPECT_EQ(unbounded.pick(1000), 8u);
    EXPECT_EQ(bounded.pick(1000), 2u)
        << "bounded queue: the deadline cap must rule at saturation";
    // Below saturation the two agree.
    EXPECT_EQ(unbounded.pick(5), bounded.pick(5));
    EXPECT_EQ(bounded.pick(1), 1u);
}

// ---------------------------------------------------- admission control

TEST(AdmissionControl, BoundsTheQueueAndShedsDeterministically)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig cfg = overloadConfig();
    cfg.serving.maxQueueDepth = 4;
    cfg.serving.shed = serve::ShedMode::RejectNewest;

    std::vector<double> lat_a;
    const serve::OnlineReport a = runServer(g, features, cfg, &lat_a);

    EXPECT_GT(a.requestsShed, 0u) << "4x+ overload must shed";
    EXPECT_LT(a.requestsShed, cfg.numRequests) << "but not everything";
    EXPECT_EQ(a.requests + a.requestsShed, cfg.numRequests)
        << "every arrival is either served or shed";
    EXPECT_LE(a.peakLaneQueueDepth, cfg.serving.maxQueueDepth)
        << "admission control must enforce the configured bound";
    EXPECT_DOUBLE_EQ(a.shedFraction,
                     static_cast<double>(a.requestsShed) /
                         static_cast<double>(cfg.numRequests));
    // Overall attainment counts shed arrivals as misses, so it can
    // never exceed the admitted-only attainment.
    EXPECT_LE(a.sloAttainment, a.admittedSloAttainment + 1e-12);

    std::vector<double> lat_b;
    const serve::OnlineReport b = runServer(g, features, cfg, &lat_b);
    EXPECT_EQ(a.requestsShed, b.requestsShed);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(lat_a, lat_b) << "shed decisions must be deterministic";
}

TEST(AdmissionControl, BoundedQueueBoundsAdmittedTailLatency)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig unbounded = overloadConfig();
    unbounded.serving.deadlineMs = 0.2;
    const serve::OnlineReport without =
        runServer(g, features, unbounded);

    serve::OnlineConfig bounded = overloadConfig();
    bounded.serving.deadlineMs = 0.2;
    bounded.serving.maxQueueDepth = 4;
    bounded.serving.shed = serve::ShedMode::RejectNewest;
    const serve::OnlineReport with = runServer(g, features, bounded);

    // The headline fix: under deep overload the unbounded queue grows
    // without bound and p99 grows with it; a bounded queue keeps the
    // admitted tail flat at the price of an explicit shed fraction.
    EXPECT_EQ(without.requestsShed, 0u);
    EXPECT_LT(with.p99LatencyMs, without.p99LatencyMs)
        << "bounded queue must cut the admitted p99 under overload";
    EXPECT_GT(with.admittedSloAttainment, without.sloAttainment);
}

TEST(AdmissionControl, ShedModeNoneIsByteIdenticalToLegacy)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig cfg = overloadConfig();
    std::vector<double> lat;
    const serve::OnlineReport rep = runServer(g, features, cfg, &lat);
    EXPECT_EQ(rep.requestsShed, 0u);
    EXPECT_DOUBLE_EQ(rep.shedFraction, 0.0);
    EXPECT_DOUBLE_EQ(rep.admittedSloAttainment, rep.sloAttainment);
    EXPECT_EQ(rep.requests, cfg.numRequests);
}

TEST(AdmissionControl, DeadlineInfeasibleDropsOnlyDoomedArrivals)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig cfg = overloadConfig();
    cfg.serving.maxQueueDepth = 16;
    cfg.serving.shed = serve::ShedMode::DeadlineInfeasible;
    cfg.serving.deadlineMs = 0.5;

    std::vector<double> lat_a;
    const serve::OnlineReport a = runServer(g, features, cfg, &lat_a);
    EXPECT_GT(a.requestsShed, 0u)
        << "a 0.5 ms deadline under 4x+ overload must drop arrivals";
    EXPECT_EQ(a.requests + a.requestsShed, cfg.numRequests);
    EXPECT_LE(a.peakLaneQueueDepth, cfg.serving.maxQueueDepth);

    std::vector<double> lat_b;
    const serve::OnlineReport b = runServer(g, features, cfg, &lat_b);
    EXPECT_EQ(a.requestsShed, b.requestsShed);
    EXPECT_EQ(lat_a, lat_b);
}

TEST(AdmissionControl, ShedEventsLandInTheFlightRecorder)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig cfg = overloadConfig(48);
    cfg.serving.maxQueueDepth = 4;
    cfg.serving.shed = serve::ShedMode::RejectNewest;

    sim::Runtime rt;
    serve::OnlineServer server(g, features, models::kRgcnSource, cfg, rt);
    obs::FlightRecorder fr(1024);
    server.setFlightRecorder(&fr);
    const serve::OnlineReport rep = server.run();
    ASSERT_GT(rep.requestsShed, 0u);

    std::size_t shed_events = 0;
    for (std::uint64_t id : fr.requests()) {
        const auto *tl = fr.timeline(id);
        ASSERT_NE(tl, nullptr);
        for (const auto &ev : *tl)
            if (ev.what == "shed") {
                ++shed_events;
                EXPECT_NE(ev.detail.find("reason="), std::string::npos)
                    << "a shed without a reason cannot be audited";
            }
    }
    EXPECT_EQ(shed_events, rep.requestsShed)
        << "every shed arrival must leave a flight-recorder trail";
}

// ------------------------------------------------------------ WFQ policy

TEST(WfqPolicy, SharesServiceByTenantWeight)
{
    serve::PolicySetup setup;
    serve::LaneSpec heavy;
    heavy.name = "interactive";
    heavy.weight = 3.0;
    serve::LaneSpec light;
    light.name = "batch";
    light.weight = 1.0;
    setup.lanes = {heavy, light};
    auto policy = serve::makeSchedulerPolicy("wfq", std::move(setup));

    std::vector<serve::LaneView> views(2);
    views[0].queueDepth = 100;
    views[1].queueDepth = 100;
    std::size_t served[2] = {0, 0};
    for (int i = 0; i < 80; ++i) {
        const int l = policy->pickLane(views);
        ASSERT_TRUE(l == 0 || l == 1);
        ++served[l];
        policy->observe(static_cast<std::size_t>(l),
                        serve::BatchCost{1, 1e-5, 1e-5});
    }
    EXPECT_EQ(served[0], 60u);
    EXPECT_EQ(served[1], 20u)
        << "a 3:1 weight split must serve 3:1 under saturation";
}

TEST(WfqPolicy, LowerTierPreemptsStrictly)
{
    serve::PolicySetup setup;
    serve::LaneSpec background;
    background.name = "background";
    background.tier = 1;
    background.weight = 100.0; // weight must not override tier
    serve::LaneSpec interactive;
    interactive.name = "interactive";
    interactive.tier = 0;
    interactive.weight = 1.0;
    setup.lanes = {background, interactive};
    auto policy = serve::makeSchedulerPolicy("wfq", std::move(setup));

    std::vector<serve::LaneView> views(2);
    views[0].queueDepth = 10;
    views[1].queueDepth = 10;
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(policy->pickLane(views), 1)
            << "tier 0 must be served while it has queued work";
        policy->observe(1, serve::BatchCost{1, 1e-5, 1e-5});
    }
    views[1].queueDepth = 0;
    EXPECT_EQ(policy->pickLane(views), 0)
        << "tier 1 runs only when tier 0 is drained";
    views[0].queueDepth = 0;
    EXPECT_EQ(policy->pickLane(views), -1);
}

// -------------------------------------------------------- policy registry

TEST(PolicyRegistry, BuiltinsRegisteredAndUnknownNamesThrow)
{
    EXPECT_TRUE(serve::schedulerPolicyRegistered("fixed"));
    EXPECT_TRUE(serve::schedulerPolicyRegistered("adaptive"));
    EXPECT_TRUE(serve::schedulerPolicyRegistered("wfq"));
    EXPECT_FALSE(serve::schedulerPolicyRegistered("nope"));

    const auto names = serve::schedulerPolicyNames();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_GE(names.size(), 3u);

    try {
        serve::makeSchedulerPolicy("nope", serve::PolicySetup{});
        FAIL() << "unknown policy name must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
    }

    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);
    serve::OnlineConfig cfg = overloadConfig(8);
    cfg.policy = "bogus";
    sim::Runtime rt;
    EXPECT_THROW(serve::OnlineServer(g, features, models::kRgcnSource,
                                     cfg, rt),
                 std::invalid_argument);
}

TEST(PolicyRegistry, CustomFactoryWinsOverName)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);

    serve::OnlineConfig cfg = overloadConfig(24);
    cfg.policy = "adaptive";
    cfg.makePolicy = [](const serve::PolicySetup &setup) {
        return serve::makeSchedulerPolicy("fixed", setup);
    };
    const serve::OnlineReport rep = runServer(g, features, cfg);
    EXPECT_EQ(rep.policy, "fixed")
        << "an injected factory must win over the policy name";
}

// --------------------------------------------- empty-run deadline report

TEST(EmptyRunReport, SingleModeReportsConfiguredDeadline)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor features = hostFeatures(g, 8, 3);
    serve::OnlineConfig cfg = overloadConfig(0);
    cfg.serving.deadlineMs = 2.5;
    const serve::OnlineReport rep = runServer(g, features, cfg);
    EXPECT_EQ(rep.requests, 0u);
    EXPECT_DOUBLE_EQ(rep.deadlineMs, 2.5);
}

TEST(EmptyRunReport, MultiTenantModeReportsConfiguredDeadline)
{
    // Historically the multi-tenant loop zeroed rep.deadlineMs, so an
    // empty multi-tenant run reported 0 even with a configured deadline
    // while the single and sharded paths reported the configured one.
    graph::HeteroGraph g = servingGraph();
    sim::Runtime rt;
    serve::Engine engine(g, serve::EngineConfig{}, rt);
    serve::ServingConfig vcfg;
    vcfg.din = 8;
    vcfg.dout = 8;
    vcfg.sample.numSeeds = 16;
    vcfg.sample.fanout = 4;
    engine.registerVariant("v", hostFeatures(g, 8, 1),
                           models::kRgcnSource, vcfg);

    serve::OnlineConfig cfg;
    cfg.serving.deadlineMs = 2.5;
    serve::VariantLoad load;
    load.variant = "v";
    load.numRequests = 0;
    cfg.variants = {load};

    serve::OnlineServer server(engine, cfg);
    const serve::OnlineReport rep = server.run();
    EXPECT_EQ(rep.requests, 0u);
    EXPECT_DOUBLE_EQ(rep.deadlineMs, 2.5)
        << "empty multi-tenant runs must report the configured "
           "deadline like the other two modes";
}

// ------------------------------------- multi-tenant overload determinism

TEST(MultiTenantOverload, WfqShedMmppMatrixIsByteIdentical)
{
    graph::HeteroGraph g = servingGraph();

    auto run = [&](int threads) {
        util::setGlobalThreads(threads);
        sim::Runtime rt;
        serve::EngineConfig ecfg;
        ecfg.numStreams = 2;
        serve::Engine engine(g, ecfg, rt);

        serve::ServingConfig interactive;
        interactive.din = 8;
        interactive.dout = 8;
        interactive.sample.numSeeds = 16;
        interactive.sample.fanout = 4;
        interactive.seed = 101;
        interactive.deadlineMs = 1.0;
        interactive.tenantWeight = 3.0;
        interactive.tenantTier = 0;
        interactive.maxQueueDepth = 6;
        interactive.shed = serve::ShedMode::RejectNewest;
        interactive.mmpp.enabled = true;

        serve::ServingConfig batch = interactive;
        batch.seed = 202;
        batch.deadlineMs = 20.0;
        batch.tenantWeight = 1.0;
        batch.maxQueueDepth = 12;

        engine.registerVariant("interactive", hostFeatures(g, 8, 1),
                               models::kRgcnSource, interactive);
        engine.registerVariant("batch", hostFeatures(g, 8, 2),
                               models::kRgcnSource, batch);

        serve::OnlineConfig cfg;
        cfg.policy = "wfq";
        serve::VariantLoad li;
        li.variant = "interactive";
        li.ratePerSec = 120000.0;
        li.numRequests = 64;
        li.arrivalSeed = 0xa1;
        serve::VariantLoad lb;
        lb.variant = "batch";
        lb.ratePerSec = 40000.0;
        lb.numRequests = 32;
        lb.arrivalSeed = 0xb2;
        cfg.variants = {li, lb};

        serve::OnlineServer server(engine, cfg);
        struct Result
        {
            serve::OnlineReport rep;
            std::vector<double> latencies;
        } r;
        r.rep = server.run();
        r.latencies = server.latenciesMs();
        return r;
    };

    const auto ref = run(1);
    EXPECT_EQ(ref.rep.policy, "wfq");
    EXPECT_GT(ref.rep.requestsShed, 0u)
        << "this load is far over capacity; shedding must engage";
    EXPECT_LE(ref.rep.peakLaneQueueDepth, 12u);
    ASSERT_EQ(ref.rep.perVariant.size(), 2u);

    // Rerun at each host thread count: shed decisions, per-tenant
    // rows and per-request latencies must be byte-identical.
    for (int threads : {1, 2, 4}) {
        const auto got = run(threads);
        EXPECT_EQ(got.latencies, ref.latencies) << "threads=" << threads;
        EXPECT_EQ(got.rep.requestsShed, ref.rep.requestsShed);
        ASSERT_EQ(got.rep.perVariant.size(), ref.rep.perVariant.size());
        for (std::size_t i = 0; i < ref.rep.perVariant.size(); ++i) {
            EXPECT_EQ(got.rep.perVariant[i].requests,
                      ref.rep.perVariant[i].requests);
            EXPECT_EQ(got.rep.perVariant[i].requestsShed,
                      ref.rep.perVariant[i].requestsShed);
            EXPECT_DOUBLE_EQ(got.rep.perVariant[i].p99LatencyMs,
                             ref.rep.perVariant[i].p99LatencyMs);
        }
    }
    util::setGlobalThreads(0);
}

} // namespace
