/**
 * @file
 * Tests for the multi-tenant serving engine (serve::Engine): config
 * validation at construction, the mixed-variant determinism matrix
 * (two variants through one engine, drain and online paths, 1/2/4
 * threads, bit-identical to dedicated seed-mode sessions), the bounded
 * PlanCache's LRU eviction policy (budget bounds resident bytes,
 * recompiles counted separately from misses, hot single-variant
 * workloads never evict, in-flight plans are pinned), and autotuned
 * GEMM schedules (observable schedule keys, zero output divergence).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/frontend.hh"
#include "core/jit.hh"
#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "serve/engine.hh"
#include "serve/online.hh"
#include "serve/session.hh"
#include "serve/sharded.hh"
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

/** The two tenants of the mixed-variant matrix. */
struct VariantDef
{
    const char *name;
    const char *source;
    std::int64_t din;
    std::int64_t dout;
    std::uint64_t seed;
    std::uint64_t featureSeed;
};

const VariantDef kRgat32{"rgat32", models::kRgatSource, 32, 32, 111, 7};
const VariantDef kRgcn64{"rgcn64", models::kRgcnSource, 64, 16, 222, 8};

serve::ServingConfig
configFor(const VariantDef &v)
{
    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.din = v.din;
    cfg.dout = v.dout;
    cfg.sample.numSeeds = 12;
    cfg.sample.fanout = 4;
    cfg.seed = v.seed;
    return cfg;
}

/** Outputs of @p n requests served through a dedicated single-variant
 *  session, in submission order. */
std::vector<std::vector<float>>
dedicatedOutputs(const graph::HeteroGraph &g, const VariantDef &v,
                 std::size_t n)
{
    sim::Runtime rt;
    serve::ServingSession session(g, hostFeatures(g, v.din, v.featureSeed),
                                  v.source, configFor(v), rt);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < n; ++i)
        ids.push_back(session.submit());
    session.drain();
    std::vector<std::vector<float>> outs;
    for (std::uint64_t id : ids) {
        const Tensor *o = session.result(id);
        EXPECT_NE(o, nullptr);
        outs.emplace_back(o->data(), o->data() + o->numel());
    }
    return outs;
}

void
expectBitIdentical(const std::vector<std::vector<float>> &want,
                   const std::vector<std::vector<float>> &got,
                   const std::string &what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i].size(), got[i].size()) << what << " req " << i;
        EXPECT_EQ(std::memcmp(want[i].data(), got[i].data(),
                              want[i].size() * sizeof(float)),
                  0)
            << what << ": request " << i << " diverges";
    }
}

class EngineDeterminism : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        util::setSeedKernelMode(false);
        util::setGlobalThreads(0);
    }
};

// ---------------------------------------------------------- validation

TEST(ServingConfigValidation, NamesTheOffendingField)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 3);

    auto expectThrowNaming = [&](serve::ServingConfig cfg,
                                 const char *field) {
        try {
            sim::Runtime rt;
            serve::ServingSession session(g, host, models::kRgcnSource,
                                          cfg, rt);
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

    serve::ServingConfig bad = base;
    bad.maxBatch = 0;
    expectThrowNaming(bad, "maxBatch");

    bad = base;
    bad.numStreams = 0;
    expectThrowNaming(bad, "numStreams");

    bad = base;
    bad.deadlineMs = -1.0;
    expectThrowNaming(bad, "deadlineMs");

    bad = base;
    bad.din = 0;
    expectThrowNaming(bad, "din");

    bad = base;
    bad.dout = -4;
    expectThrowNaming(bad, "dout");
}

TEST(ServingConfigValidation, EngineRegistryValidatesToo)
{
    graph::HeteroGraph g = servingGraph();
    sim::Runtime rt;
    serve::Engine engine(g, serve::EngineConfig{}, rt);

    serve::ServingConfig cfg;
    cfg.din = 8;
    cfg.dout = 8;
    cfg.maxBatch = 0;
    EXPECT_THROW(engine.registerVariant("v", hostFeatures(g, 8, 1),
                                        models::kRgcnSource, cfg),
                 std::invalid_argument);

    cfg.maxBatch = 4;
    engine.registerVariant("v", hostFeatures(g, 8, 1),
                           models::kRgcnSource, cfg);
    // Duplicate names and feature/din mismatches fail loudly as well.
    EXPECT_THROW(engine.registerVariant("v", hostFeatures(g, 8, 1),
                                        models::kRgcnSource, cfg),
                 std::invalid_argument);
    EXPECT_THROW(engine.registerVariant("w", hostFeatures(g, 16, 1),
                                        models::kRgcnSource, cfg),
                 std::invalid_argument);
}

TEST(MicroBatchVariants, CoalesceRefusesMixedVariants)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 5);
    sim::Runtime rt;
    std::mt19937_64 rng(42);
    graph::SampleSpec spec;
    spec.numSeeds = 8;
    spec.fanout = 4;
    graph::Minibatch mb1 = graph::sampleNeighbors(g, spec, rng);
    Tensor f1 = graph::transferFeatures(mb1, host, rt);
    graph::Minibatch mb2 = graph::sampleNeighbors(g, spec, rng);
    Tensor f2 = graph::transferFeatures(mb2, host, rt);
    serve::Request a(1, std::move(mb1), std::move(f1), 0);
    serve::Request b(2, std::move(mb2), std::move(f2), 1);
    EXPECT_THROW(serve::coalesce({&a, &b}, rt), std::runtime_error);
}

// ------------------------------------------- mixed-variant determinism

TEST_F(EngineDeterminism, MixedVariantDrainMatrixMatchesDedicated)
{
    graph::HeteroGraph g = servingGraph();
    const std::size_t per_variant = 6;

    // Oracle: each variant served alone through a dedicated session
    // with the seed's sequential scalar kernels.
    util::setSeedKernelMode(true);
    util::setGlobalThreads(1);
    const auto want_rgat = dedicatedOutputs(g, kRgat32, per_variant);
    const auto want_rgcn = dedicatedOutputs(g, kRgcn64, per_variant);
    util::setSeedKernelMode(false);

    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        sim::Runtime rt;
        serve::EngineConfig ecfg;
        ecfg.numStreams = 2;
        serve::Engine engine(g, ecfg, rt);
        const int va = engine.registerVariant(
            kRgat32.name, hostFeatures(g, kRgat32.din, kRgat32.featureSeed),
            kRgat32.source, configFor(kRgat32));
        const int vb = engine.registerVariant(
            kRgcn64.name, hostFeatures(g, kRgcn64.din, kRgcn64.featureSeed),
            kRgcn64.source, configFor(kRgcn64));

        // Interleaved submission: the engine batches per variant, the
        // union batches must never mix tenants.
        std::vector<std::uint64_t> ids_a;
        std::vector<std::uint64_t> ids_b;
        for (std::size_t i = 0; i < per_variant; ++i) {
            ids_a.push_back(engine.submit(va));
            ids_b.push_back(engine.submit(vb));
        }
        const serve::ServingReport rep = engine.drain();
        EXPECT_EQ(rep.requests, 2 * per_variant);
        EXPECT_EQ(rep.cacheMisses, 2u) << "one compile per variant";
        ASSERT_EQ(rep.perVariant.size(), 2u);

        auto collect = [&](const std::vector<std::uint64_t> &ids) {
            std::vector<std::vector<float>> outs;
            for (std::uint64_t id : ids) {
                const Tensor *o = engine.result(id);
                EXPECT_NE(o, nullptr);
                outs.emplace_back(o->data(), o->data() + o->numel());
            }
            return outs;
        };
        expectBitIdentical(want_rgat, collect(ids_a),
                           "rgat32 t" + std::to_string(threads));
        expectBitIdentical(want_rgcn, collect(ids_b),
                           "rgcn64 t" + std::to_string(threads));
    }
}

TEST_F(EngineDeterminism, MixedVariantOnlineMatchesDedicated)
{
    graph::HeteroGraph g = servingGraph();
    const std::size_t per_variant = 6;

    util::setSeedKernelMode(true);
    util::setGlobalThreads(1);
    const auto want_rgat = dedicatedOutputs(g, kRgat32, per_variant);
    const auto want_rgcn = dedicatedOutputs(g, kRgcn64, per_variant);
    util::setSeedKernelMode(false);

    for (int threads : {1, 2, 4}) {
        util::setGlobalThreads(threads);
        sim::Runtime rt;
        serve::EngineConfig ecfg;
        ecfg.numStreams = 2;
        serve::Engine engine(g, ecfg, rt);
        serve::ServingConfig ca = configFor(kRgat32);
        ca.deadlineMs = 5.0; // exercise deadline-aware interleaving
        engine.registerVariant(
            kRgat32.name, hostFeatures(g, kRgat32.din, kRgat32.featureSeed),
            kRgat32.source, ca);
        engine.registerVariant(
            kRgcn64.name, hostFeatures(g, kRgcn64.din, kRgcn64.featureSeed),
            kRgcn64.source, configFor(kRgcn64));

        serve::OnlineConfig ocfg;
        ocfg.retainResults = true;
        ocfg.variants = {{kRgat32.name, 3000.0, per_variant, 0xaa},
                         {kRgcn64.name, 2000.0, per_variant, 0xbb}};
        serve::OnlineServer server(engine, ocfg);
        const serve::OnlineReport rep = server.run();
        EXPECT_EQ(rep.requests, 2 * per_variant);
        EXPECT_EQ(rep.perVariant.size(), 2u);

        // Recover each tenant's outputs by ascending request id; the
        // two variants are distinguishable by their output width.
        std::vector<std::vector<float>> got_a;
        std::vector<std::vector<float>> got_b;
        for (std::uint64_t id = 1; id <= 2 * per_variant; ++id) {
            const Tensor *o = engine.result(id);
            ASSERT_NE(o, nullptr) << "request " << id << " never served";
            std::vector<float> v(o->data(), o->data() + o->numel());
            if (o->dim(1) == kRgat32.dout)
                got_a.push_back(std::move(v));
            else
                got_b.push_back(std::move(v));
        }
        expectBitIdentical(want_rgat, got_a,
                           "online rgat32 t" + std::to_string(threads));
        expectBitIdentical(want_rgcn, got_b,
                           "online rgcn64 t" + std::to_string(threads));
    }
}

// ---------------------------------------------------- zero-copy paths

/** Index (copy) kernels @p rt launched, in either phase. */
std::uint64_t
indexLaunches(const sim::Runtime &rt)
{
    return rt.counters()
               .bucket(sim::KernelCategory::Index, sim::Phase::Forward)
               .launches +
           rt.counters()
               .bucket(sim::KernelCategory::Index, sim::Phase::Backward)
               .launches;
}

/**
 * Every serving path assembles its micro-batches with coalesce() and
 * executeBatch(), whose kernels read request features and write
 * request results in place: an Engine drain, an OnlineServer run and a
 * ShardedSession drain launch no Index kernel on any kernel tier, and
 * serve the same bits as the seed interpreter on one thread.
 */
class ZeroCopyServing : public testing::TestWithParam<const char *>
{
  protected:
    void
    TearDown() override
    {
        util::setSeedKernelMode(false);
        util::setGlobalThreads(0);
        core::jit::setJitMode(core::jit::JitMode::Auto);
    }
};

TEST_P(ZeroCopyServing, NoPathLaunchesACopyKernel)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 41);
    for (std::size_t n : {1, 3, 8}) {
        serve::ServingConfig cfg;
        cfg.maxBatch = n;
        cfg.din = 8;
        cfg.dout = 8;
        cfg.sample.numSeeds = 12;
        cfg.sample.fanout = 4;
        cfg.seed = 0x2c0 + n;
        cfg.compile.compactMaterialization = true;
        cfg.compile.linearReorder = true;

        // Requests 1..n of one seeded stream: the outputs of a path.
        auto collect = [&](auto &&resultOf) {
            std::vector<std::vector<float>> outs;
            for (std::uint64_t id = 1; id <= n; ++id) {
                const Tensor *o = resultOf(id);
                EXPECT_NE(o, nullptr) << "request " << id;
                if (o)
                    outs.emplace_back(o->data(), o->data() + o->numel());
            }
            return outs;
        };
        std::vector<std::vector<float>> want;
        for (int threads : {1, 2, 4})
            for (bool seed : {true, false})
                for (bool jit : {false, true}) {
                    const std::string what =
                        "batch " + std::to_string(n) + ", " +
                        std::to_string(threads) + " threads, " +
                        (seed ? "seed" : "fast") +
                        (jit ? ", JIT" : ", no JIT");
                    util::setGlobalThreads(threads);
                    util::setSeedKernelMode(seed);
                    core::jit::setJitMode(jit ? core::jit::JitMode::On
                                              : core::jit::JitMode::Off);

                    sim::Runtime rt_engine;
                    serve::Engine engine(g, serve::EngineConfig{},
                                         rt_engine);
                    const int v =
                        engine.registerVariant("v", host, GetParam(), cfg);
                    for (std::size_t i = 0; i < n; ++i)
                        engine.submit(v);
                    EXPECT_EQ(engine.drain().requests, n) << what;
                    EXPECT_EQ(indexLaunches(rt_engine), 0u) << what;
                    const auto got_engine = collect(
                        [&](std::uint64_t id) { return engine.result(id); });
                    if (want.empty())
                        want = got_engine;
                    expectBitIdentical(want, got_engine, "drain " + what);

                    sim::Runtime rt_online;
                    serve::OnlineConfig ocfg;
                    ocfg.serving = cfg;
                    ocfg.numRequests = n;
                    ocfg.retainResults = true;
                    serve::OnlineServer server(g, host, GetParam(), ocfg,
                                               rt_online);
                    EXPECT_EQ(server.run().requests, n) << what;
                    EXPECT_EQ(indexLaunches(rt_online), 0u) << what;
                    expectBitIdentical(
                        want, collect([&](std::uint64_t id) {
                            return server.session().result(id);
                        }),
                        "online " + what);

                    sim::DeviceGroup group(2);
                    serve::ShardedConfig scfg;
                    scfg.serving = cfg;
                    serve::ShardedSession sharded(g, host, GetParam(), scfg,
                                                  group);
                    for (std::size_t i = 0; i < n; ++i)
                        sharded.submit();
                    EXPECT_EQ(sharded.drain().requests, n) << what;
                    for (int d = 0; d < group.size(); ++d)
                        EXPECT_EQ(indexLaunches(group.device(d)), 0u)
                            << what << ", device " << d;
                    expectBitIdentical(
                        want, collect([&](std::uint64_t id) {
                            return sharded.result(id);
                        }),
                        "sharded " + what);
                }
    }
}

INSTANTIATE_TEST_SUITE_P(Models, ZeroCopyServing,
                         testing::Values(models::kRgcnSource,
                                         models::kRgatSource,
                                         models::kHgtSource));

// --------------------------------------------------- bounded PlanCache

TEST(PlanCacheBudget, LruEvictsAndCountsRecompilesSeparately)
{
    graph::HeteroGraph g = servingGraph();
    serve::PlanCache cache;
    core::CompileOptions opts;
    const serve::PlanKey ka =
        serve::makePlanKey(models::kRgcnSource, 8, 8, opts, g);
    const serve::PlanKey kb =
        serve::makePlanKey(models::kRgatSource, 8, 8, opts, g);
    const serve::PlanKey kc =
        serve::makePlanKey(models::kHgtSource, 8, 8, opts, g);

    cache.get(ka);
    cache.get(kb);
    const std::size_t cost_a = cache.costOf(ka);
    const std::size_t cost_b = cache.costOf(kb);
    ASSERT_GT(cost_a, 0u);
    ASSERT_GT(cost_b, 0u);
    EXPECT_EQ(cache.stats().residentBytes, cost_a + cost_b);

    // Budget for exactly two of the three plans: inserting C must
    // evict the least recently used (A).
    cache.get(kc);
    const std::size_t cost_c = cache.costOf(kc);
    cache.setBudgetBytes(cost_b + cost_c + cost_a / 2);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.costOf(ka), 0u) << "A was least recently used";
    EXPECT_LE(cache.stats().residentBytes, cache.budgetBytes());

    // Re-getting A is a recompile, not a first-time miss.
    EXPECT_EQ(cache.stats().misses, 3u);
    cache.get(ka);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().recompiles, 1u);
    EXPECT_GE(cache.stats().evictions, 2u)
        << "bringing A back must push another plan out";
    EXPECT_LE(cache.stats().residentBytes, cache.budgetBytes());
}

TEST(PlanCacheBudget, InFlightPlansArePinned)
{
    graph::HeteroGraph g = servingGraph();
    serve::PlanCache cache;
    core::CompileOptions opts;
    const serve::PlanKey ka =
        serve::makePlanKey(models::kRgcnSource, 8, 8, opts, g);
    const serve::PlanKey kb =
        serve::makePlanKey(models::kRgatSource, 8, 8, opts, g);

    auto pinned = cache.get(ka); // held: in flight
    cache.setBudgetBytes(1);     // below any single plan's cost
    EXPECT_NE(cache.costOf(ka), 0u)
        << "a pinned plan must survive even an impossible budget";

    cache.get(kb); // transiently resident, immediately evictable
    EXPECT_NE(cache.costOf(ka), 0u);

    pinned.reset();
    cache.enforceBudget();
    EXPECT_EQ(cache.costOf(ka), 0u)
        << "released plans become evictable";
    EXPECT_EQ(cache.stats().residentBytes, cache.costOf(kb));
}

TEST(PlanCacheBudget, HotSingleVariantWorkloadNeverEvicts)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 71);
    sim::Runtime rt;
    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.din = 8;
    cfg.dout = 8;
    cfg.sample.numSeeds = 8;
    cfg.sample.fanout = 4;
    // A budget that fits the one plan comfortably (8 MiB; the modeled
    // cost of an 8-dim RGCN plan is far below that).
    cfg.planBudgetBytes = 8u << 20;
    serve::ServingSession session(g, host, models::kRgcnSource, cfg, rt);

    for (int cycle = 0; cycle < 10; ++cycle) {
        session.submit();
        session.submit();
        const serve::ServingReport rep = session.drain();
        EXPECT_EQ(rep.cacheEvictions, 0u) << "cycle " << cycle;
        EXPECT_EQ(rep.cacheRecompiles, 0u) << "cycle " << cycle;
        EXPECT_EQ(rep.cacheMisses, 1u) << "cycle " << cycle;
        EXPECT_GT(rep.cacheResidentBytes, 0u);
        EXPECT_LE(rep.cacheResidentBytes, cfg.planBudgetBytes);
    }
    EXPECT_EQ(rt.planEvents().compiles, 1u);
    EXPECT_EQ(rt.planEvents().recompiles, 0u);
    EXPECT_EQ(rt.planEvents().evictions, 0u);
}

TEST_F(EngineDeterminism, BudgetBoundsResidentBytesUnderRotation)
{
    graph::HeteroGraph g = servingGraph();
    const std::size_t per_variant = 4;

    // The cost-discovery drains below consume request #1 of every
    // variant's sample stream, so the oracle covers 1 + per_variant
    // requests and the comparison starts at #2.
    util::setSeedKernelMode(true);
    util::setGlobalThreads(1);
    auto want_all = dedicatedOutputs(g, kRgat32, per_variant + 1);
    util::setSeedKernelMode(false);
    util::setGlobalThreads(2);
    const std::vector<std::vector<float>> want_rgat(
        want_all.begin() + 1, want_all.end());

    const VariantDef hgt32{"hgt32", models::kHgtSource, 32, 32, 333, 9};
    sim::Runtime rt;
    serve::Engine engine(g, serve::EngineConfig{}, rt);
    const int va = engine.registerVariant(
        kRgat32.name, hostFeatures(g, kRgat32.din, kRgat32.featureSeed),
        kRgat32.source, configFor(kRgat32));
    const int vb = engine.registerVariant(
        kRgcn64.name, hostFeatures(g, kRgcn64.din, kRgcn64.featureSeed),
        kRgcn64.source, configFor(kRgcn64));
    const int vc = engine.registerVariant(
        hgt32.name, hostFeatures(g, hgt32.din, hgt32.featureSeed),
        hgt32.source, configFor(hgt32));

    // Compile all three once (unbounded) to learn their modeled costs,
    // then set a budget that fits only the two cheapest.
    std::vector<std::size_t> costs;
    for (int v : {va, vb, vc}) {
        engine.submit(v);
        engine.drain();
        costs.push_back(engine.planCache().costOf(engine.planKey(v)));
    }
    ASSERT_EQ(costs.size(), 3u);
    for (std::size_t c : costs)
        ASSERT_GT(c, 0u);
    std::sort(costs.begin(), costs.end());
    const std::size_t budget = costs[0] + costs[1] + costs[2] / 2;
    engine.planCache().setBudgetBytes(budget);

    const serve::PlanCache::Stats &stats = engine.planCache().stats();
    EXPECT_EQ(stats.misses, 3u);
    const std::uint64_t miss_base = stats.misses;

    // Rotate the three tenants; the cache can never hold all three, so
    // recompiles and evictions must both happen — while every output
    // stays correct and residentBytes stays bounded at every cycle
    // boundary.
    std::vector<std::vector<float>> rgat_outputs;
    for (int round = 0; round < 3; ++round) {
        for (int v : {va, vb, vc}) {
            std::vector<std::uint64_t> ids;
            for (std::size_t i = 0; i < per_variant; ++i)
                ids.push_back(engine.submit(v));
            const serve::ServingReport rep = engine.drain();
            EXPECT_LE(rep.cacheResidentBytes, budget)
                << "round " << round << " variant " << v;
            if (v == va && round == 0)
                for (std::uint64_t id : ids) {
                    const Tensor *o = engine.result(id);
                    ASSERT_NE(o, nullptr);
                    rgat_outputs.emplace_back(o->data(),
                                              o->data() + o->numel());
                }
        }
    }
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.recompiles, 0u);
    EXPECT_EQ(stats.misses, miss_base)
        << "rotation must never count as first-time misses";
    EXPECT_GT(rt.planEvents().evictions, 0u);
    EXPECT_GT(rt.planEvents().recompiles, 0u);

    // The rotation drains ran across evictions and recompiles; outputs
    // must match the dedicated seed-mode session regardless of churn.
    expectBitIdentical(want_rgat, rgat_outputs, "rgat32 under rotation");
}

TEST(PlanCacheBudget, SameModelVariantsNeverAliasInTheCache)
{
    // Two tenants registering the identical model/dims/options must
    // still compile, price and tune independently: the cache key is
    // scoped by variant name, so an eviction can never swap one
    // tenant's plan for another's compile closure.
    graph::HeteroGraph g = servingGraph();
    sim::Runtime rt;
    serve::EngineConfig ecfg;
    ecfg.autotuneSchedules = true;
    serve::Engine engine(g, ecfg, rt);
    serve::ServingConfig cfg = configFor(kRgat32);
    const int va = engine.registerVariant(
        "tenant-a", hostFeatures(g, kRgat32.din, 7), kRgat32.source, cfg);
    cfg.seed = 999; // different request stream, same model
    const int vb = engine.registerVariant(
        "tenant-b", hostFeatures(g, kRgat32.din, 7), kRgat32.source, cfg);

    engine.submit(va);
    engine.submit(vb);
    engine.drain();
    EXPECT_EQ(engine.planCache().stats().misses, 2u)
        << "same model, two tenants: two scoped compiles";
    EXPECT_NE(engine.planKey(va).canonical(),
              engine.planKey(vb).canonical());
    EXPECT_NE(engine.scheduleKey(va), engine.scheduleKey(vb))
        << "each tenant's schedule key carries its own name";
    EXPECT_GT(engine.planCache().costOf(engine.planKey(va)), 0u);
    EXPECT_GT(engine.planCache().costOf(engine.planKey(vb)), 0u);
}

TEST(PlanCacheBudget, ClearResetsRecompileHistory)
{
    graph::HeteroGraph g = servingGraph();
    serve::PlanCache cache;
    core::CompileOptions opts;
    const serve::PlanKey k =
        serve::makePlanKey(models::kRgcnSource, 8, 8, opts, g);
    cache.get(k);
    cache.clear();
    cache.get(k);
    EXPECT_EQ(cache.stats().misses, 2u)
        << "a post-clear compile is a fresh miss";
    EXPECT_EQ(cache.stats().recompiles, 0u)
        << "recompiles measure eviction churn, not clear()";
}

// ------------------------------------------------- autotuned schedules

TEST_F(EngineDeterminism, AutotunedSchedulesAreKeyedAndBitIdentical)
{
    graph::HeteroGraph g = servingGraph();
    const std::size_t n = 5;

    auto serve_with = [&](bool autotune) {
        sim::Runtime rt;
        serve::EngineConfig ecfg;
        ecfg.autotuneSchedules = autotune;
        serve::Engine engine(g, ecfg, rt);
        const int v = engine.registerVariant(
            kRgat32.name, hostFeatures(g, kRgat32.din, kRgat32.featureSeed),
            kRgat32.source, configFor(kRgat32));
        std::vector<std::uint64_t> ids;
        for (std::size_t i = 0; i < n; ++i)
            ids.push_back(engine.submit(v));
        engine.drain();
        std::vector<std::vector<float>> outs;
        for (std::uint64_t id : ids) {
            const Tensor *o = engine.result(id);
            EXPECT_NE(o, nullptr);
            outs.emplace_back(o->data(), o->data() + o->numel());
        }
        return std::make_pair(outs, engine.scheduleKey(v));
    };

    const auto [plain_outs, plain_key] = serve_with(false);
    const auto [tuned_outs, tuned_key] = serve_with(true);

    EXPECT_TRUE(plain_key.empty());
    EXPECT_FALSE(tuned_key.empty());
    EXPECT_NE(tuned_key.find(kRgat32.name), std::string::npos)
        << "schedule key must carry the variant";
    EXPECT_NE(tuned_key.find("/n"), std::string::npos)
        << "schedule key must carry the shape bucket";

    // An autotuned schedule reshapes the blocked GEMM's k-tiling and
    // the modeled kernel cost — never the arithmetic.
    expectBitIdentical(plain_outs, tuned_outs, "autotune on vs off");
}

TEST_F(EngineDeterminism, TunedScheduleSurvivesEviction)
{
    graph::HeteroGraph g = servingGraph();
    sim::Runtime rt;
    serve::EngineConfig ecfg;
    ecfg.autotuneSchedules = true;
    serve::Engine engine(g, ecfg, rt);
    const int v = engine.registerVariant(
        kRgat32.name, hostFeatures(g, kRgat32.din, kRgat32.featureSeed),
        kRgat32.source, configFor(kRgat32));

    engine.submit(v);
    engine.drain();
    const std::string key_before = engine.scheduleKey(v);
    ASSERT_FALSE(key_before.empty());
    const serve::PlanKey pk = engine.planKey(v);
    EXPECT_EQ(engine.planCache().scheduleKeyOf(pk), key_before);

    // Force the plan out, then serve again: the recompile must reuse
    // the memoized tuned schedule (same key, no re-tuning drift).
    engine.planCache().setBudgetBytes(1);
    EXPECT_EQ(engine.planCache().costOf(pk), 0u);
    engine.planCache().setBudgetBytes(0);
    engine.submit(v);
    engine.drain();
    EXPECT_EQ(engine.scheduleKey(v), key_before);
    EXPECT_EQ(engine.planCache().scheduleKeyOf(pk), key_before);
    EXPECT_EQ(engine.planCache().stats().recompiles, 1u);
    EXPECT_EQ(engine.planCache().stats().misses, 1u);
}

} // namespace
