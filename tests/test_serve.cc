/**
 * @file
 * Tests for the inference serving runtime (src/serve/): plan-cache
 * hits return bit-identical outputs with zero additional pass work,
 * micro-batched execution preserves per-request results while issuing
 * fewer launches, multi-stream scheduling is monotonically
 * non-increasing in modeled time, and the ServingSession façade's
 * batched+multi-stream configuration beats unbatched single-stream
 * serving per request (the paper's compile-once design turned into a
 * throughput-serving system).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <utility>

#include "core/frontend.hh"
#include "core/jit.hh"
#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "serve/micro_batch.hh"
#include "serve/plan_cache.hh"
#include "serve/session.hh"
#include "serve/stream_scheduler.hh"
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

/** Run one request standalone (no batching) with @p plan. */
Tensor
runAlone(const core::CompiledModel &plan, const serve::Request &req,
         models::WeightMap &weights, sim::Runtime &rt)
{
    graph::CompactionMap cmap(req.mb.subgraph);
    core::ExecutionContext ctx;
    ctx.g = &req.mb.subgraph;
    ctx.cmap = &cmap;
    ctx.rt = &rt;
    models::WeightMap grads;
    ctx.weights = &weights;
    ctx.weightGrads = &grads;
    auto scope = rt.memoryScope();
    core::bindInputs(plan, ctx, req.feature);
    Tensor out = plan.forward(ctx);
    tensor::TrackerScope untracked(nullptr);
    return out.clone();
}

/** Sample @p n requests deterministically. */
std::vector<serve::Request>
makeRequests(const graph::HeteroGraph &g, const Tensor &host_features,
             std::size_t n, sim::Runtime &rt, std::int64_t seeds = 16,
             std::int64_t fanout = 4)
{
    std::mt19937_64 rng(99);
    graph::SampleSpec spec;
    spec.numSeeds = seeds;
    spec.fanout = fanout;
    std::vector<serve::Request> reqs;
    for (std::size_t i = 0; i < n; ++i) {
        graph::Minibatch mb = graph::sampleNeighbors(g, spec, rng);
        Tensor feat = graph::transferFeatures(mb, host_features, rt);
        reqs.emplace_back(i + 1, std::move(mb), std::move(feat));
    }
    return reqs;
}

// ---------------------------------------------------------------- PlanCache

TEST(PlanCache, HitReturnsSamePlanWithZeroPassWork)
{
    graph::HeteroGraph g = servingGraph();
    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;

    serve::PlanCache cache;
    const serve::PlanKey key =
        serve::makePlanKey(models::kRgatSource, 8, 8, opts, g);

    auto p1 = cache.get(key);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.size(), 1u);
    const core::PassStats after_miss = cache.stats().passWork;
    // The C+R RGAT plan performs real pass work.
    EXPECT_GT(after_miss.fusedLoops + after_miss.compactedVars +
                  after_miss.reorderedLinears,
              0);

    auto p2 = cache.get(key);
    EXPECT_EQ(p1.get(), p2.get()) << "hit must return the cached object";
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    // Zero additional pass work on a hit.
    const core::PassStats after_hit = cache.stats().passWork;
    EXPECT_EQ(after_hit.reorderedLinears, after_miss.reorderedLinears);
    EXPECT_EQ(after_hit.composedWeights, after_miss.composedWeights);
    EXPECT_EQ(after_hit.compactedVars, after_miss.compactedVars);
    EXPECT_EQ(after_hit.fusedLoops, after_miss.fusedLoops);
    EXPECT_EQ(after_hit.virtualizedVars, after_miss.virtualizedVars);
}

TEST(PlanCache, CachedPlanOutputBitIdenticalToFreshCompile)
{
    graph::HeteroGraph g = servingGraph();
    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;

    serve::PlanCache cache;
    const serve::PlanKey key =
        serve::makePlanKey(models::kRgatSource, 8, 8, opts, g);
    cache.get(key);
    auto cached = cache.get(key); // a hit

    // Fresh compile, no cache involved.
    const core::CompiledModel fresh =
        core::compile(core::parseModel(models::kRgatSource, 8, 8), opts);

    sim::Runtime rt1;
    sim::Runtime rt2;
    std::vector<serve::Request> reqs =
        makeRequests(g, hostFeatures(g, 8, 5), 1, rt1);
    // Re-create the identical request for the second runtime.
    std::vector<serve::Request> reqs2 =
        makeRequests(g, hostFeatures(g, 8, 5), 1, rt2);

    std::mt19937_64 wrng(3);
    models::WeightMap w = models::initWeights(
        core::parseModel(models::kRgatSource, 8, 8), g, wrng);
    models::WeightMap w2 = w;

    const Tensor out_cached = runAlone(*cached, reqs[0], w, rt1);
    const Tensor out_fresh = runAlone(fresh, reqs2[0], w2, rt2);

    ASSERT_EQ(out_cached.shape(), out_fresh.shape());
    EXPECT_EQ(tensor::maxAbsDiff(out_cached, out_fresh), 0.0f)
        << "cache hit must be bit-identical to a fresh compile";
}

TEST(PlanCache, DistinctModelDimsOptionsNeverCollide)
{
    graph::HeteroGraph g = servingGraph();
    serve::PlanCache cache;

    core::CompileOptions plain;
    core::CompileOptions compact;
    compact.compactMaterialization = true;
    core::CompileOptions reorder;
    reorder.linearReorder = true;

    const std::vector<const char *> sources = {
        models::kRgcnSource, models::kRgatSource, models::kHgtSource};
    const std::vector<std::pair<std::int64_t, std::int64_t>> dims = {
        {8, 8}, {8, 16}, {16, 8}};
    const std::vector<core::CompileOptions> options = {plain, compact,
                                                       reorder};

    std::set<const core::CompiledModel *> plans;
    std::size_t keys = 0;
    for (const char *src : sources)
        for (const auto &[din, dout] : dims)
            for (const auto &opt : options) {
                plans.insert(
                    cache.get(serve::makePlanKey(src, din, dout, opt, g))
                        .get());
                ++keys;
            }

    EXPECT_EQ(cache.stats().misses, keys) << "every key must be distinct";
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.size(), keys);
    EXPECT_EQ(plans.size(), keys)
        << "distinct keys must never share a plan object";
}

TEST(PlanCache, HitMissCountersExactAcrossRepeatedDrains)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 71);
    sim::Runtime rt;
    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.din = 8;
    cfg.dout = 8;
    cfg.sample.numSeeds = 16;
    cfg.sample.fanout = 4;
    serve::ServingSession session(g, host, models::kRgcnSource, cfg, rt);

    // Each drain cycle performs exactly one cache lookup: the first
    // misses (compiles), every later one hits.
    for (std::uint64_t cycle = 1; cycle <= 5; ++cycle) {
        session.submit();
        session.submit();
        session.drain();
        EXPECT_EQ(session.planCache().stats().misses, 1u)
            << "cycle " << cycle;
        EXPECT_EQ(session.planCache().stats().hits, cycle - 1)
            << "cycle " << cycle;
    }
}

TEST(PlanCache, EvictionFreeInvariant)
{
    // With no byte budget configured (the default), the cache is
    // eviction-free: size() is monotone non-decreasing, and a key's
    // plan pointer stays valid and identical for the cache's whole
    // lifetime. The budgeted LRU behavior is pinned separately in
    // tests/test_serve_engine.cc.
    graph::HeteroGraph g = servingGraph();
    serve::PlanCache cache;
    core::CompileOptions opts;

    std::vector<serve::PlanKey> keys;
    std::vector<const core::CompiledModel *> first_ptr;
    for (const char *src :
         {models::kRgcnSource, models::kRgatSource, models::kHgtSource}) {
        keys.push_back(serve::makePlanKey(src, 8, 8, opts, g));
        first_ptr.push_back(cache.get(keys.back()).get());
        EXPECT_EQ(cache.size(), keys.size());
    }

    for (int round = 0; round < 3; ++round)
        for (std::size_t i = 0; i < keys.size(); ++i) {
            EXPECT_EQ(cache.get(keys[i]).get(), first_ptr[i])
                << "plan " << i << " must survive unreplaced";
            EXPECT_EQ(cache.size(), keys.size())
                << "re-getting must never evict";
        }
    EXPECT_EQ(cache.stats().misses, keys.size());
    EXPECT_EQ(cache.stats().hits, 3u * keys.size());
}

TEST(PlanCache, DistinctKeysCompileSeparately)
{
    graph::HeteroGraph g = servingGraph();
    serve::PlanCache cache;
    core::CompileOptions a;
    core::CompileOptions b;
    b.compactMaterialization = true;
    cache.get(serve::makePlanKey(models::kRgcnSource, 8, 8, a, g));
    cache.get(serve::makePlanKey(models::kRgcnSource, 8, 8, b, g));
    cache.get(serve::makePlanKey(models::kRgatSource, 8, 8, a, g));
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.size(), 3u);
}

// ---------------------------------------------------------------- batching

class MicroBatchModels : public testing::TestWithParam<const char *>
{
};

TEST_P(MicroBatchModels, BatchedMatchesSequential)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 21);

    core::CompileOptions opts;
    opts.compactMaterialization = true;
    serve::PlanCache cache;
    auto plan = cache.get(serve::makePlanKey(GetParam(), 8, 8, opts, g));

    std::mt19937_64 wrng(7);
    models::WeightMap weights =
        models::initWeights(core::parseModel(GetParam(), 8, 8), g, wrng);

    sim::Runtime rt;
    std::vector<serve::Request> reqs = makeRequests(g, host, 4, rt);
    std::vector<const serve::Request *> ptrs;
    for (const auto &r : reqs)
        ptrs.push_back(&r);

    std::vector<Tensor> batched;
    {
        auto scope = rt.memoryScope();
        serve::MicroBatch batch = serve::coalesce(ptrs, rt);
        EXPECT_EQ(batch.unionGraph.numNodes(),
                  reqs[0].mb.subgraph.numNodes() +
                      reqs[1].mb.subgraph.numNodes() +
                      reqs[2].mb.subgraph.numNodes() +
                      reqs[3].mb.subgraph.numNodes());
        batch.unionGraph.validate();
        std::vector<Tensor> outs =
            serve::executeBatch(*plan, batch, weights, rt);
        tensor::TrackerScope untracked(nullptr);
        for (auto &o : outs)
            batched.push_back(o.clone());
    }

    sim::Runtime rt_seq;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Tensor alone = runAlone(*plan, reqs[i], weights, rt_seq);
        ASSERT_EQ(batched[i].shape(), alone.shape());
        EXPECT_EQ(tensor::maxAbsDiff(batched[i], alone), 0.0f)
            << "request " << i
            << " diverges between batched and sequential execution";
    }
}

INSTANTIATE_TEST_SUITE_P(Models, MicroBatchModels,
                         testing::Values(models::kRgcnSource,
                                         models::kRgatSource,
                                         models::kHgtSource));

TEST(MicroBatch, ResultsInvariantUnderQueuePermutation)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 23);
    core::CompileOptions opts;
    serve::PlanCache cache;
    auto plan =
        cache.get(serve::makePlanKey(models::kRgcnSource, 8, 8, opts, g));
    std::mt19937_64 wrng(9);
    models::WeightMap weights = models::initWeights(
        core::parseModel(models::kRgcnSource, 8, 8), g, wrng);

    sim::Runtime rt_prep;
    std::vector<serve::Request> reqs = makeRequests(g, host, 5, rt_prep);

    // Serve the same five requests in several queue orders; each
    // request's output must be bit-identical no matter where in the
    // union it landed.
    const std::vector<std::vector<std::size_t>> orders = {
        {0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}};
    std::vector<std::vector<Tensor>> outs_by_req(reqs.size());
    for (const auto &order : orders) {
        std::vector<const serve::Request *> ptrs;
        for (std::size_t idx : order)
            ptrs.push_back(&reqs[idx]);
        sim::Runtime rt;
        auto scope = rt.memoryScope();
        serve::MicroBatch batch = serve::coalesce(ptrs, rt);
        std::vector<Tensor> outs =
            serve::executeBatch(*plan, batch, weights, rt);
        tensor::TrackerScope untracked(nullptr);
        for (std::size_t i = 0; i < order.size(); ++i)
            outs_by_req[order[i]].push_back(outs[i].clone());
    }
    for (std::size_t r = 0; r < reqs.size(); ++r) {
        ASSERT_EQ(outs_by_req[r].size(), orders.size());
        for (std::size_t o = 1; o < orders.size(); ++o)
            EXPECT_EQ(tensor::maxAbsDiff(outs_by_req[r][0],
                                         outs_by_req[r][o]),
                      0.0f)
                << "request " << r << " diverges under permutation " << o;
    }
}

TEST(MicroBatch, SingleRequestBatchMatchesStandalone)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 24);
    core::CompileOptions opts;
    serve::PlanCache cache;
    auto plan =
        cache.get(serve::makePlanKey(models::kRgatSource, 8, 8, opts, g));
    std::mt19937_64 wrng(10);
    models::WeightMap weights = models::initWeights(
        core::parseModel(models::kRgatSource, 8, 8), g, wrng);

    sim::Runtime rt_prep;
    std::vector<serve::Request> reqs = makeRequests(g, host, 3, rt_prep);
    for (const serve::Request &r : reqs) {
        sim::Runtime rt;
        std::vector<Tensor> outs;
        {
            auto scope = rt.memoryScope();
            serve::MicroBatch batch = serve::coalesce({&r}, rt);
            outs = serve::executeBatch(*plan, batch, weights, rt);
        }
        ASSERT_EQ(outs.size(), 1u);
        sim::Runtime rt_alone;
        const Tensor alone = runAlone(*plan, r, weights, rt_alone);
        ASSERT_EQ(outs[0].shape(), alone.shape());
        EXPECT_EQ(tensor::maxAbsDiff(outs[0], alone), 0.0f)
            << "a batch of one must equal standalone execution";
    }
}

/** Same shape and the same bits (memcmp, so -0.f != +0.f). */
bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/**
 * Zero-copy micro-batches: the kernels read each request's feature
 * rows and write each request's result rows in place through row
 * tables. Over every kernel tier a batch can run on, each result must
 * equal the request's standalone seed-interpreter output bit for bit,
 * no Index (copy) kernel may launch, and the device may hold no union
 * feature or union output tensor.
 */
class ZeroCopyMicroBatch : public testing::TestWithParam<const char *>
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

TEST_P(ZeroCopyMicroBatch, BitIdenticalToStandaloneWithoutCopies)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 31);
    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;
    const core::CompiledModel plain =
        core::compile(core::parseModel(GetParam(), 8, 8), opts);
    core::CompiledModel jitted =
        core::compile(core::parseModel(GetParam(), 8, 8), opts);
    core::jit::setJitMode(core::jit::JitMode::On);
    if (core::jit::toolchainAvailable()) {
        ASSERT_TRUE(core::jit::attach(jitted));
    }
    std::mt19937_64 wrng(12);
    models::WeightMap weights =
        models::initWeights(core::parseModel(GetParam(), 8, 8), g, wrng);

    sim::Runtime rt_prep;
    std::vector<serve::Request> reqs = makeRequests(g, host, 8, rt_prep);
    std::vector<Tensor> alone;
    util::setSeedKernelMode(true);
    for (const serve::Request &r : reqs) {
        sim::Runtime rt;
        alone.push_back(runAlone(plain, r, weights, rt));
    }

    const std::string &in_var = plain.forwardProgram.inputVar;
    const std::string &out_var = plain.forwardProgram.outputVar;
    for (std::size_t n : {1, 3, 8})
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
                    std::vector<const serve::Request *> ptrs;
                    for (std::size_t i = 0; i < n; ++i)
                        ptrs.push_back(&reqs[i]);

                    sim::Runtime rt;
                    core::ExecutionContext ctx;
                    models::WeightMap grads;
                    std::vector<Tensor> outs;
                    {
                        auto scope = rt.memoryScope();
                        const serve::MicroBatch batch =
                            serve::coalesce(ptrs, rt);
                        outs = serve::executeBatch(jit ? jitted : plain,
                                                   batch, weights, rt, ctx,
                                                   grads);
                        EXPECT_EQ(ctx.lookup(in_var), nullptr) << what;
                        EXPECT_EQ(ctx.lookup(out_var), nullptr) << what;
                        // The device held the forward arena, the
                        // results and RGCN's edge norm: nothing else.
                        std::size_t want = ctx.layout().forwardBytes;
                        for (const Tensor &o : outs)
                            want += o.bytes();
                        if (plain.forwardProgram.vars.count("norm"))
                            want += static_cast<std::size_t>(
                                        batch.unionGraph.numEdges()) *
                                    sizeof(float);
                        EXPECT_EQ(rt.tracker().peakBytes(), want) << what;
                    }
                    EXPECT_EQ(rt.counters()
                                  .bucket(sim::KernelCategory::Index,
                                          sim::Phase::Forward)
                                  .launches,
                              0u)
                        << what;
                    EXPECT_EQ(rt.counters().total().launches,
                              (jit ? jitted : plain).forwardKernels())
                        << what;
                    ASSERT_EQ(outs.size(), n) << what;
                    for (std::size_t i = 0; i < n; ++i)
                        EXPECT_TRUE(sameBits(outs[i], alone[i]))
                            << what << ": request " << i;
                }
}

INSTANTIATE_TEST_SUITE_P(Models, ZeroCopyMicroBatch,
                         testing::Values(models::kRgcnSource,
                                         models::kRgatSource,
                                         models::kHgtSource));

TEST(ServingSession, MaxBatchVariantsServeIdenticalResults)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 25);
    const std::size_t n_requests = 8;

    // maxBatch 1 (unbatched), 7 (ragged tail), 4 (exact multiple),
    // and 64 (one batch larger than the queue) must all produce
    // bit-identical per-request outputs and the right batch counts.
    const std::vector<std::pair<std::size_t, std::size_t>> cases = {
        {1, 8}, {7, 2}, {4, 2}, {64, 1}};
    std::vector<std::vector<Tensor>> outs_by_case;
    for (const auto &[max_batch, want_batches] : cases) {
        sim::Runtime rt;
        serve::ServingConfig cfg;
        cfg.maxBatch = max_batch;
        cfg.din = 8;
        cfg.dout = 8;
        cfg.sample.numSeeds = 16;
        cfg.sample.fanout = 4;
        cfg.seed = 555; // identical request stream per case
        serve::ServingSession session(g, host, models::kRgcnSource, cfg,
                                      rt);
        std::vector<std::uint64_t> ids;
        for (std::size_t i = 0; i < n_requests; ++i)
            ids.push_back(session.submit());
        const serve::ServingReport rep = session.drain();
        EXPECT_EQ(rep.requests, n_requests);
        EXPECT_EQ(rep.batches, want_batches)
            << "maxBatch " << max_batch;
        std::vector<Tensor> outs;
        for (std::uint64_t id : ids)
            outs.push_back(session.result(id)->clone());
        outs_by_case.push_back(std::move(outs));
    }
    for (std::size_t c = 1; c < cases.size(); ++c)
        for (std::size_t r = 0; r < n_requests; ++r)
            EXPECT_EQ(tensor::maxAbsDiff(outs_by_case[0][r],
                                         outs_by_case[c][r]),
                      0.0f)
                << "request " << r << " diverges at maxBatch "
                << cases[c].first;
}

TEST(MicroBatch, FewerLaunchesAndLowerModeledTimeThanSequential)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 22);
    core::CompileOptions opts;
    serve::PlanCache cache;
    auto plan =
        cache.get(serve::makePlanKey(models::kRgatSource, 8, 8, opts, g));
    std::mt19937_64 wrng(8);
    models::WeightMap weights = models::initWeights(
        core::parseModel(models::kRgatSource, 8, 8), g, wrng);

    sim::Runtime rt_prep;
    std::vector<serve::Request> reqs = makeRequests(g, host, 8, rt_prep);
    std::vector<const serve::Request *> ptrs;
    for (const auto &r : reqs)
        ptrs.push_back(&r);

    sim::Runtime rt_batched;
    {
        auto scope = rt_batched.memoryScope();
        serve::MicroBatch batch = serve::coalesce(ptrs, rt_batched);
        serve::executeBatch(*plan, batch, weights, rt_batched);
    }

    sim::Runtime rt_seq;
    for (const auto &r : reqs)
        runAlone(*plan, r, weights, rt_seq);

    EXPECT_LT(rt_batched.counters().total().launches,
              rt_seq.counters().total().launches);
    EXPECT_LT(rt_batched.totalTimeMs(), rt_seq.totalTimeMs())
        << "batched execution must win on modeled time";
}

// ---------------------------------------------------------------- streams

TEST(RuntimeStreams, PerStreamAccountingAndMakespan)
{
    sim::Runtime rt;
    sim::KernelDesc d;
    d.name = "k";
    d.category = sim::KernelCategory::Gemm;
    d.flops = 1e9;
    d.workItems = 1e7;

    rt.launch(d, nullptr);
    rt.setCurrentStream(1);
    rt.launch(d, nullptr);
    rt.launch(d, nullptr);

    ASSERT_EQ(rt.streamStats().size(), 2u);
    EXPECT_EQ(rt.streamStats()[0].launches, 1u);
    EXPECT_EQ(rt.streamStats()[1].launches, 2u);
    EXPECT_GT(rt.streamStats()[1].execSec, rt.streamStats()[0].execSec);

    // Two streams overlap: makespan is below the serial total but at
    // least the serialized-fraction floor and the busiest stream.
    const double serial = rt.totalTimeMs() * 1e-3;
    const double makespan = rt.makespanSec();
    EXPECT_LT(makespan, serial);
    const double exec_total =
        rt.streamStats()[0].execSec + rt.streamStats()[1].execSec;
    EXPECT_GE(makespan,
              rt.spec().streamSerialFraction * exec_total);
    EXPECT_GE(makespan, rt.streamStats()[1].execSec);
}

TEST(RuntimeStreams, SingleStreamMakespanEqualsSerialTotal)
{
    sim::Runtime rt;
    sim::KernelDesc d;
    d.name = "k";
    d.flops = 1e8;
    d.workItems = 1e6;
    rt.launch(d, nullptr);
    rt.launch(d, nullptr);
    rt.hostOverhead(1e-4);
    EXPECT_NEAR(rt.makespanSec(), rt.totalTimeMs() * 1e-3, 1e-12);
}

TEST(StreamScheduler, ModeledTimeMonotonicallyNonIncreasingInStreams)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 31);

    double prev = -1.0;
    for (int streams : {1, 2, 3, 4, 8}) {
        sim::Runtime rt;
        serve::ServingConfig cfg;
        cfg.maxBatch = 1; // isolate the stream dimension
        cfg.numStreams = streams;
        cfg.din = 8;
        cfg.dout = 8;
        cfg.sample.numSeeds = 16;
        cfg.sample.fanout = 4;
        serve::ServingSession session(g, host, models::kRgatSource, cfg,
                                      rt);
        for (int i = 0; i < 8; ++i)
            session.submit();
        const serve::ServingReport rep = session.drain();
        ASSERT_EQ(rep.requests, 8u);
        if (prev >= 0.0) {
            EXPECT_LE(rep.makespanMs, prev * (1.0 + 1e-9))
                << "modeled time increased from " << prev << " at "
                << streams << " streams";
        }
        prev = rep.makespanMs;
    }
}

TEST(StreamScheduler, CompletionTimesGuardedForEmptyAndZeroWork)
{
    sim::Runtime rt;
    serve::StreamScheduler sched(rt, 2);

    // No batches at all: empty, zero makespan, no division anywhere.
    EXPECT_TRUE(sched.completionTimes().empty());
    EXPECT_EQ(sched.makespanSec(), 0.0);

    // All-empty batches (no kernels, no host work): the raw timeline
    // and the makespan are both 0, so the uniform stretch must be
    // skipped rather than computing 0/0.
    for (int i = 0; i < 3; ++i)
        sched.run([]() {});
    EXPECT_EQ(sched.makespanSec(), 0.0);
    const std::vector<double> times = sched.completionTimes();
    ASSERT_EQ(times.size(), 3u);
    for (double t : times) {
        EXPECT_TRUE(std::isfinite(t)) << "stretch must not produce NaN";
        EXPECT_EQ(t, 0.0);
    }
}

// ---------------------------------------------------------------- session

TEST(ServingSession, EmptyDrainReturnsZeroedReport)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 42);
    sim::Runtime rt;
    serve::ServingConfig cfg;
    cfg.din = 8;
    cfg.dout = 8;
    cfg.sample.numSeeds = 16;
    cfg.sample.fanout = 4;
    serve::ServingSession session(g, host, models::kRgcnSource, cfg, rt);

    // Draining an empty queue has no makespan to divide by: every
    // metric must come back zeroed and finite, not NaN/inf.
    const serve::ServingReport rep = session.drain();
    EXPECT_EQ(rep.requests, 0u);
    EXPECT_EQ(rep.batches, 0u);
    EXPECT_EQ(rep.makespanMs, 0.0);
    EXPECT_EQ(rep.throughputReqPerSec, 0.0);
    EXPECT_EQ(rep.msPerRequest, 0.0);
    EXPECT_EQ(rep.meanLatencyMs, 0.0);
    EXPECT_EQ(rep.p50LatencyMs, 0.0);
    EXPECT_EQ(rep.p99LatencyMs, 0.0);
    EXPECT_EQ(rep.meanQueueDelayMs, 0.0);
    EXPECT_EQ(rep.sloAttainment, 1.0);
    EXPECT_EQ(rep.launches, 0u);
    EXPECT_TRUE(std::isfinite(rep.throughputReqPerSec));
    EXPECT_TRUE(std::isfinite(rep.msPerRequest));
    EXPECT_TRUE(session.lastLatenciesMs().empty());

    // An empty drain leaves retained results untouched and the
    // session fully serviceable.
    const std::uint64_t id = session.submit();
    const serve::ServingReport rep2 = session.drain();
    EXPECT_EQ(rep2.requests, 1u);
    ASSERT_NE(session.result(id), nullptr);
    const serve::ServingReport rep3 = session.drain(); // empty again
    EXPECT_EQ(rep3.requests, 0u);
    EXPECT_NE(session.result(id), nullptr)
        << "an empty drain must not drop retained results";
}

TEST(ServingSession, DrainReportsArrivalAwarePercentilesAndSlo)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 43);
    sim::Runtime rt;
    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.numStreams = 2;
    cfg.din = 8;
    cfg.dout = 8;
    cfg.sample.numSeeds = 16;
    cfg.sample.fanout = 4;
    serve::ServingSession session(g, host, models::kRgcnSource, cfg, rt);
    for (int i = 0; i < 12; ++i)
        session.submit();
    const serve::ServingReport rep = session.drain();

    EXPECT_LE(rep.p50LatencyMs, rep.p95LatencyMs);
    EXPECT_LE(rep.p95LatencyMs, rep.p99LatencyMs);
    EXPECT_LE(rep.p99LatencyMs, rep.maxLatencyMs);
    EXPECT_GT(rep.p95LatencyMs, 0.0);
    EXPECT_GE(rep.meanQueueDelayMs, 0.0);
    EXPECT_LT(rep.meanQueueDelayMs, rep.maxLatencyMs);
    // No deadline configured: full attainment by definition.
    EXPECT_EQ(rep.sloAttainment, 1.0);

    // An impossible deadline yields zero attainment; a generous one
    // restores full attainment.
    serve::ServingConfig tight = cfg;
    tight.deadlineMs = 1e-12;
    sim::Runtime rt2;
    serve::ServingSession strict(g, host, models::kRgcnSource, tight,
                                 rt2);
    for (int i = 0; i < 6; ++i)
        strict.submit();
    EXPECT_EQ(strict.drain().sloAttainment, 0.0);

    serve::ServingConfig loose = cfg;
    loose.deadlineMs = 1e9;
    sim::Runtime rt3;
    serve::ServingSession relaxed(g, host, models::kRgcnSource, loose,
                                  rt3);
    for (int i = 0; i < 6; ++i)
        relaxed.submit();
    EXPECT_EQ(relaxed.drain().sloAttainment, 1.0);
}

TEST(ServingSession, ServeOldestMatchesDrainResultsIncrementally)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 44);

    serve::ServingConfig cfg;
    cfg.maxBatch = 8;
    cfg.din = 8;
    cfg.dout = 8;
    cfg.sample.numSeeds = 16;
    cfg.sample.fanout = 4;
    cfg.seed = 888;

    // Incremental serveOldest (3 + 2 + 1) against one closed drain of
    // the identical request stream.
    sim::Runtime rt_inc;
    serve::ServingSession inc(g, host, models::kRgcnSource, cfg, rt_inc);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(inc.submit());
    serve::BatchCost c1 = inc.serveOldest(3);
    serve::BatchCost c2 = inc.serveOldest(2);
    serve::BatchCost c3 = inc.serveOldest(1);
    EXPECT_EQ(c1.requests, 3u);
    EXPECT_EQ(c2.requests, 2u);
    EXPECT_EQ(c3.requests, 1u);
    EXPECT_GT(c1.execSec, 0.0);
    EXPECT_GT(c1.overheadSec, 0.0);
    EXPECT_EQ(inc.queued(), 0u);
    EXPECT_EQ(inc.serveOldest(4).requests, 0u) << "empty queue: zeroed";

    sim::Runtime rt_drain;
    serve::ServingSession closed(g, host, models::kRgcnSource, cfg,
                                 rt_drain);
    for (int i = 0; i < 6; ++i)
        closed.submit();
    closed.drain();

    for (std::uint64_t id : ids) {
        const Tensor *a = inc.result(id);
        const Tensor *b = closed.result(id);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(tensor::maxAbsDiff(*a, *b), 0.0f)
            << "request " << id << " diverges incremental vs drain";
    }
}

TEST(ServingSession, ServeOldestRebasesDrainTransferAccounting)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 45);
    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.din = 8;
    cfg.dout = 8;
    cfg.sample.numSeeds = 16;
    cfg.sample.fanout = 4;
    cfg.seed = 999;

    // Serving part of the queue incrementally must take the served
    // requests' transfer time out of the next drain cycle: a drain of
    // requests {c, d} reports the identical timeline whether {a, b}
    // were first served from the same queue or in a separate cycle.
    sim::Runtime rt1;
    serve::ServingSession separate(g, host, models::kRgcnSource, cfg,
                                   rt1);
    separate.submit(); // a
    separate.submit(); // b
    separate.serveOldest(2);
    separate.submit(); // c
    separate.submit(); // d
    const serve::ServingReport rep1 = separate.drain();

    sim::Runtime rt2;
    serve::ServingSession mixed(g, host, models::kRgcnSource, cfg, rt2);
    for (int i = 0; i < 4; ++i)
        mixed.submit(); // a, b, c, d
    mixed.serveOldest(2);
    const serve::ServingReport rep2 = mixed.drain();

    EXPECT_DOUBLE_EQ(rep1.makespanMs, rep2.makespanMs)
        << "a later drain must not be charged served requests' "
           "transfers";
    EXPECT_DOUBLE_EQ(rep1.meanLatencyMs, rep2.meanLatencyMs);
    ASSERT_EQ(separate.lastLatenciesMs().size(),
              mixed.lastLatenciesMs().size());
    for (std::size_t i = 0; i < mixed.lastLatenciesMs().size(); ++i)
        EXPECT_DOUBLE_EQ(separate.lastLatenciesMs()[i],
                         mixed.lastLatenciesMs()[i]);
}

TEST(ServingSession, ReportAndResultsAreConsistent)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 41);
    sim::Runtime rt;
    serve::ServingConfig cfg;
    cfg.maxBatch = 4;
    cfg.numStreams = 2;
    cfg.din = 8;
    cfg.dout = 8;
    cfg.sample.numSeeds = 16;
    cfg.sample.fanout = 4;
    serve::ServingSession session(g, host, models::kRgcnSource, cfg, rt);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 9; ++i)
        ids.push_back(session.submit());
    EXPECT_EQ(session.queued(), 9u);

    const serve::ServingReport rep = session.drain();
    EXPECT_EQ(session.queued(), 0u);
    EXPECT_EQ(rep.requests, 9u);
    EXPECT_EQ(rep.batches, 3u); // 4 + 4 + 1
    EXPECT_EQ(rep.cacheMisses, 1u);
    EXPECT_GT(rep.makespanMs, 0.0);
    EXPECT_GT(rep.throughputReqPerSec, 0.0);
    EXPECT_GT(rep.launches, 0u);
    EXPECT_GE(rep.maxLatencyMs, rep.p50LatencyMs);
    EXPECT_EQ(session.lastLatenciesMs().size(), 9u);

    for (std::uint64_t id : ids) {
        const Tensor *out = session.result(id);
        ASSERT_NE(out, nullptr);
        EXPECT_EQ(out->dim(1), 8);
        EXPECT_GT(out->dim(0), 0);
    }

    // A second cycle reuses the cached plan.
    session.submit();
    const serve::ServingReport rep2 = session.drain();
    EXPECT_EQ(rep2.cacheMisses, 1u);
    EXPECT_GE(rep2.cacheHits, 1u);
}

TEST(ServingSession, BatchedMultiStreamServesIdenticalResultsFaster)
{
    graph::HeteroGraph g = servingGraph();
    const Tensor host = hostFeatures(g, 8, 51);

    auto serve_with = [&](std::size_t batch, int streams,
                          std::vector<Tensor> &outputs) {
        sim::Runtime rt;
        serve::ServingConfig cfg;
        cfg.maxBatch = batch;
        cfg.numStreams = streams;
        cfg.din = 8;
        cfg.dout = 8;
        cfg.sample.numSeeds = 16;
        cfg.sample.fanout = 4;
        cfg.seed = 777; // identical request streams across configs
        serve::ServingSession session(g, host, models::kRgatSource, cfg,
                                      rt);
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 32; ++i)
            ids.push_back(session.submit());
        const serve::ServingReport rep = session.drain();
        for (std::uint64_t id : ids)
            outputs.push_back(session.result(id)->clone());
        return rep;
    };

    std::vector<Tensor> unbatched_outs;
    std::vector<Tensor> batched_outs;
    const serve::ServingReport unbatched =
        serve_with(1, 1, unbatched_outs);
    const serve::ServingReport batched = serve_with(8, 4, batched_outs);

    ASSERT_EQ(unbatched_outs.size(), batched_outs.size());
    for (std::size_t i = 0; i < unbatched_outs.size(); ++i)
        EXPECT_EQ(tensor::maxAbsDiff(unbatched_outs[i], batched_outs[i]),
                  0.0f)
            << "request " << i << " served differently";

    // The acceptance criterion: batch 8 x 4 streams is strictly
    // faster per request than unbatched single-stream serving.
    EXPECT_LT(batched.msPerRequest, unbatched.msPerRequest);
    EXPECT_GT(unbatched.msPerRequest / batched.msPerRequest, 1.5)
        << "batching + streams should win clearly, not marginally";
}

// ----------------------------------------------------------- percentiles

// percentileSorted (session.hh) is the ONE nearest-rank helper every
// report path shares — drain cycles, the online loop, and sharded
// drains all call it — so its exact semantics are pinned here on known
// vectors rather than through report plumbing.

TEST(PercentileSorted, EmptySampleIsZero)
{
    EXPECT_EQ(serve::percentileSorted({}, 0.5), 0.0);
    EXPECT_EQ(serve::percentileSorted({}, 0.99), 0.0);
}

TEST(PercentileSorted, SingleElementIsEveryPercentile)
{
    const std::vector<double> one = {7.5};
    EXPECT_EQ(serve::percentileSorted(one, 0.0), 7.5);
    EXPECT_EQ(serve::percentileSorted(one, 0.50), 7.5);
    EXPECT_EQ(serve::percentileSorted(one, 0.95), 7.5);
    EXPECT_EQ(serve::percentileSorted(one, 0.99), 7.5);
    EXPECT_EQ(serve::percentileSorted(one, 1.0), 7.5);
}

TEST(PercentileSorted, NearestRankOnKnownVector)
{
    // Nearest-rank: idx = ceil(q * n) - 1 (clamped).
    const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
    EXPECT_EQ(serve::percentileSorted(v, 0.0), 10.0);
    EXPECT_EQ(serve::percentileSorted(v, 0.25), 10.0); // ceil(1)-1 = 0
    EXPECT_EQ(serve::percentileSorted(v, 0.50), 20.0); // ceil(2)-1 = 1
    EXPECT_EQ(serve::percentileSorted(v, 0.75), 30.0);
    EXPECT_EQ(serve::percentileSorted(v, 0.95), 40.0); // ceil(3.8)-1 = 3
    EXPECT_EQ(serve::percentileSorted(v, 0.99), 40.0);
    EXPECT_EQ(serve::percentileSorted(v, 1.0), 40.0);
}

TEST(PercentileSorted, TiesResolveToTheTiedValue)
{
    const std::vector<double> v = {5.0, 5.0, 7.0, 7.0, 9.0};
    EXPECT_EQ(serve::percentileSorted(v, 0.40), 5.0); // ceil(2)-1 = 1
    EXPECT_EQ(serve::percentileSorted(v, 0.50), 7.0); // ceil(2.5)-1 = 2
    EXPECT_EQ(serve::percentileSorted(v, 0.80), 7.0); // ceil(4)-1 = 3
    EXPECT_EQ(serve::percentileSorted(v, 0.95), 9.0);
    EXPECT_EQ(serve::percentileSorted(v, 0.99), 9.0);
}

TEST(PercentileSorted, ClampsOutOfRangeQuantiles)
{
    const std::vector<double> v = {1.0, 2.0};
    EXPECT_EQ(serve::percentileSorted(v, -0.5), 1.0);
    EXPECT_EQ(serve::percentileSorted(v, 1.5), 2.0);
}

} // namespace
