/**
 * @file
 * Tests for the host JIT backend (core/jit): env parsing, compile +
 * execute bit-identity against the seed interpreter, fallback
 * counting with HECTOR_JIT=off, PlanCache byte accounting of dlopened
 * artifacts, and eviction unload semantics (pinned plans keep their
 * module loaded; unpinned eviction dlcloses).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "core/compiler.hh"
#include "core/executor.hh"
#include "core/jit.hh"
#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "models/models.hh"
#include "serve/plan_cache.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace hector;
namespace jit = core::jit;
using tensor::Tensor;

struct KnobGuard
{
    ~KnobGuard()
    {
        util::setSeedKernelMode(false);
        util::setGlobalThreads(0);
        jit::setJitMode(jit::JitMode::Auto);
    }
};

TEST(JitEnv, ParsesValidModes)
{
    EXPECT_EQ(jit::parseJitEnv(nullptr), jit::JitMode::Auto);
    EXPECT_EQ(jit::parseJitEnv(""), jit::JitMode::Auto);
    EXPECT_EQ(jit::parseJitEnv("off"), jit::JitMode::Off);
    EXPECT_EQ(jit::parseJitEnv("on"), jit::JitMode::On);
    EXPECT_EQ(jit::parseJitEnv("auto"), jit::JitMode::Auto);
}

TEST(JitEnv, RejectsMalformedValuesNamingVariable)
{
    for (const char *bad : {"ON", "Auto", "1", "yes", " on", "on "}) {
        EXPECT_THROW(jit::parseJitEnv(bad), std::invalid_argument)
            << "accepted: '" << bad << "'";
    }
    try {
        jit::parseJitEnv("maybe");
        FAIL() << "no exception";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("HECTOR_JIT"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("maybe"),
                  std::string::npos);
    }
}

/** Forward outputs of a JIT-attached plan vs the seed interpreter. */
/**
 * Forward of @p m at width @p dim with a JIT module attached, against
 * the seed interpreter, at 1/2/4 threads.
 */
void
expectJitForwardMatchesSeed(models::ModelKind m, std::int64_t dim)
{
    graph::HeteroGraph g = graph::toyCitationGraph();
    graph::CompactionMap cmap(g);
    std::mt19937_64 rng(21);

    core::Program prog = models::buildModel(m, g, dim, dim);
    models::WeightMap weights = models::initWeights(prog, g, rng);
    Tensor feature = Tensor::uniform({g.numNodes(), dim}, rng, 0.5f);
    core::CompileOptions opts;
    core::CompiledModel plan = core::compile(prog, opts);

    auto runForward = [&](const core::CompiledModel &p, bool seed_mode,
                          int threads) {
        util::setSeedKernelMode(seed_mode);
        util::setGlobalThreads(threads);
        sim::Runtime rt;
        models::WeightMap grads;
        core::ExecutionContext ctx;
        ctx.g = &g;
        ctx.cmap = &cmap;
        ctx.rt = &rt;
        ctx.weights = &weights;
        ctx.weightGrads = &grads;
        core::bindInputs(p, ctx, feature);
        Tensor out = p.forward(ctx);
        return std::vector<float>(out.data(), out.data() + out.numel());
    };

    const std::vector<float> oracle = runForward(plan, true, 1);

    jit::setJitMode(jit::JitMode::On);
    core::CompiledModel jplan = plan;
    ASSERT_TRUE(jit::attach(jplan));
    ASSERT_NE(jplan.jit, nullptr);
    EXPECT_GT(jplan.jit->kernelCount(), 0u);
    EXPECT_GT(jplan.jit->artifactBytes(), 0u);

    for (int threads : {1, 2, 4}) {
        const std::vector<float> got = runForward(jplan, false, threads);
        ASSERT_EQ(oracle.size(), got.size());
        EXPECT_EQ(std::memcmp(oracle.data(), got.data(),
                              oracle.size() * sizeof(float)),
                  0)
            << models::toString(m) << " dim=" << dim << " t" << threads;
    }
}

/** Widths 75, 120 and 136 take every column-strip width of the
 *  emitted kernel (8, 4, 2 and 1 vectors) and a scalar tail. */
TEST(JitExecute, BitIdenticalToSeedOracle)
{
    if (!jit::toolchainAvailable())
        GTEST_SKIP() << "no host compiler";
    KnobGuard guard;
    expectJitForwardMatchesSeed(models::ModelKind::Rgcn, 16);
    expectJitForwardMatchesSeed(models::ModelKind::Rgat, 16);
    for (std::int64_t dim : {75, 120, 136})
        expectJitForwardMatchesSeed(models::ModelKind::Rgcn, dim);
}

TEST(JitStats, OffModeCountsFallbacks)
{
    KnobGuard guard;
    jit::setJitMode(jit::JitMode::Off);
    jit::resetJitStatsForTest();

    graph::HeteroGraph g = graph::toyCitationGraph();
    core::Program prog =
        models::buildModel(models::ModelKind::Rgcn, g, 8, 8);
    core::CompiledModel plan = core::compile(prog, core::CompileOptions{});
    EXPECT_FALSE(jit::attach(plan));
    EXPECT_EQ(plan.jit, nullptr);

    const jit::JitStats s = jit::jitStats();
    EXPECT_EQ(s.compiles, 0u);
    EXPECT_EQ(s.fallbacks, 1u);
}

TEST(JitStats, RepeatCompileHitsCache)
{
    if (!jit::toolchainAvailable())
        GTEST_SKIP() << "no host compiler";
    KnobGuard guard;
    jit::setJitMode(jit::JitMode::On);

    graph::HeteroGraph g = graph::toyCitationGraph();
    core::Program prog =
        models::buildModel(models::ModelKind::Rgat, g, 24, 24);
    core::CompiledModel plan = core::compile(prog, core::CompileOptions{});

    ASSERT_TRUE(jit::attach(plan));
    jit::resetJitStatsForTest();

    // Same source again: served from the in-process memo while the
    // first module is still alive.
    core::CompiledModel again = core::compile(
        models::buildModel(models::ModelKind::Rgat, g, 24, 24),
        core::CompileOptions{});
    ASSERT_TRUE(jit::attach(again));
    const jit::JitStats s = jit::jitStats();
    EXPECT_EQ(s.compiles, 0u);
    EXPECT_GE(s.cacheHits, 1u);
    // Both plans share one loaded module.
    EXPECT_EQ(plan.jit.get(), again.jit.get());
}

/** The PlanCache charges the dlopened artifact against its budget. */
TEST(JitPlanCache, CostBytesIncludeArtifact)
{
    if (!jit::toolchainAvailable())
        GTEST_SKIP() << "no host compiler";
    KnobGuard guard;
    jit::setJitMode(jit::JitMode::On);

    graph::HeteroGraph g = graph::toyCitationGraph();
    serve::PlanCache cache(0); // unlimited
    serve::PlanKey key = serve::makePlanKey(models::kRgcnSource, 8, 8,
                                            core::CompileOptions{}, g);
    key.scope = "jit-cost";

    auto plan = cache.get(key);
    ASSERT_NE(plan, nullptr);
    ASSERT_NE(plan->jit, nullptr);
    const std::size_t text_bytes = plan->code.cudaSource.size() +
                                   plan->code.hostSource.size() +
                                   plan->code.pythonSource.size() +
                                   plan->code.cpuSource.size();
    EXPECT_EQ(cache.costOf(key),
              text_bytes + plan->jit->artifactBytes());
}

/**
 * Eviction unload: dropping the last reference to an evicted plan
 * dlcloses its module (weak observation via the module pointer),
 * while a pinned plan's module stays loaded.
 */
TEST(JitPlanCache, EvictionUnloadsModuleButPinnedSurvives)
{
    if (!jit::toolchainAvailable())
        GTEST_SKIP() << "no host compiler";
    KnobGuard guard;
    jit::setJitMode(jit::JitMode::On);

    graph::HeteroGraph g = graph::toyCitationGraph();
    serve::PlanCache cache(0);

    serve::PlanKey k1 = serve::makePlanKey(models::kRgcnSource, 8, 8,
                                           core::CompileOptions{}, g);
    k1.scope = "evict-a";
    serve::PlanKey k2 = serve::makePlanKey(models::kRgatSource, 8, 8,
                                           core::CompileOptions{}, g);
    k2.scope = "evict-b";

    auto p1 = cache.get(k1);
    auto p2 = cache.get(k2);
    ASSERT_NE(p1->jit, nullptr);
    ASSERT_NE(p2->jit, nullptr);
    std::weak_ptr<const jit::JitModule> w1 = p1->jit;
    std::weak_ptr<const jit::JitModule> w2 = p2->jit;

    // Shrink the budget below both plans' cost while p2 is pinned
    // (we hold its shared_ptr); p1 is released first.
    const std::size_t keep = cache.costOf(k2);
    p1.reset();
    cache.setBudgetBytes(keep);

    // p1 was evictable: the cache dropped its entry, and with our
    // reference gone its JIT module dlclosed.
    EXPECT_TRUE(w1.expired());
    // p2 is pinned by our shared_ptr: still resident and loaded.
    EXPECT_FALSE(w2.expired());
    EXPECT_GT(p2->jit->kernelCount(), 0u);
}

} // namespace
