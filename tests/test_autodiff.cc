/**
 * @file
 * Gradient correctness: Hector's backward programs (lowered onto the
 * same GEMM / traversal templates as forward, Sec. 3.5) must match
 * central-difference numerical gradients for every model and every
 * optimization combination, including composed-weight chain rules
 * introduced by linear operator reordering.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/compiler.hh"
#include "core/lowering.hh"
#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "graph/sampler.hh"
#include "models/models.hh"
#include "models/reference.hh"

namespace
{

using namespace hector;
using models::ModelKind;

struct GradCase
{
    ModelKind model;
    bool compact;
    bool reorder;
    bool featureGrad;
    /** LowerOptions::fuseGemmScatter (on by default). */
    bool gemmScatter = true;
};

std::string
gradCaseName(const testing::TestParamInfo<GradCase> &info)
{
    const GradCase &c = info.param;
    return std::string(models::toString(c.model)) +
           (c.compact ? "_C" : "") + (c.reorder ? "_R" : "") +
           (c.featureGrad ? "_dX" : "");
}

/** Loss = sum(output * seed) for a fixed random seed tensor. */
double
lossOf(ModelKind m, const graph::HeteroGraph &g, const models::WeightMap &w,
       const tensor::Tensor &feature, const tensor::Tensor &seed)
{
    const tensor::Tensor out = models::referenceForward(m, g, w, feature);
    double acc = 0.0;
    for (std::size_t i = 0; i < out.numel(); ++i)
        acc += static_cast<double>(out.data()[i]) *
               static_cast<double>(seed.data()[i]);
    return acc;
}

/**
 * Per-coordinate tolerance of an analytic gradient against its
 * central difference: |analytic - numeric| <= abs + rel * |numeric|.
 */
struct Tolerance
{
    double abs;
    double rel;
};

/**
 * Backward of @p c's model on @p g (loop fusion on, as by default)
 * against central differences of the reference forward, sampling a
 * handful of coordinates of every trainable original weight and, when
 * requested, of the input features.
 */
void
checkGradients(const GradCase &c, const graph::HeteroGraph &g, Tolerance tol)
{
    const std::int64_t d = 4;

    std::mt19937_64 rng(123);
    core::Program program = models::buildModel(c.model, g, d, d);
    models::WeightMap w = models::initWeights(program, g, rng);
    tensor::Tensor feature =
        tensor::Tensor::uniform({g.numNodes(), d}, rng, 0.5f);
    tensor::Tensor seed =
        tensor::Tensor::uniform({g.numNodes(), d}, rng, 1.0f);

    core::CompileOptions opts;
    opts.compactMaterialization = c.compact;
    opts.linearReorder = c.reorder;
    opts.training = true;
    opts.featureGrad = c.featureGrad;
    opts.fuseGemmScatter = c.gemmScatter;
    const core::CompiledModel compiled = core::compile(program, opts);

    graph::CompactionMap cmap(g);
    sim::Runtime rt;
    core::ExecutionContext ctx;
    ctx.g = &g;
    ctx.cmap = &cmap;
    ctx.rt = &rt;
    models::WeightMap weights = w;
    models::WeightMap grads;
    ctx.weights = &weights;
    ctx.weightGrads = &grads;

    auto scope = rt.memoryScope();
    core::bindInputs(compiled, ctx, feature);
    compiled.forward(ctx);
    ctx.tensors.insert_or_assign(
        core::gradOf(compiled.forwardProgram.outputVar), seed);
    compiled.backward(ctx);

    const float eps = 1e-3f;
    auto expectClose = [&](float analytic, double numeric) {
        return testing::AssertionResult(
                   std::abs(analytic - numeric) <=
                   tol.abs + tol.rel * std::abs(numeric))
               << "analytic " << analytic << " vs numeric " << numeric;
    };

    // Analytic weight gradients vs. central differences.
    for (auto &[name, tensorW] : w) {
        ASSERT_TRUE(grads.count(name))
            << "no gradient accumulated for weight " << name;
        const tensor::Tensor &gw = grads.at(name);
        ASSERT_EQ(gw.shape(), tensorW.shape());
        const std::size_t n = tensorW.numel();
        const std::size_t stride = std::max<std::size_t>(1, n / 17);
        for (std::size_t i = 0; i < n; i += stride) {
            float *p = tensorW.data() + i;
            const float orig = *p;
            *p = orig + eps;
            const double lp = lossOf(c.model, g, w, feature, seed);
            *p = orig - eps;
            const double lm = lossOf(c.model, g, w, feature, seed);
            *p = orig;
            const double num = (lp - lm) / (2.0 * eps);
            EXPECT_TRUE(expectClose(gw.data()[i], num))
                << "weight " << name << " coord " << i;
        }
    }

    if (c.featureGrad) {
        const auto it = ctx.tensors.find(core::gradOf("feature"));
        ASSERT_NE(it, ctx.tensors.end()) << "feature gradient missing";
        const tensor::Tensor &gx = it->second;
        const std::size_t n = feature.numel();
        const std::size_t stride = std::max<std::size_t>(1, n / 13);
        for (std::size_t i = 0; i < n; i += stride) {
            float *p = feature.data() + i;
            const float orig = *p;
            *p = orig + eps;
            const double lp = lossOf(c.model, g, w, feature, seed);
            *p = orig - eps;
            const double lm = lossOf(c.model, g, w, feature, seed);
            *p = orig;
            const double num = (lp - lm) / (2.0 * eps);
            EXPECT_TRUE(expectClose(gx.data()[i], num))
                << "feature coord " << i;
        }
    } else {
        EXPECT_EQ(ctx.tensors.count(core::gradOf("feature")), 0u)
            << "dead gradient elimination failed: feature gradient was "
           "computed without being requested";
    }
}

class GradCheck : public testing::TestWithParam<GradCase>
{
};

TEST_P(GradCheck, MatchesNumericalGradient)
{
    checkGradients(GetParam(), graph::toyCitationGraph(), {2e-2f, 0.0});
}

std::vector<GradCase>
gradCases()
{
    std::vector<GradCase> out;
    for (ModelKind m : {ModelKind::Rgcn, ModelKind::Rgat, ModelKind::Hgt})
        for (bool compact : {false, true})
            for (bool reorder : {false, true})
                out.push_back({m, compact, reorder, false});
    out.push_back({ModelKind::Rgcn, false, false, true});
    out.push_back({ModelKind::Rgat, true, true, true});
    out.push_back({ModelKind::Hgt, false, true, true});
    return out;
}

INSTANTIATE_TEST_SUITE_P(AllModels, GradCheck, testing::ValuesIn(gradCases()),
                         gradCaseName);

/**
 * The same check on a generated graph where most destinations have
 * several in-edges, so a backward that reads a partially accumulated
 * per-node gradient (e.g. the edge-softmax denominator's) shows. The
 * toy graph above cannot: its tolerance is loose and its nodes have
 * one or two in-edges.
 */
class GradCheckManyInEdges : public testing::TestWithParam<GradCase>
{
};

TEST_P(GradCheckManyInEdges, MatchesNumericalGradient)
{
    static const graph::HeteroGraph g =
        graph::generate(graph::datasetSpec("am"), 1.0 / 4096.0);
    // Correct backwards stay within a third of this bound here; the
    // fused edge-softmax backward that read partial denominator
    // gradients exceeded it 4x (HGT) and over 200x (RGAT).
    checkGradients(GetParam(), g, {3e-5, 1e-3});
}

std::vector<GradCase>
manyInEdgeCases()
{
    std::vector<GradCase> out;
    for (ModelKind m : {ModelKind::Rgcn, ModelKind::Rgat, ModelKind::Hgt})
        for (bool optimized : {false, true})
            out.push_back({m, optimized, optimized, false});
    return out;
}

INSTANTIATE_TEST_SUITE_P(AmScaled, GradCheckManyInEdges,
                         testing::ValuesIn(manyInEdgeCases()), gradCaseName);

/** True when @p m's forward adds h_self into the aggregation. */
bool
selfLoopFolded(const core::CompiledModel &m)
{
    bool add = false;
    bool sum_first = false;
    for (const auto &l : m.forwardProgram.loops) {
        for (const auto &s : l.body)
            add |= s.kind == core::OpKind::Add;
        for (const auto &in : l.inner)
            for (const auto &s : in.body)
                sum_first |= s.sumFirst;
    }
    return sum_first && !add;
}

TEST(GradCheckFoldedRgcn, MatchesNumericalGradient)
{
    // The self-loop fold: h_self's GEMM writes h_out, the aggregation
    // adds into it, and the backward has no add. It applies wherever
    // the aggregation is a register sum: compact messages, or vanilla
    // ones without the scatter GEMM; with feature gradients too.
    static const graph::HeteroGraph am =
        graph::generate(graph::datasetSpec("am"), 1.0 / 4096.0);
    const std::vector<GradCase> cases = {
        {ModelKind::Rgcn, true, false, false},
        {ModelKind::Rgcn, true, true, true},
        {ModelKind::Rgcn, false, false, false, false},
        {ModelKind::Rgcn, false, false, true, false},
    };
    for (const GradCase &c : cases) {
        core::CompileOptions opts;
        opts.compactMaterialization = c.compact;
        opts.linearReorder = c.reorder;
        opts.training = true;
        opts.featureGrad = c.featureGrad;
        opts.fuseGemmScatter = c.gemmScatter;
        const core::CompiledModel m =
            core::compile(models::buildRgcn(4, 4, 4), opts);
        const std::string what = std::string(c.compact ? "C" : "base") +
                                 (c.featureGrad ? "_dX" : "") +
                                 (c.gemmScatter ? "" : "_noscatter");
        ASSERT_TRUE(selfLoopFolded(m)) << what;
        SCOPED_TRACE(what);
        checkGradients(c, graph::toyCitationGraph(), {2e-2f, 0.0});
        checkGradients(c, am, {3e-5, 1e-3});
    }
    // With the scatter GEMM, base RGCN keeps its add.
    core::CompileOptions base;
    base.training = true;
    EXPECT_FALSE(selfLoopFolded(core::compile(models::buildRgcn(4, 4, 4), base)));
}

TEST(GradCheckMergedSplit, MatchesNumericalGradient)
{
    // HGT C+R splits the backward edge loop writing q_grad and ka_grad
    // in two walks. On a 128-seed am block nearly every (src, etype)
    // pair has one edge, so the merged walk, which scatters ka_grad by
    // atomics, prices less and runs in place of the halves.
    std::mt19937_64 rng(7);
    graph::SampleSpec spec;
    spec.numSeeds = 128;
    spec.fanout = 4;
    const graph::HeteroGraph g =
        graph::sampleNeighbors(
            graph::generate(graph::datasetSpec("am"), 1.0 / 256.0), spec, rng)
            .subgraph;
    const GradCase c{ModelKind::Hgt, true, true, false};

    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;
    opts.training = true;
    const core::CompiledModel m =
        core::compile(models::buildModel(c.model, g, 4, 4), opts);
    std::string merged;
    for (std::size_t i = 0; i < m.backwardFn.order.size(); ++i)
        if (m.backwardFn.foldsIntoPrevious(i))
            merged = core::mergedTraversal(
                         m.backwardProgram,
                         m.backwardFn.traversals[m.backwardFn.order[i - 1].index],
                         m.backwardFn.traversals[m.backwardFn.order[i].index])
                         .name;
    ASSERT_FALSE(merged.empty());
    const graph::CompactionMap cmap(g);
    models::WeightMap weights = models::initWeights(m.forwardProgram, g, rng);
    models::WeightMap grads;
    sim::Runtime rt;
    rt.setRecordLaunches(true);
    core::ExecutionContext ctx;
    ctx.reset(&g, &cmap, &rt, &weights, &grads);
    core::trainStep(m, ctx, tensor::Tensor::uniform({g.numNodes(), 4}, rng));
    bool ran = false;
    for (const auto &r : rt.records())
        ran |= r.name == merged;
    EXPECT_TRUE(ran) << merged;

    checkGradients(c, g, {3e-5, 1e-3});
}

} // namespace
