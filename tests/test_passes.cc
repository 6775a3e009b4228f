/**
 * @file
 * Tests for the inter-operator passes: linear operator reordering
 * rewrites exactly the chains the paper describes (Fig. 6), compact
 * materialization marks exactly the (src, etype)-determined variables
 * (Fig. 7), loop fusion respects consumers, and virtualization only
 * happens when backward will not need the value.
 */

#include <gtest/gtest.h>

#include "core/autodiff.hh"
#include "core/passes.hh"
#include "models/models.hh"

namespace
{

using namespace hector;
using namespace hector::core;

/** Find a statement producing @p var anywhere in the program. */
const Stmt *
producerOf(const Program &p, const std::string &var)
{
    for (const auto &l : p.loops) {
        for (const auto &s : l.body)
            if (s.out.name == var)
                return &s;
        for (const auto &in : l.inner)
            for (const auto &s : in.body)
                if (s.out.name == var)
                    return &s;
    }
    return nullptr;
}

TEST(Reordering, RgatRemovesDstLinearKeepsMessageLinear)
{
    Program p = models::buildRgat(4, 8, 8);
    const PassStats stats = linearOperatorReordering(p);

    // ht fed only the attt dot product -> removed; hs also feeds the
    // aggregation -> kept.
    EXPECT_EQ(stats.reorderedLinears, 1);
    EXPECT_EQ(stats.composedWeights, 1);
    EXPECT_EQ(producerOf(p, "ht"), nullptr);
    EXPECT_NE(producerOf(p, "hs"), nullptr);

    // attt now dots the raw feature against the composed vector.
    const Stmt *attt = producerOf(p, "attt");
    ASSERT_NE(attt, nullptr);
    EXPECT_EQ(attt->ins[0].name, "feature");
    EXPECT_EQ(attt->ins[0].access, Access::ViaDst);
    EXPECT_EQ(attt->weight, "w_t__W");
    ASSERT_TRUE(p.weights.count("w_t__W"));
    EXPECT_TRUE(p.weightInfo("w_t__W").isVector);
    EXPECT_EQ(p.weightInfo("w_t__W").cols, 8);

    // One weight-weight precompute statement was created.
    ASSERT_EQ(p.weightPrecompute.size(), 1u);
    EXPECT_EQ(p.weightPrecompute[0].kind, OpKind::ComposeMatVec);
    EXPECT_EQ(p.weightPrecompute[0].weight, "W");
    EXPECT_EQ(p.weightPrecompute[0].weight2, "w_t");

    p.validate();
}

TEST(Reordering, HgtComposesProjectionChains)
{
    Program p = models::buildHgt(3, 4, 8, 8);
    const PassStats stats = linearOperatorReordering(p);

    // k and v projections are absorbed into composed edgewise weights
    // (K[srcNt(r)] . W_att[r] and V[srcNt(r)] . W_msg[r]); q remains.
    EXPECT_EQ(stats.reorderedLinears, 2);
    EXPECT_EQ(stats.composedWeights, 2);
    EXPECT_EQ(producerOf(p, "k"), nullptr);
    EXPECT_EQ(producerOf(p, "v"), nullptr);
    EXPECT_NE(producerOf(p, "q"), nullptr);

    const Stmt *ka = producerOf(p, "ka");
    ASSERT_NE(ka, nullptr);
    EXPECT_EQ(ka->weight, "K__W_att");
    EXPECT_EQ(ka->ins[0].name, "feature");
    const Stmt *msg = producerOf(p, "msg");
    ASSERT_NE(msg, nullptr);
    EXPECT_EQ(msg->weight, "V__W_msg");
    EXPECT_EQ(p.weightPrecompute.size(), 2u);
    for (const auto &s : p.weightPrecompute)
        EXPECT_EQ(s.kind, OpKind::ComposeMatMat);

    p.validate();
}

TEST(Reordering, RgcnIsUnaffected)
{
    Program p = models::buildRgcn(4, 8, 8);
    const PassStats stats = linearOperatorReordering(p);
    EXPECT_EQ(stats.reorderedLinears, 0);
    EXPECT_EQ(stats.composedWeights, 0);
}

TEST(Reordering, IsIdempotent)
{
    Program p = models::buildRgat(4, 8, 8);
    linearOperatorReordering(p);
    const PassStats again = linearOperatorReordering(p);
    EXPECT_EQ(again.reorderedLinears, 0);
    EXPECT_EQ(again.composedWeights, 0);
}

TEST(Compaction, RgatMarksSrcOnlyVariables)
{
    Program p = models::buildRgat(4, 8, 8);
    const PassStats stats = compactMaterialization(p);
    // hs = f(src, etype) and atts = f(hs, w_s[etype]) are compact;
    // everything involving the destination endpoint is not.
    EXPECT_EQ(stats.compactedVars, 2);
    EXPECT_EQ(p.varInfo("hs").mat, Materialization::Compact);
    EXPECT_EQ(p.varInfo("atts").mat, Materialization::Compact);
    EXPECT_EQ(p.varInfo("ht").mat, Materialization::Vanilla);
    EXPECT_EQ(p.varInfo("attt").mat, Materialization::Vanilla);
    EXPECT_EQ(p.varInfo("att_raw").mat, Materialization::Vanilla);
}

TEST(Compaction, HgtMarksMessageAndAttentionKey)
{
    Program p = models::buildHgt(3, 4, 8, 8);
    compactMaterialization(p);
    EXPECT_EQ(p.varInfo("ka").mat, Materialization::Compact);
    EXPECT_EQ(p.varInfo("msg").mat, Materialization::Compact);
    // att_dot reads q via the destination -> vanilla.
    EXPECT_EQ(p.varInfo("att_dot").mat, Materialization::Vanilla);
}

TEST(Compaction, ChainsThroughCompactInputs)
{
    // atts depends on hs (compact) only -> also compact: the pass must
    // propagate compactness through edge data.
    Program p = models::buildRgat(4, 8, 8);
    compactMaterialization(p);
    EXPECT_EQ(p.varInfo("atts").mat, Materialization::Compact);
}

TEST(Compaction, AfterReorderingAttsStillCompact)
{
    Program p = models::buildRgat(4, 8, 8);
    linearOperatorReordering(p);
    compactMaterialization(p);
    // After reorder attt reads feature via dst -> vanilla; atts via
    // src -> compact.
    EXPECT_EQ(p.varInfo("atts").mat, Materialization::Compact);
    EXPECT_EQ(p.varInfo("attt").mat, Materialization::Vanilla);
}

TEST(Fusion, MergesAdjacentEdgeLoopsAndFusesIntoAggregation)
{
    Program p = models::buildRgat(4, 8, 8);
    const std::size_t loops_before = p.loops.size();
    const PassStats stats = fuseLoops(p, /*allow_virtual=*/true);
    EXPECT_GT(stats.fusedLoops, 0);
    EXPECT_LT(p.loops.size(), loops_before);
    // att_n (softmax output) is consumed only by the aggregation ->
    // fused and virtualized in inference.
    EXPECT_EQ(p.varInfo("att_n").mat, Materialization::Virtual);
    p.validate();
}

TEST(Fusion, NoVirtualizationInTrainingMode)
{
    Program p = models::buildRgat(4, 8, 8);
    const PassStats stats = fuseLoops(p, /*allow_virtual=*/false);
    EXPECT_GT(stats.fusedLoops, 0);
    EXPECT_EQ(stats.virtualizedVars, 0);
    EXPECT_EQ(p.varInfo("att_n").mat, Materialization::Vanilla);
}

TEST(Fusion, DoesNotFuseMultiConsumerLoops)
{
    Program p = models::buildRgat(4, 8, 8);
    fuseLoops(p, true);
    // att_exp is consumed by both the softmax sum and division loops,
    // so it must stay materialized.
    EXPECT_NE(p.varInfo("att_exp").mat, Materialization::Virtual);
}

TEST(Fusion, KeepsSharedRowReadOutOfTheLoopScatteringIntoIt)
{
    // The edge-softmax backward: one loop scatters into
    // e.dst.att_sum_grad, the next reads it. Merged, the point-major
    // loop would read partial sums.
    for (Program fwd : {models::buildRgat(4, 8, 8),
                        models::buildHgt(3, 4, 8, 8)}) {
        Program bp = buildBackward(fwd, false);
        fuseLoops(bp, false);
        int scatter = -1;
        int read = -1;
        for (std::size_t i = 0; i < bp.loops.size(); ++i)
            for (const auto &s : bp.loops[i].body) {
                if (s.out.name == "att_sum_grad")
                    scatter = static_cast<int>(i);
                for (const auto &in : s.ins)
                    if (in.name == "att_sum_grad")
                        read = static_cast<int>(i);
            }
        ASSERT_GE(scatter, 0) << fwd.name;
        EXPECT_LT(scatter, read) << fwd.name;
        // Loops without such a conflict still merge: the rest of the
        // backward joins the reading loop.
        EXPECT_EQ(bp.loops.size(), fwd.name == "rgat" ? 2u : 3u)
            << fwd.name;
    }
}

TEST(ConsumerAnalysisTest, FindsReadersAndOutput)
{
    Program p = models::buildRgat(4, 8, 8);
    ConsumerAnalysis ca(p);
    // hs is read by the atts dot and the final aggregation.
    EXPECT_EQ(ca.readers("hs").size(), 2u);
    // ht only by attt.
    EXPECT_EQ(ca.readers("attt").size(), 1u);
    EXPECT_TRUE(ca.isProgramOutput("h_out"));
    EXPECT_FALSE(ca.isProgramOutput("hs"));
    EXPECT_TRUE(ca.readers("nonexistent").empty());
}

TEST(Autodiff, DeadGradientEliminationSkipsGraphData)
{
    Program p = models::buildRgcn(4, 8, 8);
    const auto need = gradRequiredVars(p, /*feature_grad=*/false);
    EXPECT_FALSE(need.count("norm"));
    EXPECT_FALSE(need.count("feature"));
    EXPECT_TRUE(need.count("msg"));
    EXPECT_TRUE(need.count("h_out"));

    const auto with_feature = gradRequiredVars(p, true);
    EXPECT_TRUE(with_feature.count("feature"));
}

TEST(Autodiff, BackwardProgramShape)
{
    Program p = models::buildRgat(4, 8, 8);
    Program bp = buildBackward(p, false);
    EXPECT_EQ(bp.name, "rgat_backward");
    // Backward of the aggregation nest runs as flat edge loops.
    for (const auto &l : bp.loops)
        EXPECT_NE(l.domain, LoopDomain::DstNodes);
    // Gradient variables exist for the chain but not for feature.
    EXPECT_TRUE(bp.vars.count(gradOf("hs")));
    EXPECT_TRUE(bp.vars.count(gradOf("att")));
    EXPECT_FALSE(bp.vars.count(gradOf("feature")));
    // Weight gradients are produced by dedicated ops.
    bool has_outer = false;
    bool has_wvec = false;
    for (const auto &l : bp.loops)
        for (const auto &s : l.body) {
            has_outer |= s.kind == OpKind::OuterAccumulate;
            has_wvec |= s.kind == OpKind::WeightVecGrad;
        }
    EXPECT_TRUE(has_outer);
    EXPECT_TRUE(has_wvec);
}

TEST(Autodiff, ComposedWeightsGetChainRules)
{
    Program p = models::buildHgt(3, 4, 8, 8);
    linearOperatorReordering(p);
    Program bp = buildBackward(p, false);
    ASSERT_EQ(bp.weightBackward.size(), 2u);
    for (const auto &s : bp.weightBackward)
        EXPECT_EQ(s.kind, OpKind::ComposeMatMat);
}

TEST(Autodiff, GradOfNaming)
{
    EXPECT_EQ(gradOf("hs"), "hs_grad");
}

} // namespace
