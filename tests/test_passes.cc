/**
 * @file
 * Tests for the inter-operator passes: linear operator reordering
 * rewrites exactly the chains the paper describes (Fig. 6), compact
 * materialization marks exactly the (src, etype)-determined variables
 * (Fig. 7), loop fusion respects consumers, virtualization only
 * happens when no other kernel reads the value, and the self-loop add
 * folds into the aggregation.
 */

#include <gtest/gtest.h>

#include "core/autodiff.hh"
#include "core/frontend.hh"
#include "core/lowering.hh"
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

/**
 * Lowers @p p (and the backward @p bp, when set) and applies the
 * Virtual rule, as compile() does after fusion.
 */
void
lowerAndVirtualize(Program &p, Program *bp)
{
    LoweredFunction fwd = lower(p, {}, sim::Phase::Forward);
    LoweredFunction bwd;
    if (bp)
        bwd = lower(*bp, {}, sim::Phase::Backward);
    virtualizeTemporaries(p, fwd, bp, bp ? &bwd : nullptr);
}

/** Index of the top-level loop of @p p writing @p var, or -1. */
int
loopOf(const Program &p, const std::string &var)
{
    for (std::size_t i = 0; i < p.loops.size(); ++i) {
        for (const auto &s : p.loops[i].body)
            if (s.out.name == var)
                return static_cast<int>(i);
        for (const auto &in : p.loops[i].inner)
            for (const auto &s : in.body)
                if (s.out.name == var)
                    return static_cast<int>(i);
    }
    return -1;
}

TEST(Fusion, MergesAdjacentEdgeLoopsAndFusesIntoAggregation)
{
    Program p = models::buildRgat(4, 8, 8);
    const std::size_t loops_before = p.loops.size();
    const PassStats stats = fuseLoops(p);
    EXPECT_GT(stats.fusedLoops, 0);
    EXPECT_LT(p.loops.size(), loops_before);
    // Fusion decides no materialization. After lowering, att_n (the
    // softmax output), consumed only by the aggregation, is
    // virtualized in inference.
    EXPECT_EQ(p.varInfo("att_n").mat, Materialization::Vanilla);
    lowerAndVirtualize(p, nullptr);
    EXPECT_EQ(p.varInfo("att_n").mat, Materialization::Virtual);
    p.validate();
}

TEST(Fusion, TrainingKeepsWhatTheBackwardReads)
{
    Program p = models::buildRgat(4, 8, 8);
    Program bp = buildBackward(p, false);
    const PassStats stats = fuseLoops(p);
    EXPECT_GT(stats.fusedLoops, 0);
    EXPECT_EQ(stats.virtualizedVars, 0);
    fuseLoops(bp);
    lowerAndVirtualize(p, &bp);
    // The backward reads att_n, att_raw and att_exp: they stay
    // materialized in both programs.
    for (const char *v : {"att_n", "att_raw", "att_exp"}) {
        EXPECT_EQ(p.varInfo(v).mat, Materialization::Vanilla) << v;
        EXPECT_EQ(bp.varInfo(v).mat, Materialization::Vanilla) << v;
    }
    // attt and att are read only inside the score walk, and att_n's
    // gradient only inside the backward walk computing it.
    for (const char *v : {"attt", "att"}) {
        EXPECT_EQ(p.varInfo(v).mat, Materialization::Virtual) << v;
        EXPECT_EQ(bp.varInfo(v).mat, Materialization::Virtual) << v;
    }
    EXPECT_EQ(bp.varInfo(gradOf("att_n")).mat, Materialization::Virtual);
}

TEST(Fusion, MultiConsumerOutputStaysMaterialized)
{
    Program p = models::buildRgat(4, 8, 8);
    fuseLoops(p);
    // att_exp is consumed by both the softmax sum and the division:
    // the sum joins the walk computing it, the division reads it
    // later, so it stays materialized.
    EXPECT_EQ(loopOf(p, "att_exp"), loopOf(p, "att_sum"));
    lowerAndVirtualize(p, nullptr);
    EXPECT_NE(p.varInfo("att_exp").mat, Materialization::Virtual);
}

TEST(Fusion, SoftmaxSumJoinsTheScoreWalk)
{
    // C+R RGAT and HGT: the edge loop computing the scores folds into
    // the softmax-sum nest although the aggregation reads att_exp
    // later. Compact producers stay out: the ones the walk needs run
    // before it (RGAT's hs and atts, HGT's ka), the others after it
    // (HGT's msg GEMM).
    struct Case
    {
        Program p;
        std::vector<std::string> folded;
        std::vector<std::string> before;
        std::vector<std::string> after;
    };
    std::vector<Case> cases;
    cases.push_back({models::buildRgat(4, 8, 8),
                     {"attt", "att_raw", "att", "att_exp"},
                     {"hs", "atts"},
                     {}});
    cases.push_back({models::buildHgt(3, 4, 8, 8),
                     {"att_dot", "att", "att_exp"},
                     {"ka"},
                     {"msg"}});
    for (auto &c : cases) {
        Program &p = c.p;
        linearOperatorReordering(p);
        compactMaterialization(p);
        fuseLoops(p);
        p.validate();
        const int nest = loopOf(p, "att_sum");
        ASSERT_GT(nest, 0) << p.name;
        EXPECT_EQ(p.loops[static_cast<std::size_t>(nest)].domain,
                  LoopDomain::DstNodes);
        for (const auto &v : c.folded)
            EXPECT_EQ(loopOf(p, v), nest) << p.name << " " << v;
        for (const auto &v : c.before)
            EXPECT_EQ(loopOf(p, v), nest - 1) << p.name << " " << v;
        for (const auto &v : c.after)
            EXPECT_EQ(loopOf(p, v), nest + 1) << p.name << " " << v;
        EXPECT_EQ(p.loops[static_cast<std::size_t>(nest) - 1].domain,
                  LoopDomain::Edges);

        // One traversal computes the scores and sums them.
        const LoweredFunction fn = lower(p, {}, sim::Phase::Forward);
        int writers = 0;
        for (const auto &ti : fn.traversals) {
            bool exp = false;
            bool sum = false;
            for (const auto &ss : ti.stmts) {
                exp |= ss.stmt.out.name == "att_exp";
                sum |= ss.stmt.out.name == "att_sum";
            }
            EXPECT_EQ(exp, sum) << p.name << " " << ti.name;
            writers += sum;
        }
        EXPECT_EQ(writers, 1) << p.name;
    }
}

TEST(Fusion, NestOutputReadByTheEdgeLoopBlocksTheFold)
{
    const char *src = R"(model nest_output_read
input feature din
for e in g.edges():
    a = dot_prd(e.src.feature, e.dst.feature)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        s += accumulate_sum(e.a)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_out += accumulate_scaled(e.a, e.src.feature)
output h_out
)";
    Program plain = parseModel(src, 8, 8);
    EXPECT_EQ(fuseLoops(plain).fusedLoops, 1);
    EXPECT_EQ(loopOf(plain, "a"), loopOf(plain, "s"));

    // The edge loop also reads e.dst.s, which the nest after it sums:
    // folded in, it would read partial sums.
    Program p = parseModel(src, 8, 8);
    p.declareVar("b", {VarSpace::EdgeData, 1, false,
                       Materialization::Vanilla});
    Stmt b;
    b.kind = OpKind::Add;
    b.out = {"b", Access::Direct};
    b.ins = {{"a", Access::Direct}, {"s", Access::ViaDst}};
    p.loops[0].body.push_back(b);
    p.validate();
    const std::size_t loops = p.loops.size();
    EXPECT_EQ(fuseLoops(p).fusedLoops, 0);
    EXPECT_EQ(p.loops.size(), loops);
    EXPECT_EQ(loopOf(p, "a"), 0);
}

TEST(Fusion, ProducerTheNestReadsRunsBeforeIt)
{
    // hs stays out of the nest and no moved statement reads it, but
    // the nest does: its GEMM must run before the walk, not after it.
    const char *src = R"(model nest_reads_outside
weight W etype din din
input feature din
for e in g.edges():
    hs = typed_linear(e.src.feature, W[e.etype])
    a = dot_prd(e.src.feature, e.dst.feature)
    x = exp(e.a)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        s += accumulate_sum(e.x)
        t += accumulate_scaled(e.x, e.hs)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_out += accumulate_scaled(e.x, e.src.feature)
output h_out
)";
    Program p = parseModel(src, 8, 8);
    EXPECT_EQ(fuseLoops(p).fusedLoops, 1);
    p.validate();
    const int nest = loopOf(p, "s");
    ASSERT_GT(nest, 0);
    EXPECT_EQ(loopOf(p, "x"), nest);
    EXPECT_EQ(loopOf(p, "t"), nest);
    EXPECT_EQ(loopOf(p, "hs"), nest - 1);
}

TEST(Fusion, WeightWritingStatementsNeverMove)
{
    // x is read by the nest after the next one, so only part of the
    // edge loop could fold; a loop writing a weight is never split.
    const char *src = R"(model wvec_later
weight W etype din dout
weightvec w_a etype dout
input feature din
for e in g.edges():
    hs = typed_linear(e.src.feature, W[e.etype])
    a = dot_prd(e.hs, w_a[e.etype])
    x = exp(e.a)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        s += accumulate_sum(e.x)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_out += accumulate_scaled(e.x, e.hs)
output h_out
)";
    Program plain = parseModel(src, 8, 8);
    EXPECT_EQ(fuseLoops(plain).fusedLoops, 1);
    EXPECT_EQ(loopOf(plain, "x"), loopOf(plain, "s"));
    EXPECT_EQ(loopOf(plain, "hs"), 0);

    Program p = parseModel(src, 8, 8);
    Stmt wv;
    wv.kind = OpKind::WeightVecGrad;
    wv.out = {"w_a", Access::Direct};
    wv.ins = {{"a", Access::Direct}, {"hs", Access::Direct}};
    wv.weight = "w_a";
    wv.accumulateOut = true;
    p.loops[0].body.push_back(wv);
    const std::size_t loops = p.loops.size();
    EXPECT_EQ(fuseLoops(p).fusedLoops, 0);
    EXPECT_EQ(p.loops.size(), loops);
    EXPECT_EQ(p.loops[0].body.size(), 4u);
}

TEST(SelfLoopFold, RgcnAddFoldsIntoTheAggregation)
{
    // C+R RGCN: h_self's GEMM writes h_out, the aggregation adds into
    // it, and the add, h_agg and h_self are gone.
    Program p = models::buildRgcn(4, 8, 8);
    compactMaterialization(p);
    EXPECT_EQ(foldAddIntoAggregation(p, true).fusedLoops, 1);
    p.validate();
    EXPECT_FALSE(p.vars.count("h_agg"));
    EXPECT_FALSE(p.vars.count("h_self"));
    const Stmt *lin = producerOf(p, "h_out");
    ASSERT_NE(lin, nullptr);
    EXPECT_EQ(lin->kind, OpKind::TypedLinear);
    EXPECT_EQ(lin->weight, "W0");
    // msg's edge loop, the GEMM's node loop, then the nest.
    ASSERT_EQ(p.loops.size(), 3u);
    EXPECT_EQ(loopOf(p, "msg"), 0);
    EXPECT_EQ(loopOf(p, "h_out"), 1);
    ASSERT_EQ(p.loops[2].domain, LoopDomain::DstNodes);
    const Stmt &sum = p.loops[2].inner[0].body[0];
    EXPECT_EQ(sum.kind, OpKind::AccumulateScaled);
    EXPECT_EQ(sum.out.name, "h_out");
    EXPECT_TRUE(sum.sumFirst);

    // Lowered, the GEMM writes h_out first and the aggregation runs
    // as a register accumulator whose store adds into the row.
    const LoweredFunction fn = lower(p, {}, sim::Phase::Forward);
    ASSERT_EQ(fn.traversals.size(), 1u);
    ASSERT_EQ(fn.traversals[0].stmts.size(), 1u);
    EXPECT_TRUE(fn.traversals[0].stmts[0].addsOnStore());
    EXPECT_EQ(fn.order.back().kind, LoweredFunction::Step::Kind::Traversal);

    // The backward has no add: no copy of h_out_grad.
    const Program bp = buildBackward(p, false);
    EXPECT_FALSE(bp.vars.count(gradOf("h_agg")));
    EXPECT_FALSE(bp.vars.count(gradOf("h_self")));
    for (const auto &l : bp.loops)
        for (const auto &s : l.body)
            EXPECT_NE(s.kind, OpKind::AccumulateSum) << s.out.name;
}

TEST(SelfLoopFold, RefusedWhereTheAggregationIsAScatterGemm)
{
    // Base RGCN lowers msg and its aggregation into one scatter GEMM,
    // which sums in edge order: folding h_self in would change bits.
    Program base = models::buildRgcn(4, 8, 8);
    EXPECT_EQ(foldAddIntoAggregation(base, true).fusedLoops, 0);
    EXPECT_TRUE(base.vars.count("h_agg"));
    // Without that fusion the aggregation is a register sum again.
    EXPECT_EQ(foldAddIntoAggregation(base, false).fusedLoops, 1);
}

TEST(Fusion, KeepsSharedRowReadOutOfTheLoopScatteringIntoIt)
{
    // The edge-softmax backward: one loop scatters into
    // e.dst.att_sum_grad, the next reads it. Merged, the point-major
    // loop would read partial sums.
    for (Program fwd : {models::buildRgat(4, 8, 8),
                        models::buildHgt(3, 4, 8, 8)}) {
        Program bp = buildBackward(fwd, false);
        fuseLoops(bp);
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
