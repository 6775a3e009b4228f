/**
 * @file
 * Tests for lowering onto the two kernel templates: greedy operator
 * selection (GEMM preferred, traversal next, framework fallback
 * last), the RGCN GEMM+scatter fusion, compact row domains, access
 * scheme selection, and backward instance structure.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "graph/datasets.hh"
#include "models/models.hh"

namespace
{

using namespace hector;
using namespace hector::core;

CompiledModel
compileModel(models::ModelKind m, bool compact, bool reorder,
             bool training = false)
{
    graph::HeteroGraph g = graph::toyCitationGraph();
    CompileOptions opts;
    opts.compactMaterialization = compact;
    opts.linearReorder = reorder;
    opts.training = training;
    return compile(models::buildModel(m, g, 8, 8), opts);
}

TEST(Lowering, RgcnFusesMessageGemmWithScatter)
{
    const auto m = compileModel(models::ModelKind::Rgcn, false, false);
    // One fused GEMM (message generation + scaled scatter), one
    // self-loop GEMM, one elementwise traversal: 3 kernels total.
    ASSERT_EQ(m.forwardFn.gemms.size(), 2u);
    EXPECT_EQ(m.forwardFn.traversals.size(), 1u);
    const GemmInstance &fused = m.forwardFn.gemms[0];
    EXPECT_NE(fused.name.find("fused_scatter"), std::string::npos);
    EXPECT_EQ(fused.perRowScalarVar, "norm");
    EXPECT_EQ(fused.yVar, "h_agg");
    EXPECT_EQ(fused.yAccess, AccessScheme::ScatterDstAtomic);
    EXPECT_TRUE(fused.yAccumulate);
    EXPECT_EQ(fused.xAccess, AccessScheme::GatherSrc);
}

TEST(Lowering, RgcnFusionDisabledProducesSeparateTraversal)
{
    graph::HeteroGraph g = graph::toyCitationGraph();
    CompileOptions opts;
    opts.fuseGemmScatter = false;
    const auto m = compile(models::buildRgcn(3, 8, 8), opts);
    for (const auto &gi : m.forwardFn.gemms)
        EXPECT_EQ(gi.name.find("fused_scatter"), std::string::npos);
    EXPECT_GE(m.forwardFn.traversals.size(), 2u);
}

TEST(Lowering, RgcnCompactionSwitchesMessageDomain)
{
    const auto m = compileModel(models::ModelKind::Rgcn, true, false);
    // With msg compact, the scatter fusion no longer applies; the
    // message GEMM iterates unique pairs instead of edges.
    const GemmInstance *msg_gemm = nullptr;
    for (const auto &gi : m.forwardFn.gemms)
        if (gi.yVar == "msg")
            msg_gemm = &gi;
    ASSERT_NE(msg_gemm, nullptr);
    EXPECT_EQ(msg_gemm->rows, RowDomain::UniquePairs);
    EXPECT_EQ(msg_gemm->xAccess, AccessScheme::GatherUniqueSrc);
}

TEST(Lowering, RgatUnoptimizedInstanceInventory)
{
    const auto m = compileModel(models::ModelKind::Rgat, false, false);
    // hs and ht GEMMs.
    EXPECT_EQ(m.forwardFn.gemms.size(), 2u);
    for (const auto &gi : m.forwardFn.gemms) {
        EXPECT_EQ(gi.rows, RowDomain::Edges);
        EXPECT_EQ(gi.kind, GemmKind::Linear);
    }
    EXPECT_EQ(m.forwardFn.gemms[0].xAccess, AccessScheme::GatherSrc);
    EXPECT_EQ(m.forwardFn.gemms[1].xAccess, AccessScheme::GatherDst);
    // No framework fallback in the unoptimized forward pass.
    EXPECT_EQ(m.forwardFn.fallbacks.size(), 0u);
    // Aggregation instances walk edges grouped by destination node
    // (the CSR).
    bool any_node_centric = false;
    for (const auto &ti : m.forwardFn.traversals)
        if (ti.group == GroupKey::DstNode) {
            any_node_centric = true;
            EXPECT_EQ(ti.domain, RowDomain::Edges);
        }
    EXPECT_TRUE(any_node_centric);
}

TEST(Lowering, RgatCompactSplitsTraversalDomains)
{
    const auto m = compileModel(models::ModelKind::Rgat, true, false);
    // atts (compact) must be computed in a UniquePairs traversal,
    // attt (vanilla) in an Edges traversal.
    bool unique_domain_seen = false;
    for (const auto &ti : m.forwardFn.traversals) {
        if (ti.domain == RowDomain::UniquePairs) {
            unique_domain_seen = true;
            for (const auto &ss : ti.stmts)
                EXPECT_EQ(ss.stmt.out.name, "atts");
        }
    }
    EXPECT_TRUE(unique_domain_seen);
    // The hs GEMM iterates unique pairs.
    const GemmInstance &hs = m.forwardFn.gemms[0];
    EXPECT_EQ(hs.yVar, "hs");
    EXPECT_EQ(hs.rows, RowDomain::UniquePairs);
}

TEST(Lowering, ReorderAddsFallbackCompose)
{
    const auto m = compileModel(models::ModelKind::Rgat, false, true);
    // ht GEMM eliminated: only the hs GEMM remains.
    ASSERT_EQ(m.forwardFn.gemms.size(), 1u);
    EXPECT_EQ(m.forwardFn.gemms[0].yVar, "hs");
    // The weight-weight product runs as a framework fallback.
    ASSERT_EQ(m.forwardFn.fallbacks.size(), 1u);
    EXPECT_EQ(m.forwardFn.fallbacks[0].stmt.kind, OpKind::ComposeMatVec);
    // Fallbacks execute before the loops (weight precompute).
    EXPECT_EQ(m.forwardFn.order.front().kind,
              LoweredFunction::Step::Kind::Fallback);
}

TEST(Lowering, HgtReorderEliminatesTwoProjections)
{
    const auto unopt = compileModel(models::ModelKind::Hgt, false, false);
    const auto reord = compileModel(models::ModelKind::Hgt, false, true);
    // Unopt: 3 nodewise projections + 2 edgewise GEMMs = 5.
    EXPECT_EQ(unopt.forwardFn.gemms.size(), 5u);
    // Reordered: q projection + 2 composed edgewise GEMMs = 3.
    EXPECT_EQ(reord.forwardFn.gemms.size(), 3u);
    EXPECT_EQ(reord.forwardFn.fallbacks.size(), 2u);
}

TEST(Lowering, NodewiseProjectionUsesNtypeSegments)
{
    const auto m = compileModel(models::ModelKind::Hgt, false, false);
    const GemmInstance &proj = m.forwardFn.gemms[0];
    EXPECT_EQ(proj.rows, RowDomain::Nodes);
    EXPECT_EQ(proj.typeBy, TypeBy::Ntype);
    EXPECT_EQ(proj.xAccess, AccessScheme::Identity);
}

TEST(Lowering, BackwardHasOuterProductGemms)
{
    const auto m =
        compileModel(models::ModelKind::Rgat, false, false, true);
    int outers = 0;
    for (const auto &gi : m.backwardFn.gemms)
        if (gi.kind == GemmKind::Outer)
            ++outers;
    // Weight gradients for W via hs and ht paths.
    EXPECT_GE(outers, 2);
    // dX GEMMs must not exist: features carry no gradient.
    for (const auto &gi : m.backwardFn.gemms) {
        if (gi.kind == GemmKind::Linear) {
            EXPECT_NE(gi.yVar, gradOf("feature"));
        }
    }
}

TEST(Lowering, BackwardCompactKeepsUniqueDomainForWeightGrads)
{
    const auto m = compileModel(models::ModelKind::Rgat, true, false,
                                true);
    // dW accumulated from the compact hs gradient iterates unique
    // pairs (fewer rows than edges).
    bool found = false;
    for (const auto &gi : m.backwardFn.gemms) {
        if (gi.kind == GemmKind::Outer &&
            gi.y2Var == gradOf("hs")) {
            EXPECT_EQ(gi.rows, RowDomain::UniquePairs);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Lowering, StmtDomainRules)
{
    graph::HeteroGraph g = graph::toyCitationGraph();
    Program p = models::buildRgat(g.numEdgeTypes(), 8, 8);
    compactMaterialization(p);

    const Stmt *hs = nullptr;
    const Stmt *attt = nullptr;
    for (const auto &l : p.loops)
        for (const auto &s : l.body) {
            if (s.out.name == "hs")
                hs = &s;
            if (s.out.name == "attt")
                attt = &s;
        }
    ASSERT_NE(hs, nullptr);
    ASSERT_NE(attt, nullptr);
    EXPECT_EQ(stmtDomain(p, *hs, LoopDomain::Edges),
              RowDomain::UniquePairs);
    EXPECT_EQ(stmtDomain(p, *attt, LoopDomain::Edges), RowDomain::Edges);
}

TEST(Lowering, KernelCountsOrderedByOptimization)
{
    // C+R must not need more kernels than unopt for RGAT (reorder
    // removes one GEMM, compaction only changes domains).
    const auto u = compileModel(models::ModelKind::Rgat, false, false);
    const auto cr = compileModel(models::ModelKind::Rgat, true, true);
    EXPECT_LE(cr.forwardFn.gemms.size(), u.forwardFn.gemms.size());
}

TEST(Lowering, OrderCoversEveryInstanceExactlyOnce)
{
    for (bool compact : {false, true}) {
        const auto m =
            compileModel(models::ModelKind::Hgt, compact, true, true);
        for (const LoweredFunction *fn :
             {&m.forwardFn, &m.backwardFn}) {
            std::size_t g = 0;
            std::size_t t = 0;
            std::size_t f = 0;
            for (const auto &step : fn->order) {
                switch (step.kind) {
                  case LoweredFunction::Step::Kind::Gemm:
                    EXPECT_EQ(step.index, g++);
                    break;
                  case LoweredFunction::Step::Kind::Traversal:
                    EXPECT_EQ(step.index, t++);
                    break;
                  case LoweredFunction::Step::Kind::Fallback:
                    EXPECT_EQ(step.index, f++);
                    break;
                }
            }
            EXPECT_EQ(g, fn->gemms.size());
            EXPECT_EQ(t, fn->traversals.size());
            EXPECT_EQ(f, fn->fallbacks.size());
        }
    }
}

} // namespace
