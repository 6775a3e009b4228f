/**
 * @file
 * Tests for lowering onto the two kernel templates: greedy operator
 * selection (GEMM preferred, traversal next, framework fallback
 * last), the RGCN GEMM+scatter fusion, compact row domains, access
 * scheme selection, and backward instance structure: weight-vector
 * gradients on the GEMM template after the instance writing their
 * scalar, and the split of an edge loop that scatters vector rows
 * under both group keys.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "core/compiler.hh"
#include "core/frontend.hh"
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
    // The aggregation is a traversal of its own, and the self-loop
    // add folds into it: h_self's GEMM writes h_out and the
    // aggregation's register store adds into it.
    ASSERT_EQ(m.forwardFn.traversals.size(), 1u);
    const TraversalInstance &agg = m.forwardFn.traversals[0];
    ASSERT_EQ(agg.stmts.size(), 1u);
    EXPECT_EQ(agg.stmts[0].stmt.kind, OpKind::AccumulateScaled);
    EXPECT_EQ(agg.stmts[0].stmt.out.name, "h_out");
    EXPECT_TRUE(agg.stmts[0].addsOnStore());
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
    // atts (compact) is computed over unique pairs, by the epilogue of
    // the hs GEMM that iterates them; attt (vanilla) in an Edges
    // traversal. No UniquePairs traversal is left.
    const GemmInstance &hs = m.forwardFn.gemms[0];
    EXPECT_EQ(hs.yVar, "hs");
    EXPECT_EQ(hs.rows, RowDomain::UniquePairs);
    ASSERT_EQ(hs.epilogue.size(), 1u);
    EXPECT_EQ(hs.epilogue[0].var, "atts");
    EXPECT_EQ(hs.epilogue[0].weight, "w_s");
    bool attt_seen = false;
    for (const auto &ti : m.forwardFn.traversals) {
        EXPECT_NE(ti.domain, RowDomain::UniquePairs) << ti.name;
        for (const auto &ss : ti.stmts)
            if (ss.stmt.out.name == "attt") {
                attt_seen = true;
                EXPECT_EQ(ti.domain, RowDomain::Edges);
            }
    }
    EXPECT_TRUE(attt_seen);
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

/** Position in @p fn.order of the traversal writing @p var, or -1. */
int
writerStep(const LoweredFunction &fn, const std::string &var)
{
    for (std::size_t i = 0; i < fn.order.size(); ++i) {
        const auto &step = fn.order[i];
        if (step.kind != LoweredFunction::Step::Kind::Traversal)
            continue;
        for (const auto &ss : fn.traversals[step.index].stmts)
            if (ss.stmt.out.name == var)
                return static_cast<int>(i);
    }
    return -1;
}

/** Position in @p fn.order of the outer GEMM summing @p weight's
 *  gradient, or -1. */
int
outerGemmStep(const LoweredFunction &fn, const std::string &weight)
{
    for (std::size_t i = 0; i < fn.order.size(); ++i) {
        const auto &step = fn.order[i];
        if (step.kind == LoweredFunction::Step::Kind::Gemm &&
            fn.gemms[step.index].kind == GemmKind::Outer &&
            fn.gemms[step.index].yVar == weight)
            return static_cast<int>(i);
    }
    return -1;
}

/** Every WeightVecGrad statement of @p p. */
std::vector<Stmt>
weightVecGrads(const Program &p)
{
    std::vector<Stmt> out;
    auto visit = [&](const Loop &l, auto &&self) -> void {
        for (const auto &s : l.body)
            if (s.kind == OpKind::WeightVecGrad)
                out.push_back(s);
        for (const auto &in : l.inner)
            self(in, self);
    };
    for (const auto &l : p.loops)
        visit(l, visit);
    return out;
}

/**
 * A WeightVecGrad of @p p lowered into @p fn: an outer GEMM with
 * din = 1 over the statement's own operands, after the instance that
 * writes its scalar; and no traversal holds one.
 */
void
expectWeightVecGemms(const Program &p, const LoweredFunction &fn,
                     const std::string &what)
{
    for (const auto &ti : fn.traversals)
        for (const auto &ss : ti.stmts)
            EXPECT_NE(ss.stmt.kind, OpKind::WeightVecGrad)
                << what << " " << ti.name;
    for (const Stmt &s : weightVecGrads(p)) {
        const int at = outerGemmStep(fn, s.weight);
        ASSERT_GE(at, 0) << what << " " << s.weight;
        const GemmInstance &gi =
            fn.gemms[fn.order[static_cast<std::size_t>(at)].index];
        EXPECT_EQ(gi.din, 1) << what << " " << s.weight;
        EXPECT_EQ(gi.dout, p.weightInfo(s.weight).cols) << what;
        EXPECT_EQ(gi.xVar, s.ins[0].name) << what;
        EXPECT_EQ(gi.y2Var, s.ins[1].name) << what;
        EXPECT_EQ(gi.yAccess, AccessScheme::Identity) << what;
        const int producer = writerStep(fn, s.ins[0].name);
        ASSERT_GE(producer, 0) << what << " " << s.ins[0].name;
        EXPECT_LT(producer, at) << what << " " << s.weight;
    }
}

TEST(Lowering, WeightVecGradsLowerToOuterGemmsAfterTheirScalar)
{
    int checked = 0;
    for (models::ModelKind mk :
         {models::ModelKind::Rgcn, models::ModelKind::Rgat,
          models::ModelKind::Hgt})
        for (bool optimized : {false, true}) {
            const auto m = compileModel(mk, optimized, optimized, true);
            const std::string what = std::string(models::toString(mk)) +
                                     (optimized ? "/C+R" : "/base");
            expectWeightVecGemms(m.backwardProgram, m.backwardFn, what);
            checked += static_cast<int>(
                weightVecGrads(m.backwardProgram).size());
        }
    EXPECT_EQ(checked, 4); // RGAT's w_s and w_t (w_t__W under C+R)

    // Under C+R, w_t__W sums attt_grad x e.dst.feature over edges,
    // gathering the feature row, and w_s over the compact pairs.
    const auto cr = compileModel(models::ModelKind::Rgat, true, true, true);
    const auto &fn = cr.backwardFn;
    const GemmInstance &wt =
        fn.gemms[fn.order[static_cast<std::size_t>(
                     outerGemmStep(fn, "w_t__W"))].index];
    EXPECT_EQ(wt.rows, RowDomain::Edges);
    EXPECT_EQ(wt.y2Access, AccessScheme::GatherDst);
    const GemmInstance &ws =
        fn.gemms[fn.order[static_cast<std::size_t>(
                     outerGemmStep(fn, "w_s"))].index];
    EXPECT_EQ(ws.rows, RowDomain::UniquePairs);
    EXPECT_EQ(ws.y2Access, AccessScheme::Identity);
}

TEST(Lowering, WeightVecGradInANestFollowsTheTraversal)
{
    // Fusion moves an edge loop holding a weight-vector gradient into
    // the aggregation nest that consumes its rows. The typed linear is
    // still extracted ahead of the nest; the gradient GEMM reads the
    // scalar the nest computes, so it follows it.
    graph::HeteroGraph g = graph::toyCitationGraph();
    Program p = parseModel(R"(model wvec_nest
weight W etype din dout
weightvec w_a etype dout
input feature din
for e in g.edges():
    hs = typed_linear(e.src.feature, W[e.etype])
    a = dot_prd(e.hs, w_a[e.etype])
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_out += accumulate_scaled(e.a, e.hs)
output h_out
)",
                           8, 8);
    Stmt wv;
    wv.kind = OpKind::WeightVecGrad;
    wv.out = {"w_a", Access::Direct};
    wv.ins = {{"a", Access::Direct}, {"hs", Access::Direct}};
    wv.weight = "w_a";
    wv.accumulateOut = true;
    p.loops[0].body.push_back(wv);
    fuseLoops(p);
    ASSERT_EQ(p.loops.size(), 1u);
    ASSERT_EQ(p.loops[0].domain, LoopDomain::DstNodes);

    const LoweredFunction fn = lower(p, {}, sim::Phase::Backward);
    ASSERT_EQ(fn.order.size(), 3u);
    EXPECT_EQ(fn.order[0].kind, LoweredFunction::Step::Kind::Gemm);
    EXPECT_EQ(fn.order[1].kind, LoweredFunction::Step::Kind::Traversal);
    EXPECT_EQ(fn.order[2].kind, LoweredFunction::Step::Kind::Gemm);
    expectWeightVecGemms(p, fn, "nest");

    // The GEMM sums a_e * hs_e by type segment, edges ascending.
    std::mt19937_64 rng(3);
    models::WeightMap weights = models::initWeights(p, g, rng);
    models::WeightMap grads;
    sim::Runtime rt;
    ExecutionContext ctx;
    ctx.reset(&g, nullptr, &rt, &weights, &grads);
    ctx.bindExternal("feature",
                     tensor::Tensor::uniform({g.numNodes(), 8}, rng, 0.5f));
    execute(p, fn, ctx);
    const tensor::Tensor &a = *ctx.lookup("a");
    const tensor::Tensor &hs = *ctx.lookup("hs");
    tensor::Tensor want({g.numEdgeTypes(), 8});
    for (std::int64_t e = 0; e < g.numEdges(); ++e) {
        const float av = a.at(e, 0);
        if (av == 0.0f)
            continue;
        float *row = want.row(g.etype()[static_cast<std::size_t>(e)]);
        for (std::int64_t j = 0; j < 8; ++j)
            row[j] += av * hs.at(e, j);
    }
    ASSERT_EQ(grads.count("w_a"), 1u);
    const tensor::Tensor &got = grads.at("w_a");
    ASSERT_EQ(got.numel(), want.numel());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.numel() * sizeof(float)),
              0);
}

/** The backward traversal of @p m writing @p var. */
const TraversalInstance *
backwardWriter(const CompiledModel &m, const std::string &var)
{
    const int at = writerStep(m.backwardFn, var);
    if (at < 0)
        return nullptr;
    return &m.backwardFn.traversals[m.backwardFn.order[
        static_cast<std::size_t>(at)].index];
}

/** Hoist level of @p var's writer in @p ti (-1 when absent). */
int
levelOf(const TraversalInstance &ti, const std::string &var)
{
    for (const auto &ss : ti.stmts)
        if (ss.stmt.out.name == var)
            return ss.hoistLevel;
    return -1;
}

TEST(Lowering, TwoKeyEdgeLoopSplitsVectorLosers)
{
    // HGT C+R: one backward edge loop sums q_grad through e.dst and
    // ka_grad into compact rows, 8 columns each. The node key wins the
    // tie; ka_grad moves to a pair-grouped instance right after it.
    const auto m = compileModel(models::ModelKind::Hgt, true, true, true);
    const TraversalInstance *q = backwardWriter(m, "q_grad");
    const TraversalInstance *ka = backwardWriter(m, "ka_grad");
    ASSERT_NE(q, nullptr);
    ASSERT_NE(ka, nullptr);
    ASSERT_NE(q, ka);
    EXPECT_EQ(q->group, GroupKey::DstNode);
    EXPECT_EQ(levelOf(*q, "q_grad"), 2);
    EXPECT_EQ(ka->group, GroupKey::UniquePair);
    EXPECT_EQ(levelOf(*ka, "ka_grad"), 2);
    ASSERT_EQ(ka->stmts.size(), 1u);
    // The pair instance reads the edge rows the node instance wrote.
    const int qs = writerStep(m.backwardFn, "q_grad");
    EXPECT_EQ(writerStep(m.backwardFn, "ka_grad"), qs + 1);
    for (const auto &in : ka->stmts[0].stmt.ins)
        if (m.backwardProgram.varInfo(in.name).space == VarSpace::EdgeData) {
            EXPECT_EQ(writerStep(m.backwardFn, in.name), qs) << in.name;
        }

    // A reader of ka_grad in the loop, a later writer of one of its
    // inputs, or another writer of ka_grad keeps the loop whole:
    // ka_grad then scatters from the node instance.
    const auto withProbe = [&](auto &&probe_of) {
        Program p = m.backwardProgram;
        p.declareVar("probe", {VarSpace::EdgeData, 8, false,
                               Materialization::Vanilla});
        for (auto &l : p.loops)
            for (auto it = l.body.begin(); it != l.body.end(); ++it)
                if (it->out.name == "ka_grad") {
                    const Stmt probe = probe_of(*it);
                    l.body.insert(it + 1, probe);
                    return lower(p, {}, sim::Phase::Backward);
                }
        ADD_FAILURE() << "no loop writes ka_grad";
        return LoweredFunction{};
    };
    const auto copy = [](VarRef out, VarRef in, bool accumulate) {
        Stmt s;
        s.kind = OpKind::Copy;
        s.out = out;
        s.ins = {in};
        s.accumulateOut = accumulate;
        return s;
    };
    const std::vector<std::pair<std::string, LoweredFunction>> refused = {
        {"reader", withProbe([&](const Stmt &) {
             return copy({"probe", Access::Direct},
                         {"ka_grad", Access::Direct}, false);
         })},
        {"later-input-writer", withProbe([&](const Stmt &ka) {
             return copy(ka.ins[0], ka.ins[0], true);
         })},
        {"other-writer", withProbe([&](const Stmt &) {
             return copy({"ka_grad", Access::Direct}, {"q", Access::ViaDst},
                         false);
         })},
    };
    for (const auto &[what, fn] : refused) {
        EXPECT_EQ(writerStep(fn, "ka_grad"), writerStep(fn, "q_grad"))
            << what;
        for (const auto &ti : fn.traversals)
            for (const auto &ss : ti.stmts)
                if (ss.stmt.out.name == "ka_grad") {
                    EXPECT_EQ(ti.group, GroupKey::DstNode) << what;
                    EXPECT_EQ(ss.hoistLevel, 0) << what;
                }
    }
}

TEST(Lowering, ScalarLosersAreNotSplit)
{
    // The edge-softmax backward sums the one-column att_sum_grad
    // through e.dst beside a compact vector gradient: it keeps its
    // atomics in the pair instance rather than cost a second walk.
    for (models::ModelKind mk :
         {models::ModelKind::Rgat, models::ModelKind::Hgt}) {
        const auto m = compileModel(mk, true, true, true);
        const std::string vec =
            mk == models::ModelKind::Rgat ? "hs_grad" : "msg_grad";
        const TraversalInstance *ti = backwardWriter(m, "att_sum_grad");
        ASSERT_NE(ti, nullptr);
        EXPECT_EQ(ti, backwardWriter(m, vec)) << vec;
        EXPECT_EQ(ti->group, GroupKey::UniquePair);
        EXPECT_EQ(levelOf(*ti, vec), 2);
        EXPECT_EQ(levelOf(*ti, "att_sum_grad"), 0);
    }
}

TEST(Lowering, RgatWeightVectorKernelsFoldIntoGemms)
{
    graph::HeteroGraph g = graph::toyCitationGraph();
    // The GEMM of @p fn carrying a folded term, or nullptr.
    auto folded = [](const LoweredFunction &fn) -> const GemmInstance * {
        for (const auto &gi : fn.gemms)
            if (!gi.epilogue.empty() || !gi.prologue.empty())
                return &gi;
        return nullptr;
    };
    // The flat traversal of @p fn writing @p var, or nullptr.
    auto flatWriter = [](const LoweredFunction &fn,
                         const std::string &var) -> const TraversalInstance * {
        for (const auto &ti : fn.traversals)
            for (const auto &ss : ti.stmts)
                if (!ti.grouped() && ss.stmt.out.name == var)
                    return &ti;
        return nullptr;
    };
    for (bool optimized : {false, true})
        for (bool feature_grad : {false, true}) {
            CompileOptions opts;
            opts.compactMaterialization = optimized;
            opts.linearReorder = optimized;
            opts.training = true;
            opts.featureGrad = feature_grad;
            const auto m =
                compile(models::buildModel(models::ModelKind::Rgat, g, 8, 8),
                        opts);
            const std::string plan = std::string(optimized ? "C+R" : "base") +
                                     (feature_grad ? "/dX" : "");
            // Forward: C+R computes atts in a flat pair kernel right after
            // the hs GEMM, which now stores it; base computes it inside
            // the grouped edge-softmax walk, which stays.
            const GemmInstance *fwd = folded(m.forwardFn);
            EXPECT_EQ(flatWriter(m.forwardFn, "atts"), nullptr) << plan;
            if (optimized) {
                ASSERT_NE(fwd, nullptr) << plan;
                EXPECT_EQ(fwd->yVar, "hs");
                ASSERT_EQ(fwd->epilogue.size(), 1u);
                EXPECT_EQ(fwd->epilogue[0].var, "atts");
                EXPECT_EQ(fwd->epilogue[0].weight, "w_s");
                EXPECT_TRUE(fwd->prologue.empty());
            } else {
                EXPECT_EQ(fwd, nullptr) << plan;
            }
            // Backward: hs_grad += atts_grad * w_s[etype] rides in the W
            // gradient's Outer GEMM, unless the dX GEMM also reads
            // hs_grad: then the flat kernel stays and nothing folds.
            const GemmInstance *bwd = folded(m.backwardFn);
            const TraversalInstance *add = flatWriter(m.backwardFn, "hs_grad");
            if (feature_grad) {
                EXPECT_EQ(bwd, nullptr) << plan;
                ASSERT_NE(add, nullptr) << plan;
                ASSERT_EQ(add->stmts.size(), 1u);
                EXPECT_EQ(add->stmts[0].stmt.kind, OpKind::AccumulateScaled);
                EXPECT_EQ(add->stmts[0].stmt.weight, "w_s");
                if (optimized)
                    EXPECT_EQ(add->name, "traversal_9");
            } else {
                EXPECT_EQ(add, nullptr) << plan;
                ASSERT_NE(bwd, nullptr) << plan;
                EXPECT_EQ(bwd->kind, GemmKind::Outer);
                EXPECT_EQ(bwd->y2Var, "hs_grad");
                EXPECT_EQ(bwd->wVar, "W");
                ASSERT_EQ(bwd->prologue.size(), 1u);
                EXPECT_EQ(bwd->prologue[0].var, "atts_grad");
                EXPECT_EQ(bwd->prologue[0].weight, "w_s");
                EXPECT_TRUE(bwd->epilogue.empty());
            }
        }
}

} // namespace
