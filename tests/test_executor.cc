/**
 * @file
 * Executor tests: single-instance semantics against direct tensor
 * math, access-scheme resolution, per-row scalar fusion, memory
 * accounting of variable materialization, and cost bookkeeping.
 */

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "core/executor.hh"
#include "graph/datasets.hh"
#include "models/models.hh"

namespace
{

using namespace hector;
using namespace hector::core;
using tensor::Tensor;

/** Minimal program declaring the variables an instance touches. */
Program
edgeProgram(std::int64_t din, std::int64_t dout, Materialization msg_mat)
{
    Program p;
    p.name = "synthetic";
    p.declareVar("feature", {VarSpace::NodeInput, din, false,
                             Materialization::Vanilla});
    p.declareVar("msg", {VarSpace::EdgeData, dout, false, msg_mat});
    p.declareVar("agg", {VarSpace::NodeData, dout, false,
                         Materialization::Vanilla});
    p.declareVar("scalar", {VarSpace::EdgeData, 1, false,
                            Materialization::Vanilla});
    p.declareWeight("W", {TypeBy::Etype, din, dout, false, true});
    p.outputVar = "msg";
    return p;
}

struct Env
{
    graph::HeteroGraph g = graph::toyCitationGraph();
    graph::CompactionMap cmap{g};
    sim::Runtime rt;
    models::WeightMap weights;
    models::WeightMap grads;
    ExecutionContext ctx;

    explicit Env(const Program &p)
    {
        std::mt19937_64 rng(17);
        weights = models::initWeights(p, g, rng);
        ctx.g = &g;
        ctx.cmap = &cmap;
        ctx.rt = &rt;
        ctx.weights = &weights;
        ctx.weightGrads = &grads;
        if (p.vars.count("feature")) {
            ctx.tensors.emplace(
                "feature",
                Tensor::uniform({g.numNodes(),
                                 p.varInfo("feature").cols},
                                rng, 0.5f));
        }
    }
};

GemmInstance
edgeGemm(const Program &p)
{
    GemmInstance gi;
    gi.kid = 1;
    gi.name = "g1";
    gi.rows = RowDomain::Edges;
    gi.xVar = "feature";
    gi.xAccess = AccessScheme::GatherSrc;
    gi.wVar = "W";
    gi.yVar = "msg";
    gi.din = p.varInfo("feature").cols;
    gi.dout = p.varInfo("msg").cols;
    return gi;
}

TEST(Executor, GemmGatherSrcMatchesManualComputation)
{
    Program p = edgeProgram(4, 3, Materialization::Vanilla);
    Env env(p);
    execGemm(p, edgeGemm(p), env.ctx);

    const Tensor &msg = env.ctx.tensors.at("msg");
    const Tensor &f = env.ctx.tensors.at("feature");
    const Tensor &w = env.weights.at("W");
    for (std::int64_t e = 0; e < env.g.numEdges(); ++e) {
        const std::int64_t s = env.g.src()[static_cast<std::size_t>(e)];
        const std::int64_t r = env.g.etype()[static_cast<std::size_t>(e)];
        for (std::int64_t j = 0; j < 3; ++j) {
            float acc = 0.0f;
            for (std::int64_t k = 0; k < 4; ++k)
                acc += f.at(s, k) * w.at(r, k, j);
            EXPECT_NEAR(msg.at(e, j), acc, 1e-5f) << e << "," << j;
        }
    }
    // One GEMM launch charged with the right FLOP count.
    const auto &b = env.rt.counters().bucket(sim::KernelCategory::Gemm,
                                             sim::Phase::Forward);
    EXPECT_EQ(b.launches, 1u);
    EXPECT_DOUBLE_EQ(b.flops,
                     2.0 * static_cast<double>(env.g.numEdges()) * 4 * 3);
}

TEST(Executor, GemmCompactDomainComputesPerUniquePair)
{
    Program p = edgeProgram(4, 3, Materialization::Compact);
    Env env(p);
    GemmInstance gi = edgeGemm(p);
    gi.rows = RowDomain::UniquePairs;
    gi.xAccess = AccessScheme::GatherUniqueSrc;
    execGemm(p, gi, env.ctx);

    const Tensor &msg = env.ctx.tensors.at("msg");
    EXPECT_EQ(msg.dim(0), env.cmap.numUnique());
    // Row u equals feature[uniqueSrc(u)] * W[etype(u)].
    const Tensor &f = env.ctx.tensors.at("feature");
    const Tensor &w = env.weights.at("W");
    for (std::int64_t e = 0; e < env.g.numEdges(); ++e) {
        const std::int64_t u =
            env.cmap.edgeToUnique()[static_cast<std::size_t>(e)];
        const std::int64_t s = env.g.src()[static_cast<std::size_t>(e)];
        const std::int64_t r = env.g.etype()[static_cast<std::size_t>(e)];
        for (std::int64_t j = 0; j < 3; ++j) {
            float acc = 0.0f;
            for (std::int64_t k = 0; k < 4; ++k)
                acc += f.at(s, k) * w.at(r, k, j);
            EXPECT_NEAR(msg.at(u, j), acc, 1e-5f);
        }
    }
}

TEST(Executor, GemmPerRowScalarAndDstScatter)
{
    Program p = edgeProgram(4, 3, Materialization::Vanilla);
    Env env(p);
    Tensor scalar({env.g.numEdges(), 1});
    for (std::int64_t e = 0; e < env.g.numEdges(); ++e)
        scalar.at(e, 0) = 0.5f + 0.1f * static_cast<float>(e);
    env.ctx.tensors.emplace("scalar", scalar.clone());

    GemmInstance gi = edgeGemm(p);
    gi.perRowScalarVar = "scalar";
    gi.yVar = "agg";
    gi.yAccess = AccessScheme::ScatterDstAtomic;
    gi.yAccumulate = true;
    execGemm(p, gi, env.ctx);

    // Expected: agg[v] = sum over incoming e of s_e * f[src(e)] W[r].
    const Tensor &agg = env.ctx.tensors.at("agg");
    const Tensor &f = env.ctx.tensors.at("feature");
    const Tensor &w = env.weights.at("W");
    Tensor expect({env.g.numNodes(), 3});
    for (std::int64_t e = 0; e < env.g.numEdges(); ++e) {
        const std::int64_t s = env.g.src()[static_cast<std::size_t>(e)];
        const std::int64_t d = env.g.dst()[static_cast<std::size_t>(e)];
        const std::int64_t r = env.g.etype()[static_cast<std::size_t>(e)];
        for (std::int64_t j = 0; j < 3; ++j) {
            float acc = 0.0f;
            for (std::int64_t k = 0; k < 4; ++k)
                acc += f.at(s, k) * w.at(r, k, j);
            expect.at(d, j) += scalar.at(e, 0) * acc;
        }
    }
    EXPECT_TRUE(tensor::allClose(agg, expect, 1e-4f));
    // Atomics were charged for the scatter.
    EXPECT_GT(env.rt.counters()
                  .bucket(sim::KernelCategory::Gemm, sim::Phase::Forward)
                  .atomics,
              0.0);
}

TEST(Executor, GemmTransposedWeightBackwardShape)
{
    Program p = edgeProgram(4, 3, Materialization::Vanilla);
    p.declareVar("msg_grad", {VarSpace::EdgeData, 3, false,
                              Materialization::Vanilla});
    p.declareVar("x_grad", {VarSpace::EdgeData, 4, false,
                            Materialization::Vanilla});
    Env env(p);
    std::mt19937_64 rng(23);
    env.ctx.tensors.emplace(
        "msg_grad", Tensor::uniform({env.g.numEdges(), 3}, rng, 1.0f));

    GemmInstance gi;
    gi.name = "dx";
    gi.rows = RowDomain::Edges;
    gi.xVar = "msg_grad";
    gi.xAccess = AccessScheme::Identity;
    gi.wVar = "W";
    gi.transW = true;
    gi.yVar = "x_grad";
    gi.din = 3;
    gi.dout = 4;
    execGemm(p, gi, env.ctx);

    const Tensor &gx = env.ctx.tensors.at("x_grad");
    const Tensor &gy = env.ctx.tensors.at("msg_grad");
    const Tensor &w = env.weights.at("W");
    for (std::int64_t e = 0; e < env.g.numEdges(); ++e) {
        const std::int64_t r = env.g.etype()[static_cast<std::size_t>(e)];
        for (std::int64_t k = 0; k < 4; ++k) {
            float acc = 0.0f;
            for (std::int64_t j = 0; j < 3; ++j)
                acc += gy.at(e, j) * w.at(r, k, j);
            EXPECT_NEAR(gx.at(e, k), acc, 1e-5f);
        }
    }
}

TEST(Executor, OuterGemmAccumulatesWeightGradients)
{
    Program p = edgeProgram(4, 3, Materialization::Vanilla);
    p.declareVar("msg_grad", {VarSpace::EdgeData, 3, false,
                              Materialization::Vanilla});
    Env env(p);
    std::mt19937_64 rng(29);
    env.ctx.tensors.emplace(
        "msg_grad", Tensor::uniform({env.g.numEdges(), 3}, rng, 1.0f));

    GemmInstance gi;
    gi.name = "dw";
    gi.kind = GemmKind::Outer;
    gi.rows = RowDomain::Edges;
    gi.xVar = "feature";
    gi.xAccess = AccessScheme::GatherSrc;
    gi.y2Var = "msg_grad";
    gi.wVar = "W";
    gi.yVar = "W";
    gi.din = 4;
    gi.dout = 3;
    execGemm(p, gi, env.ctx);

    ASSERT_TRUE(env.grads.count("W"));
    const Tensor &gw = env.grads.at("W");
    const Tensor &f = env.ctx.tensors.at("feature");
    const Tensor &gy = env.ctx.tensors.at("msg_grad");
    Tensor expect(gw.shape());
    for (std::int64_t e = 0; e < env.g.numEdges(); ++e) {
        const std::int64_t s = env.g.src()[static_cast<std::size_t>(e)];
        const std::int64_t r = env.g.etype()[static_cast<std::size_t>(e)];
        for (std::int64_t k = 0; k < 4; ++k)
            for (std::int64_t j = 0; j < 3; ++j)
                expect.at(r, k, j) += f.at(s, k) * gy.at(e, j);
    }
    EXPECT_TRUE(tensor::allClose(gw, expect, 1e-4f));
}

TEST(Executor, EnsureTensorSizesByMaterialization)
{
    Program p = edgeProgram(4, 3, Materialization::Compact);
    Env env(p);
    EXPECT_EQ(env.ctx.ensureTensor(p, "msg").dim(0),
              env.cmap.numUnique());
    EXPECT_EQ(env.ctx.ensureTensor(p, "agg").dim(0), env.g.numNodes());
    Program pv = edgeProgram(4, 3, Materialization::Vanilla);
    ExecutionContext ctx2;
    ctx2.g = &env.g;
    ctx2.cmap = &env.cmap;
    ctx2.rt = &env.rt;
    ctx2.weights = &env.weights;
    ctx2.weightGrads = &env.grads;
    EXPECT_EQ(ctx2.ensureTensor(pv, "msg").dim(0), env.g.numEdges());
}

TEST(Executor, VirtualVariableIsNeverMaterialized)
{
    Program p = edgeProgram(4, 3, Materialization::Virtual);
    Env env(p);
    EXPECT_THROW(env.ctx.ensureTensor(p, "msg"), std::runtime_error);
}

TEST(Executor, CompactDomainWithoutMapThrows)
{
    Program p = edgeProgram(4, 3, Materialization::Compact);
    Env env(p);
    env.ctx.cmap = nullptr;
    GemmInstance gi = edgeGemm(p);
    gi.rows = RowDomain::UniquePairs;
    EXPECT_THROW(execGemm(p, gi, env.ctx), std::runtime_error);
}

TEST(Executor, TraversalDotProductMatchesManual)
{
    Program p;
    p.name = "t";
    p.declareVar("a", {VarSpace::EdgeData, 5, false,
                       Materialization::Vanilla});
    p.declareVar("b", {VarSpace::EdgeData, 5, false,
                       Materialization::Vanilla});
    p.declareVar("d", {VarSpace::EdgeData, 1, false,
                       Materialization::Vanilla});
    p.outputVar = "d";
    Env env(p);
    std::mt19937_64 rng(31);
    env.ctx.tensors.emplace(
        "a", Tensor::uniform({env.g.numEdges(), 5}, rng, 1.0f));
    env.ctx.tensors.emplace(
        "b", Tensor::uniform({env.g.numEdges(), 5}, rng, 1.0f));

    TraversalInstance ti;
    ti.name = "t1";
    ti.domain = RowDomain::Edges;
    Stmt s;
    s.kind = OpKind::DotProduct;
    s.out = {"d", Access::Direct};
    s.ins = {{"a", Access::Direct}, {"b", Access::Direct}};
    ti.stmts.push_back({s, 0});
    ti.loads = operandLoads(p, ti);
    execTraversal(p, ti, env.ctx);

    const Tensor &a = env.ctx.tensors.at("a");
    const Tensor &b = env.ctx.tensors.at("b");
    const Tensor &d = env.ctx.tensors.at("d");
    for (std::int64_t e = 0; e < env.g.numEdges(); ++e) {
        float acc = 0.0f;
        for (std::int64_t k = 0; k < 5; ++k)
            acc += a.at(e, k) * b.at(e, k);
        EXPECT_NEAR(d.at(e, 0), acc, 1e-5f);
    }
    EXPECT_EQ(env.rt.counters()
                  .bucket(sim::KernelCategory::Traversal,
                          sim::Phase::Forward)
                  .launches,
              1u);
}

TEST(Executor, MemoryScopeCountsMaterializedVariables)
{
    Program p = edgeProgram(8, 8, Materialization::Vanilla);
    graph::HeteroGraph g = graph::toyCitationGraph();
    sim::Runtime rt;
    ExecutionContext ctx;
    graph::CompactionMap cmap(g);
    models::WeightMap w;
    models::WeightMap gr;
    ctx.g = &g;
    ctx.cmap = &cmap;
    ctx.rt = &rt;
    ctx.weights = &w;
    ctx.weightGrads = &gr;
    auto scope = rt.memoryScope();
    ctx.ensureTensor(p, "msg");
    EXPECT_EQ(rt.tracker().liveBytes(),
              static_cast<std::size_t>(g.numEdges()) * 8 * 4);
}

} // namespace
