/**
 * @file
 * Determinism matrix of the parallel execution engine: for RGAT, RGCN
 * and HGT, inference and training, the blocked thread-pool kernels at
 * 1/2/4/7 threads must produce bit-identical outputs (and weight
 * gradients) to the seed's single-threaded scalar interpreter. Also
 * pins serving-drain determinism across thread counts, including the
 * modeled report (which depends only on kernel descriptors, never on
 * the host partitioning). Grouped aggregations accumulated in a
 * per-group register row (hoist level 2), forward by destination node
 * and backward by destination node or (src, etype) pair, are held to
 * the same oracle on degenerate graphs, and the cases lowering must
 * refuse keep the per-edge path. So are operand rows loaded once per
 * group, which must also match the same plan with every load read
 * per edge, and weight-vector rows loaded once per etype run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "core/compiler.hh"
#include "core/frontend.hh"
#include "core/lowering.hh"
#include "core/memory_plan.hh"
#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "graph/sampler.hh"
#include "models/models.hh"
#include "models/model_sources.hh"
#include "serve/session.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace hector;
using tensor::Tensor;

struct RunOutput
{
    std::vector<float> out;
    std::map<std::string, std::vector<float>> grads;
};

/** One run of @p m on @p g, with or without the arena memory plan. */
RunOutput
runCompiled(const core::CompiledModel &m, const graph::HeteroGraph &g,
            bool arena = false)
{
    const graph::CompactionMap cmap(g);
    std::mt19937_64 rng(123);
    models::WeightMap weights =
        models::initWeights(m.forwardProgram, g, rng);
    const Tensor feature = Tensor::uniform({g.numNodes(), 8}, rng, 0.5f);

    sim::Runtime rt;
    models::WeightMap grads;
    core::ExecutionContext ctx;
    ctx.reset(&g, &cmap, &rt, &weights, &grads);
    ctx.adoptPlan(arena ? &m.memoryPlan : nullptr);

    Tensor out;
    if (m.options.training)
        out = core::trainStep(m, ctx, feature);
    else {
        core::bindInputs(m, ctx, feature);
        out = m.forward(ctx);
    }

    RunOutput r;
    r.out.assign(out.data(), out.data() + out.numel());
    for (const auto &[name, t] : grads)
        r.grads.emplace(name, std::vector<float>(
                                  t.data(), t.data() + t.numel()));
    // The feature gradient, pinned in the arena, read after the step.
    const std::string fgrad = core::gradOf(m.forwardProgram.inputVar);
    if (const Tensor *t = ctx.lookup(fgrad))
        r.grads.emplace(fgrad, std::vector<float>(
                                   t->data(), t->data() + t->numel()));
    return r;
}

RunOutput
runModel(models::ModelKind mk, bool training, bool optimized)
{
    const graph::HeteroGraph g = graph::toyCitationGraph();
    core::CompileOptions opts;
    opts.training = training;
    if (optimized) {
        opts.compactMaterialization = true;
        opts.linearReorder = true;
    }
    return runCompiled(core::compile(models::buildModel(mk, g, 8, 8), opts),
                       g);
}

void
expectSame(const RunOutput &a, const RunOutput &b, const char *what)
{
    ASSERT_EQ(a.out.size(), b.out.size()) << what;
    EXPECT_EQ(std::memcmp(a.out.data(), b.out.data(),
                          a.out.size() * sizeof(float)),
              0)
        << what << ": outputs diverged";
    ASSERT_EQ(a.grads.size(), b.grads.size()) << what;
    for (const auto &[name, ga] : a.grads) {
        const auto it = b.grads.find(name);
        ASSERT_NE(it, b.grads.end()) << what << ": " << name;
        ASSERT_EQ(ga.size(), it->second.size()) << what << ": " << name;
        EXPECT_EQ(std::memcmp(ga.data(), it->second.data(),
                              ga.size() * sizeof(float)),
                  0)
            << what << ": gradient " << name << " diverged";
    }
}

class ExecDeterminism : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        util::setSeedKernelMode(false);
        util::setGlobalThreads(0);
    }
};

TEST_F(ExecDeterminism, MatrixModelsByModeByThreads)
{
    for (models::ModelKind mk :
         {models::ModelKind::Rgat, models::ModelKind::Rgcn,
          models::ModelKind::Hgt}) {
        for (bool training : {false, true}) {
            for (bool optimized : {false, true}) {
                // The oracle: the seed's sequential scalar kernels.
                util::setSeedKernelMode(true);
                util::setGlobalThreads(1);
                const RunOutput seed = runModel(mk, training, optimized);

                util::setSeedKernelMode(false);
                for (int threads : {1, 2, 4, 7}) {
                    util::setGlobalThreads(threads);
                    const RunOutput got =
                        runModel(mk, training, optimized);
                    const std::string what =
                        std::string(models::toString(mk)) +
                        (training ? "/train" : "/infer") +
                        (optimized ? "/C+R" : "/base") + "/t" +
                        std::to_string(threads);
                    expectSame(seed, got, what.c_str());
                }
            }
        }
    }
}

TEST_F(ExecDeterminism, PackedArenaMatchesNamedAtAnyThreadCount)
{
    // On a 128-seed am block the packer hands bytes of dead variables,
    // intermediate gradients included, to later ones. No output, weight
    // gradient or feature gradient may move a bit against the named
    // seed interpreter, at any thread count.
    const graph::HeteroGraph am =
        graph::generate(graph::datasetSpec("am"), 1.0 / 256.0);
    std::mt19937_64 rng(5);
    graph::SampleSpec spec;
    spec.numSeeds = 128;
    const graph::HeteroGraph g = graph::sampleNeighbors(am, spec, rng).subgraph;
    for (models::ModelKind mk :
         {models::ModelKind::Rgcn, models::ModelKind::Rgat,
          models::ModelKind::Hgt}) {
        for (bool optimized : {false, true}) {
            for (bool training : {false, true}) {
                core::CompileOptions opts;
                opts.compactMaterialization = optimized;
                opts.linearReorder = optimized;
                opts.training = training;
                opts.featureGrad = training;
                const core::CompiledModel m =
                    core::compile(models::buildModel(mk, g, 8, 8), opts);
                util::setSeedKernelMode(true);
                util::setGlobalThreads(1);
                const RunOutput named = runCompiled(m, g, false);
                if (training) {
                    ASSERT_EQ(named.grads.count(core::gradOf("feature")), 1u);
                }
                util::setSeedKernelMode(false);
                for (int threads : {1, 2, 4}) {
                    util::setGlobalThreads(threads);
                    const std::string what =
                        std::string(models::toString(mk)) +
                        (training ? "/train" : "/infer") +
                        (optimized ? "/C+R" : "/base") + "/packed/t" +
                        std::to_string(threads);
                    expectSame(named, runCompiled(m, g, true), what.c_str());
                }
            }
        }
    }
}

TEST_F(ExecDeterminism, ServingDrainIsThreadCountInvariant)
{
    const graph::HeteroGraph g =
        graph::generate(graph::datasetSpec("aifb"), 1.0 / 256.0);
    std::mt19937_64 frng(11);
    const Tensor host_features =
        Tensor::uniform({g.numNodes(), 16}, frng, 0.5f);

    auto drainOnce = [&](int threads) {
        util::setGlobalThreads(threads);
        sim::Runtime rt;
        serve::ServingConfig cfg;
        cfg.maxBatch = 4;
        cfg.numStreams = 2;
        cfg.din = 16;
        cfg.dout = 16;
        cfg.sample.numSeeds = 6;
        cfg.sample.fanout = 3;
        cfg.seed = 2024;
        serve::ServingSession session(g, host_features,
                                      models::kHgtSource, cfg, rt);
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 10; ++i)
            ids.push_back(session.submit());
        const serve::ServingReport rep = session.drain();
        std::vector<std::vector<float>> outs;
        for (std::uint64_t id : ids) {
            const Tensor *o = session.result(id);
            EXPECT_NE(o, nullptr);
            outs.emplace_back(o->data(), o->data() + o->numel());
        }
        return std::make_pair(rep, outs);
    };

    const auto [rep1, outs1] = drainOnce(1);
    for (int threads : {2, 4, 7}) {
        const auto [repN, outsN] = drainOnce(threads);
        ASSERT_EQ(outs1.size(), outsN.size());
        for (std::size_t i = 0; i < outs1.size(); ++i) {
            ASSERT_EQ(outs1[i].size(), outsN[i].size());
            EXPECT_EQ(std::memcmp(outs1[i].data(), outsN[i].data(),
                                  outs1[i].size() * sizeof(float)),
                      0)
                << "request " << i << " at " << threads << " threads";
        }
        // Modeled metrics come from kernel descriptors, not from how
        // the host partitioned the work.
        EXPECT_DOUBLE_EQ(rep1.makespanMs, repN.makespanMs);
        EXPECT_DOUBLE_EQ(rep1.meanLatencyMs, repN.meanLatencyMs);
        EXPECT_EQ(rep1.launches, repN.launches);
    }
}

/// @name Register-accumulated node-centric aggregation
/// @{

/**
 * Forward (and, for a training plan, the weight gradients) of @p m on
 * @p g at 1, 2 and 4 threads, with and without the arena, must be
 * bit-identical to the seed interpreter.
 */
void
expectMatchesSeed(const core::CompiledModel &m,
                         const graph::HeteroGraph &g, const std::string &what)
{
    for (bool arena : {false, true}) {
        util::setSeedKernelMode(true);
        util::setGlobalThreads(1);
        const RunOutput seed = runCompiled(m, g, arena);
        util::setSeedKernelMode(false);
        for (int threads : {1, 2, 4}) {
            util::setGlobalThreads(threads);
            const std::string tag = what + (arena ? "/arena" : "/named") +
                                    "/t" + std::to_string(threads);
            expectSame(seed, runCompiled(m, g, arena), tag.c_str());
        }
    }
}

/** Hoist level of the forward traversal statement writing @p var. */
int
hoistLevelOf(const core::CompiledModel &m, const std::string &var)
{
    for (const auto &ti : m.forwardFn.traversals)
        for (const auto &ss : ti.stmts)
            if (ss.stmt.out.name == var &&
                ti.group == core::GroupKey::DstNode)
                return ss.hoistLevel;
    return -1;
}

graph::HeteroGraph
makeGraph(std::vector<std::int32_t> node_type, int num_ntypes,
          std::vector<std::int32_t> src_nt, std::vector<std::int32_t> dst_nt,
          std::vector<graph::EdgeTriple> edges)
{
    const int num_etypes = static_cast<int>(src_nt.size());
    return graph::HeteroGraph(std::move(node_type), num_ntypes, num_etypes,
                              std::move(src_nt), std::move(dst_nt),
                              std::move(edges));
}

TEST_F(ExecDeterminism, RegisterAccumulationOnDegenerateGraphs)
{
    const std::vector<std::pair<std::string, graph::HeteroGraph>> graphs = {
        // Nodes 0, 5 and 6 have no in-edge; relation 3 has no edge.
        {"zero-in-degree+empty-relation",
         makeGraph({0, 1, 1, 2, 2, 2, 2}, 3, {0, 1, 2, 2}, {1, 2, 2, 0},
                   {{0, 1, 0}, {0, 2, 0}, {1, 3, 1}, {1, 4, 1}, {2, 4, 1},
                    {4, 3, 2}, {5, 3, 2}, {5, 4, 2}, {6, 4, 2}})},
        {"single-node", makeGraph({0}, 1, {0}, {0}, {{0, 0, 0}})},
        {"no-edges", makeGraph({0, 0, 1, 1}, 2, {0, 1}, {1, 0}, {})},
    };
    for (const auto &[gname, g] : graphs) {
        for (models::ModelKind mk :
             {models::ModelKind::Rgat, models::ModelKind::Rgcn,
              models::ModelKind::Hgt}) {
            for (bool optimized : {false, true}) {
                core::CompileOptions opts;
                opts.compactMaterialization = optimized;
                opts.linearReorder = optimized;
                const core::CompiledModel m =
                    core::compile(models::buildModel(mk, g, 8, 8), opts);
                // Every node-centric aggregation nest of these models
                // qualifies (base RGCN fuses its nest into a GEMM).
                bool node_centric = false;
                int marked = 0;
                for (const auto &ti : m.forwardFn.traversals) {
                    node_centric |= ti.group == core::GroupKey::DstNode;
                    for (const auto &ss : ti.stmts)
                        marked += ss.hoistLevel == 2;
                }
                const std::string what =
                    gname + "/" + models::toString(mk) +
                    (optimized ? "/C+R" : "/base");
                EXPECT_EQ(marked > 0, node_centric) << what;
                expectMatchesSeed(m, g, what);
            }
        }
    }
}

TEST_F(ExecDeterminism, RegisterAccumulationRefusalsKeepPerEdgePath)
{
    const graph::HeteroGraph g = graph::toyCitationGraph();
    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;

    // An accumulateOut aggregation that is its variable's first
    // writer adds to a slot that is zero on entry: it qualifies.
    {
        core::Program p = models::buildRgat(g.numEdgeTypes(), 8, 8);
        for (auto &loop : p.loops)
            for (auto &inner : loop.inner)
                for (auto &s : inner.body)
                    if (s.out.name == "h_out")
                        s.accumulateOut = true;
        const core::CompiledModel m = core::compile(std::move(p), opts);
        EXPECT_EQ(hoistLevelOf(m, "h_out"), 2);
        EXPECT_EQ(hoistLevelOf(m, "att_sum"), 2);
        expectMatchesSeed(m, g, "accumulateOut");
    }
    // Two writers: the first nest's slot is zero on entry, so it
    // qualifies; the second has an earlier writer and must add to the
    // first's sums in place.
    {
        const core::CompiledModel m = core::compile(
            core::parseModel(R"(model two_writers
weight W etype din dout
input feature din
for e in g.edges():
    msg = typed_linear(e.src.feature, W[e.etype])
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_out += accumulate_sum(e.msg)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_out += accumulate_sum(e.msg)
output h_out
)",
                             8, 8),
            opts);
        std::vector<int> levels;
        for (const auto &ti : m.forwardFn.traversals)
            for (const auto &ss : ti.stmts)
                if (ss.stmt.out.name == "h_out")
                    levels.push_back(ss.hoistLevel);
        EXPECT_EQ(levels, (std::vector<int>{2, 0}));
        expectMatchesSeed(m, g, "second-writer");
    }
    // A read inside the instance must see the partial per-edge sums.
    {
        const core::CompiledModel m = core::compile(
            core::parseModel(R"(model read_in_instance
weight W etype din dout
input feature din
for e in g.edges():
    msg = typed_linear(e.src.feature, W[e.etype])
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_sum += accumulate_sum(e.msg)
        z = mul(e.msg, e.dst.h_sum)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_out += accumulate_sum(e.z)
output h_out
)",
                             8, 8),
            opts);
        EXPECT_EQ(hoistLevelOf(m, "h_sum"), 0);
        EXPECT_EQ(hoistLevelOf(m, "h_out"), 2);
        expectMatchesSeed(m, g, "read-in-instance");
    }
}

/**
 * Variables the backward of @p m accumulates in a register row, each
 * with the key of its instance's grouping.
 */
std::map<std::string, core::GroupKey>
backwardRegisterVars(const core::CompiledModel &m)
{
    std::map<std::string, core::GroupKey> out;
    for (const auto &ti : m.backwardFn.traversals)
        for (const auto &ss : ti.stmts)
            if (ss.hoistLevel == 2)
                out[ss.stmt.out.name] = ti.group;
    return out;
}

/**
 * Graphs the grouped walks are held to the seed on: one with many
 * edges per group, and degenerate ones.
 */
std::vector<std::pair<std::string, graph::HeteroGraph>>
groupedWalkGraphs()
{
    std::vector<std::pair<std::string, graph::HeteroGraph>> graphs;
    // Most nodes have several in-edges; many pairs several edges.
    graphs.emplace_back("am/4096", graph::generate(graph::datasetSpec("am"),
                                                   1.0 / 4096.0));
    // Nodes 0, 5 and 6 have no in-edge; relation 3 has no edge;
    // pair (2, relation 1) has one edge, (0, relation 0) two.
    graphs.emplace_back(
        "zero-in-degree+empty-relation",
        makeGraph({0, 1, 1, 2, 2, 2, 2}, 3, {0, 1, 2, 2}, {1, 2, 2, 0},
                  {{0, 1, 0}, {0, 2, 0}, {1, 3, 1}, {1, 4, 1}, {2, 4, 1},
                   {4, 3, 2}, {5, 3, 2}, {5, 4, 2}, {6, 4, 2}}));
    graphs.emplace_back("single-node",
                        makeGraph({0}, 1, {0}, {0}, {{0, 0, 0}}));
    graphs.emplace_back("no-edges",
                        makeGraph({0, 0, 1, 1}, 2, {0, 1}, {1, 0}, {}));
    // Node 0's in-edges span all four etypes, in runs of 1, 2, 1 and
    // 3 edges; node 1 has one run of etype 1 and one of etype 3.
    graphs.emplace_back(
        "one-node-every-etype",
        makeGraph({0, 0, 0, 0, 0}, 1, {0, 0, 0, 0}, {0, 0, 0, 0},
                  {{3, 0, 3}, {1, 0, 0}, {2, 0, 1}, {4, 0, 3}, {3, 0, 1},
                   {2, 0, 3}, {4, 0, 2}, {0, 1, 1}, {2, 1, 3}}));
    return graphs;
}

/** Names of the kernels one training step of @p m launches on @p g. */
std::set<std::string>
launchedKernels(const core::CompiledModel &m, const graph::HeteroGraph &g)
{
    const graph::CompactionMap cmap(g);
    std::mt19937_64 rng(123);
    models::WeightMap weights =
        models::initWeights(m.forwardProgram, g, rng);
    const Tensor feature = Tensor::uniform({g.numNodes(), 8}, rng, 0.5f);
    sim::Runtime rt;
    rt.setRecordLaunches(true);
    models::WeightMap grads;
    core::ExecutionContext ctx;
    ctx.reset(&g, &cmap, &rt, &weights, &grads);
    core::trainStep(m, ctx, feature);
    std::set<std::string> out;
    for (const auto &r : rt.records())
        out.insert(r.name);
    return out;
}

TEST_F(ExecDeterminism, SplitEdgeLoopShapesMatchSeed)
{
    // HGT C+R training splits the edge loop writing q_grad and ka_grad
    // in two walks. On a 128-seed am block, where nearly every (src,
    // etype) pair has one edge, the merged walk prices less and runs;
    // on mag, with about 16 edges per pair, the two halves do. Either
    // shape is bit-identical to the seed interpreter at 1, 2 and 4
    // threads, with named and with arena-backed variables.
    std::mt19937_64 rng(7);
    graph::SampleSpec spec;
    spec.numSeeds = 128;
    spec.fanout = 4;
    const std::pair<graph::HeteroGraph, bool> cases[] = {
        {graph::sampleNeighbors(
             graph::generate(graph::datasetSpec("am"), 1.0 / 256.0), spec,
             rng)
             .subgraph,
         false},
        {graph::generate(graph::datasetSpec("mag"), 1.0 / 256.0), true},
    };
    for (const auto &[g, split] : cases) {
        core::CompileOptions opts;
        opts.training = true;
        opts.compactMaterialization = true;
        opts.linearReorder = true;
        const core::CompiledModel m = core::compile(
            models::buildModel(models::ModelKind::Hgt, g, 8, 8), opts);
        const core::LoweredFunction &fn = m.backwardFn;
        std::string first, second, merged;
        for (std::size_t i = 0; i < fn.order.size(); ++i)
            if (fn.foldsIntoPrevious(i)) {
                const auto &a = fn.traversals[fn.order[i - 1].index];
                const auto &b = fn.traversals[fn.order[i].index];
                first = a.name;
                second = b.name;
                merged = core::mergedTraversal(m.backwardProgram, a, b).name;
            }
        ASSERT_FALSE(merged.empty());
        const std::set<std::string> ran = launchedKernels(m, g);
        const std::string edges = std::to_string(g.numEdges()) + " edges";
        EXPECT_EQ(ran.count(first), split ? 1u : 0u) << edges;
        EXPECT_EQ(ran.count(second), split ? 1u : 0u) << edges;
        EXPECT_EQ(ran.count(merged), split ? 0u : 1u) << edges;

        util::setSeedKernelMode(true);
        const RunOutput ref = runCompiled(m, g);
        util::setSeedKernelMode(false);
        for (int threads : {1, 2, 4}) {
            util::setGlobalThreads(threads);
            const std::string what =
                edges + ", " + std::to_string(threads) + " threads";
            expectSame(ref, runCompiled(m, g), what.c_str());
            expectSame(ref, runCompiled(m, g, true),
                       (what + ", arena").c_str());
        }
    }
}

TEST_F(ExecDeterminism, GroupedBackwardMatchesSeed)
{
    using Key = core::GroupKey;
    const auto graphs = groupedWalkGraphs();
    // Lowering is graph-independent: what each plan groups.
    const std::map<std::string, std::map<std::string, Key>> expected = {
        {"RGCN/base", {}},
        {"RGCN/C+R", {{"msg_grad", Key::UniquePair}}},
        {"RGAT/base", {{"att_sum_grad", Key::DstNode}}},
        {"RGAT/C+R",
         {{"hs_grad", Key::UniquePair}, {"atts_grad", Key::UniquePair}}},
        {"HGT/base", {{"att_sum_grad", Key::DstNode}, {"q_grad", Key::DstNode}}},
        {"HGT/C+R",
         {{"msg_grad", Key::UniquePair},
          {"q_grad", Key::DstNode},
          {"ka_grad", Key::UniquePair}}},
    };
    for (const auto &[gname, g] : graphs) {
        for (models::ModelKind mk :
             {models::ModelKind::Rgcn, models::ModelKind::Rgat,
              models::ModelKind::Hgt}) {
            for (bool optimized : {false, true}) {
                core::CompileOptions opts;
                opts.compactMaterialization = optimized;
                opts.linearReorder = optimized;
                opts.training = true;
                const core::CompiledModel m =
                    core::compile(models::buildModel(mk, g, 8, 8), opts);
                const std::string plan = std::string(models::toString(mk)) +
                                         (optimized ? "/C+R" : "/base");
                EXPECT_EQ(backwardRegisterVars(m), expected.at(plan)) << plan;
                expectMatchesSeed(m, g, gname + "/" + plan);
            }
        }
    }
}

/** The variables @p m keeps in registers only, in either direction. */
std::set<std::string>
registerVars(const core::CompiledModel &m)
{
    std::set<std::string> out;
    for (const auto *fn : {&m.forwardFn, &m.backwardFn})
        for (const auto &ti : fn->traversals)
            out.insert(ti.virtualVars.begin(), ti.virtualVars.end());
    return out;
}

/** Outputs of @p m's forward aggregations that add on their store. */
std::set<std::string>
addingStores(const core::CompiledModel &m)
{
    std::set<std::string> out;
    for (const auto &ti : m.forwardFn.traversals)
        for (const auto &ss : ti.stmts)
            if (ss.addsOnStore())
                out.insert(ss.stmt.out.name);
    return out;
}

/** @p m with every virtual variable materialized again. */
core::CompiledModel
materialized(core::CompiledModel m)
{
    const std::pair<core::Program *, core::LoweredFunction *> dirs[] = {
        {&m.forwardProgram, &m.forwardFn},
        {&m.backwardProgram, &m.backwardFn}};
    for (const auto &[p, fn] : dirs) {
        for (auto &[name, vi] : p->vars)
            if (vi.mat == core::Materialization::Virtual)
                vi.mat = core::Materialization::Vanilla;
        for (auto &ti : fn->traversals) {
            ti.virtualVars.clear();
            ti.loads = core::operandLoads(*p, ti);
        }
    }
    m.memoryPlan = core::planMemory(m.forwardProgram, m.forwardFn,
                                    &m.backwardProgram, &m.backwardFn);
    return m;
}

TEST_F(ExecDeterminism, RegisterValuesMatchSeedAndMaterializedRows)
{
    const auto graphs = groupedWalkGraphs();
    // Lowering is graph-independent: which edge temporaries each
    // training plan keeps in registers.
    const std::map<std::string, std::set<std::string>> expected = {
        {"RGCN/base", {}},
        {"RGCN/C+R", {}},
        {"RGAT/base",
         {"atts", "attt", "att", "att_n_grad", "att_grad", "att_raw_grad"}},
        {"RGAT/C+R",
         {"attt", "att", "att_n_grad", "att_grad", "att_raw_grad"}},
        {"HGT/base", {"att_dot", "att", "att_n_grad", "att_dot_grad"}},
        {"HGT/C+R", {"att_dot", "att", "att_n_grad"}},
    };
    for (const auto &[gname, g] : graphs) {
        for (models::ModelKind mk :
             {models::ModelKind::Rgcn, models::ModelKind::Rgat,
              models::ModelKind::Hgt}) {
            for (bool optimized : {false, true}) {
                core::CompileOptions opts;
                opts.compactMaterialization = optimized;
                opts.linearReorder = optimized;
                opts.training = true;
                const core::CompiledModel m =
                    core::compile(models::buildModel(mk, g, 8, 8), opts);
                const std::string plan = std::string(models::toString(mk)) +
                                         (optimized ? "/C+R" : "/base");
                EXPECT_EQ(registerVars(m), expected.at(plan)) << plan;
                EXPECT_EQ(addingStores(m),
                          plan == "RGCN/C+R" ? std::set<std::string>{"h_out"}
                                             : std::set<std::string>{})
                    << plan;
                const std::string what = gname + "/" + plan;
                expectMatchesSeed(m, g, what);
                // Registers hold what the rows held: a virtual `+=`
                // output restarts at +0 as its zeroed row did.
                util::setSeedKernelMode(true);
                util::setGlobalThreads(1);
                expectSame(runCompiled(materialized(m), g, true),
                           runCompiled(m, g, true),
                           (what + "/materialized").c_str());
                util::setSeedKernelMode(false);
            }
        }
    }
}

/**
 * @p m with its backward program edited by @p edit, then lowered and
 * memory-planned again.
 */
template <typename Edit>
core::CompiledModel
withBackwardEdit(core::CompiledModel m, Edit &&edit)
{
    edit(m.backwardProgram);
    m.backwardFn = core::lower(m.backwardProgram, {}, sim::Phase::Backward,
                               static_cast<int>(m.forwardFn.kernelCount()) +
                                   1);
    m.memoryPlan = core::planMemory(m.forwardProgram, m.forwardFn,
                                    &m.backwardProgram, &m.backwardFn);
    return m;
}

/** Index of the backward loop whose body writes @p var. */
std::size_t
loopWriting(const core::Program &p, const std::string &var)
{
    for (std::size_t i = 0; i < p.loops.size(); ++i)
        for (const auto &s : p.loops[i].body)
            if (s.out.name == var)
                return i;
    ADD_FAILURE() << "no loop writes " << var;
    return 0;
}

/** Hoist levels of the backward statements writing @p var, in order. */
std::vector<int>
backwardLevelsOf(const core::CompiledModel &m, const std::string &var)
{
    std::vector<int> out;
    for (const auto &step : m.backwardFn.order)
        if (step.kind == core::LoweredFunction::Step::Kind::Traversal)
            for (const auto &ss : m.backwardFn.traversals[step.index].stmts)
                if (ss.stmt.out.name == var)
                    out.push_back(ss.hoistLevel);
    return out;
}

TEST_F(ExecDeterminism, GroupedBackwardRefusalsKeepPerEdgePath)
{
    const graph::HeteroGraph g =
        graph::generate(graph::datasetSpec("am"), 1.0 / 4096.0);
    core::CompileOptions opts;
    opts.training = true;
    core::CompileOptions cr = opts;
    cr.compactMaterialization = true;
    cr.linearReorder = true;
    const core::CompiledModel rgcn =
        core::compile(models::buildModel(models::ModelKind::Rgcn, g, 8, 8),
                      cr);
    const core::CompiledModel hgt =
        core::compile(models::buildModel(models::ModelKind::Hgt, g, 8, 8),
                      opts);
    ASSERT_EQ(backwardLevelsOf(rgcn, "msg_grad"), (std::vector<int>{2}));
    ASSERT_EQ(backwardLevelsOf(hgt, "q_grad"), (std::vector<int>{2}));

    // An earlier writer: the later instance must add to its sums.
    {
        const core::CompiledModel m =
            withBackwardEdit(rgcn, [](core::Program &p) {
                const std::size_t i = loopWriting(p, "msg_grad");
                p.loops.insert(p.loops.begin() + static_cast<long>(i),
                               p.loops[i]);
            });
        EXPECT_EQ(backwardLevelsOf(m, "msg_grad"), (std::vector<int>{2, 0}));
        expectMatchesSeed(m, g, "earlier-writer/pair");
    }
    // A reader inside the instance sees the partial per-edge sums, by
    // pair (a compact row) and by node (through e.dst).
    const std::vector<std::tuple<const core::CompiledModel *, std::string,
                                 core::Access, core::GroupKey>>
        readers = {
            {&rgcn, "msg_grad", core::Access::Direct,
             core::GroupKey::UniquePair},
            {&hgt, "q_grad", core::Access::ViaDst, core::GroupKey::DstNode},
        };
    for (const auto &[base, var, access, key] : readers) {
        const core::CompiledModel m =
            withBackwardEdit(*base, [&](core::Program &p) {
                p.declareVar("probe", {core::VarSpace::EdgeData, 8, false,
                                       core::Materialization::Vanilla});
                auto &body = p.loops[loopWriting(p, var)].body;
                for (auto it = body.begin(); it != body.end(); ++it)
                    if (it->out.name == var) {
                        core::Stmt probe;
                        probe.kind = core::OpKind::Copy;
                        probe.out = {"probe", core::Access::Direct};
                        probe.ins = {{var, access}};
                        body.insert(it + 1, probe);
                        break;
                    }
            });
        EXPECT_EQ(backwardLevelsOf(m, var), (std::vector<int>{0})) << var;
        bool grouped = false;
        for (const auto &ti : m.backwardFn.traversals)
            for (const auto &ss : ti.stmts)
                grouped |= ss.stmt.out.name == "probe" && ti.group == key;
        EXPECT_TRUE(grouped) << var;
        expectMatchesSeed(m, g, "reader/" + var);
    }
}

/// @}

/// @name Operand loads hoisted out of the edge loop
/// @{

/** Rows of @p fn loaded once per group, as "<dir>:dst.q" or "<dir>:hs". */
std::set<std::string>
hoistedLoads(const core::LoweredFunction &fn, const char *dir)
{
    std::set<std::string> out;
    for (const auto &ti : fn.traversals)
        for (const auto &l : ti.loads)
            if (ti.hoisted(l))
                out.insert(std::string(dir) + ":" +
                           (l.access == core::Access::ViaDst ? "dst." : "") +
                           l.var);
    return out;
}

/** True when every statement of @p ti writes only its own edge's row. */
bool
writesOnlyEdgeRows(const core::Program &p, const core::TraversalInstance &ti)
{
    for (const auto &ss : ti.stmts) {
        if (!p.vars.count(ss.stmt.out.name))
            return false;
        const auto &vi = p.varInfo(ss.stmt.out.name);
        if (vi.space != core::VarSpace::EdgeData ||
            vi.mat == core::Materialization::Compact)
            return false;
    }
    return true;
}

/**
 * @p m with every operand load read per edge, and the edge loops that
 * are grouped only to load an e.dst row once walked flat: the per-edge
 * reference the hoisted plan must match bit for bit.
 */
core::CompiledModel
perEdgeLoadPlan(core::CompiledModel m)
{
    auto flatten = [](const core::Program &p, core::LoweredFunction &fn) {
        for (auto &ti : fn.traversals) {
            if (ti.group == core::GroupKey::DstNode &&
                writesOnlyEdgeRows(p, ti))
                ti.group = core::GroupKey::None;
            for (auto &l : ti.loads)
                l.rate = core::LoadRate::PerEdge;
        }
    };
    flatten(m.forwardProgram, m.forwardFn);
    flatten(m.backwardProgram, m.backwardFn);
    return m;
}

TEST_F(ExecDeterminism, HoistedLoadsMatchSeedAndPerEdgePlan)
{
    const auto graphs = groupedWalkGraphs();
    // Lowering is graph-independent: the rows each training plan
    // loads once per group. Compact rows under a node group, e.src
    // rows, e.dst rows under a pair group and rows the instance
    // writes stay per edge.
    const std::map<std::string, std::set<std::string>> expected = {
        {"RGCN/base", {"bwd:dst.h_agg_grad"}},
        {"RGCN/C+R", {}},
        {"RGAT/base",
         {"fwd:dst.att_sum", "bwd:dst.h_out_grad", "bwd:dst.att_sum",
          "bwd:dst.att_sum_grad"}},
        {"RGAT/C+R", {"fwd:dst.feature", "fwd:dst.att_sum", "bwd:hs"}},
        {"HGT/base",
         {"fwd:dst.q", "fwd:dst.att_sum", "bwd:dst.h_out_grad",
          "bwd:dst.att_sum", "bwd:dst.att_sum_grad", "bwd:dst.q"}},
        {"HGT/C+R",
         {"fwd:dst.q", "fwd:dst.att_sum", "bwd:msg", "bwd:dst.att_sum_grad"}},
    };
    for (const auto &[gname, g] : graphs) {
        for (models::ModelKind mk :
             {models::ModelKind::Rgcn, models::ModelKind::Rgat,
              models::ModelKind::Hgt}) {
            for (bool optimized : {false, true}) {
                for (bool training : {false, true}) {
                    core::CompileOptions opts;
                    opts.compactMaterialization = optimized;
                    opts.linearReorder = optimized;
                    opts.training = training;
                    const core::CompiledModel m = core::compile(
                        models::buildModel(mk, g, 8, 8), opts);
                    const std::string plan =
                        std::string(models::toString(mk)) +
                        (optimized ? "/C+R" : "/base");
                    std::set<std::string> got =
                        hoistedLoads(m.forwardFn, "fwd");
                    std::set<std::string> want;
                    for (const auto &h : expected.at(plan))
                        if (training || h.rfind("fwd:", 0) == 0)
                            want.insert(h);
                    if (training)
                        got.merge(hoistedLoads(m.backwardFn, "bwd"));
                    EXPECT_EQ(got, want) << plan;

                    const std::string what = gname + "/" + plan +
                                             (training ? "/train" : "/infer");
                    expectMatchesSeed(m, g, what);
                    const core::CompiledModel per_edge = perEdgeLoadPlan(m);
                    util::setGlobalThreads(1);
                    for (bool arena : {false, true})
                        expectSame(runCompiled(per_edge, g, arena),
                                   runCompiled(m, g, arena),
                                   (what + "/per-edge-plan").c_str());
                }
            }
        }
    }
}

/**
 * Weight vectors @p fn reads, as "<dir>:<weight>@run" when a grouped
 * walk loads the row once per etype run, "<dir>:<weight>@edge" when a
 * flat one loads it per row.
 */
std::set<std::string>
weightLoads(const core::LoweredFunction &fn, const char *dir)
{
    std::set<std::string> out;
    for (const auto &ti : fn.traversals)
        for (const auto &l : ti.loads)
            if (l.weight)
                out.insert(std::string(dir) + ":" + l.var +
                           (ti.rateOf(l) == core::LoadRate::PerRun
                                ? "@run"
                                : "@edge"));
    return out;
}

TEST_F(ExecDeterminism, WeightRunLoadsMatchSeed)
{
    const auto graphs = groupedWalkGraphs();
    // Lowering is graph-independent: what each plan loads how often.
    const std::map<std::string, std::set<std::string>> expected = {
        {"RGCN/base", {}},
        {"RGCN/C+R", {}},
        {"RGAT/base",
         {"fwd:w_s@run", "fwd:w_t@run", "bwd:w_t@run", "bwd:w_s@edge"}},
        {"RGAT/C+R", {"fwd:w_s@edge", "fwd:w_t__W@run", "bwd:w_s@edge"}},
        {"HGT/base", {}},
        {"HGT/C+R", {}},
    };
    for (const auto &[gname, g] : graphs) {
        for (models::ModelKind mk :
             {models::ModelKind::Rgcn, models::ModelKind::Rgat,
              models::ModelKind::Hgt}) {
            for (bool optimized : {false, true}) {
                for (bool training : {false, true}) {
                    core::CompileOptions opts;
                    opts.compactMaterialization = optimized;
                    opts.linearReorder = optimized;
                    opts.training = training;
                    const core::CompiledModel m = core::compile(
                        models::buildModel(mk, g, 8, 8), opts);
                    const std::string plan =
                        std::string(models::toString(mk)) +
                        (optimized ? "/C+R" : "/base");
                    std::set<std::string> got =
                        weightLoads(m.forwardFn, "fwd");
                    std::set<std::string> want;
                    for (const auto &w : expected.at(plan))
                        if (training || w.rfind("fwd:", 0) == 0)
                            want.insert(w);
                    if (training)
                        got.merge(weightLoads(m.backwardFn, "bwd"));
                    EXPECT_EQ(got, want) << plan;
                    expectMatchesSeed(m, g,
                                      gname + "/" + plan +
                                          (training ? "/train" : "/infer"));
                }
            }
        }
    }
}

/** The forward instance of @p m whose statements write @p var. */
const core::TraversalInstance *
forwardWriter(const core::CompiledModel &m, const std::string &var)
{
    for (const auto &ti : m.forwardFn.traversals)
        for (const auto &ss : ti.stmts)
            if (ss.stmt.out.name == var)
                return &ti;
    ADD_FAILURE() << "no forward instance writes " << var;
    return nullptr;
}

/** True when @p ti loads (@p var, @p access) once per group. */
bool
loadsPerGroup(const core::TraversalInstance &ti, const std::string &var,
              core::Access access)
{
    const core::OperandLoad *l = ti.loadOf({var, access});
    EXPECT_NE(l, nullptr) << ti.name << " does not read " << var;
    return l && ti.hoisted(*l);
}

TEST_F(ExecDeterminism, HoistRefusalsKeepPerEdgeLoads)
{
    const graph::HeteroGraph g = graph::toyCitationGraph();
    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;
    using core::Access;

    // A row the instance writes is read per edge: h_sum is still
    // being summed while z reads it through e.dst.
    {
        const core::CompiledModel m = core::compile(
            core::parseModel(R"(model read_in_instance
weight W etype din dout
input feature din
for e in g.edges():
    msg = typed_linear(e.src.feature, W[e.etype])
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_sum += accumulate_sum(e.msg)
        z = mul(e.msg, e.dst.h_sum)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_out += accumulate_sum(e.z)
output h_out
)",
                             8, 8),
            opts);
        const core::TraversalInstance *ti = forwardWriter(m, "z");
        ASSERT_NE(ti, nullptr);
        EXPECT_EQ(ti->group, core::GroupKey::DstNode);
        EXPECT_FALSE(loadsPerGroup(*ti, "h_sum", Access::ViaDst));
        expectMatchesSeed(m, g, "written-operand");
    }
    // Under a node group, an e.src row and a compact row change from
    // edge to edge; the e.dst row read beside them is hoisted.
    {
        const core::CompiledModel m = core::compile(
            core::parseModel(R"(model src_and_dst
weight K ntype din dout
weight W etype din dout
input feature din
for n in g.nodes():
    k = typed_linear(n.feature, K[n.ntype])
for e in g.edges():
    msg = typed_linear(e.src.feature, W[e.etype])
for e in g.edges():
    z = dot_prd(e.src.k, e.dst.k)
    y = mul(e.msg, e.dst.k)
for n in g.dst_nodes():
    for e in n.incoming_edges():
        h_out += accumulate_scaled(e.z, e.y)
output h_out
)",
                             8, 8),
            opts);
        const core::TraversalInstance *ti = forwardWriter(m, "z");
        ASSERT_NE(ti, nullptr);
        EXPECT_EQ(ti->group, core::GroupKey::DstNode);
        EXPECT_EQ(m.forwardProgram.varInfo("msg").mat,
                  core::Materialization::Compact);
        EXPECT_TRUE(loadsPerGroup(*ti, "k", Access::ViaDst));
        EXPECT_FALSE(loadsPerGroup(*ti, "k", Access::ViaSrc));
        EXPECT_FALSE(loadsPerGroup(*ti, "msg", Access::Direct));
        expectMatchesSeed(m, g, "src-and-compact-under-node");
    }
    // A pointwise edge loop reading an e.dst row is grouped by node
    // for it (HGT's att_dot); its per-edge rows stay per edge.
    {
        const core::CompiledModel m = core::compile(
            models::buildModel(models::ModelKind::Hgt, g, 8, 8), opts);
        const core::TraversalInstance *ti = forwardWriter(m, "att_dot");
        ASSERT_NE(ti, nullptr);
        EXPECT_EQ(ti->group, core::GroupKey::DstNode);
        EXPECT_TRUE(loadsPerGroup(*ti, "q", Access::ViaDst));
        EXPECT_FALSE(loadsPerGroup(*ti, "ka", Access::Direct));
        expectMatchesSeed(m, g, "regrouped-pointwise-loop");
    }
    // Weight-vector gradients lower onto the GEMM template, so no
    // traversal of any training plan holds one; their GEMMs match the
    // seed.
    {
        for (models::ModelKind mk :
             {models::ModelKind::Rgcn, models::ModelKind::Rgat,
              models::ModelKind::Hgt}) {
            for (bool optimized : {false, true}) {
                core::CompileOptions train;
                train.compactMaterialization = optimized;
                train.linearReorder = optimized;
                train.training = true;
                const core::CompiledModel m = core::compile(
                    models::buildModel(mk, g, 8, 8), train);
                for (const auto &ti : m.backwardFn.traversals)
                    for (const auto &ss : ti.stmts)
                        EXPECT_NE(ss.stmt.kind, core::OpKind::WeightVecGrad)
                            << models::toString(mk) << " " << ti.name;
                if (mk == models::ModelKind::Rgat)
                    expectMatchesSeed(m, g,
                                      optimized ? "weight-vector-gradient/C+R"
                                                : "weight-vector-gradient");
            }
        }
    }
}

/// @}

} // namespace
