/**
 * @file
 * Tests for the analytical device model and runtime: monotonicity of
 * the cost model (DESIGN.md invariant 7), occupancy ramp, atomic
 * serialization, counter bookkeeping, derived Fig. 12 metrics, and
 * the store and atomic pricing of register-accumulated (grouped)
 * aggregations, forward and backward, the read pricing of operand
 * rows loaded once per group or shared by several statements and of
 * weight-vector rows loaded once per etype run, the
 * outer-product GEMMs that sum weight gradients (weight vectors
 * included), and the two halves of a split backward edge loop.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "core/compiler.hh"
#include "core/frontend.hh"
#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "graph/sampler.hh"
#include "models/model_sources.hh"
#include "models/models.hh"
#include "sim/counters.hh"
#include "sim/device.hh"
#include "sim/runtime.hh"
#include "tensor/tensor.hh"

namespace
{

using namespace hector::sim;

KernelDesc
baseDesc()
{
    KernelDesc d;
    d.name = "k";
    d.category = KernelCategory::Gemm;
    d.flops = 1e9;
    d.bytesRead = 1e8;
    d.bytesWritten = 1e7;
    d.workItems = 1e7;
    return d;
}

TEST(DeviceModel, TimeIsPositiveAndIncludesLaunch)
{
    DeviceModel m((DeviceSpec()));
    KernelDesc empty;
    empty.name = "noop";
    EXPECT_GE(m.kernelTime(empty), m.spec().launchLatency);
}

TEST(DeviceModel, MonotoneInFlops)
{
    DeviceModel m((DeviceSpec()));
    KernelDesc a = baseDesc();
    KernelDesc b = baseDesc();
    b.flops *= 4.0;
    EXPECT_GE(m.kernelTime(b), m.kernelTime(a));
}

TEST(DeviceModel, MonotoneInBytes)
{
    DeviceModel m((DeviceSpec()));
    KernelDesc a = baseDesc();
    a.flops = 0.0;
    KernelDesc b = a;
    b.bytesRead *= 10.0;
    EXPECT_GT(m.kernelTime(b), m.kernelTime(a));
}

TEST(DeviceModel, MonotoneInAtomics)
{
    DeviceModel m((DeviceSpec()));
    KernelDesc a = baseDesc();
    KernelDesc b = a;
    b.atomics = 1e7;
    EXPECT_GT(m.kernelTime(b), m.kernelTime(a));
    KernelDesc c = b;
    c.atomicConflict = 16.0;
    EXPECT_GT(m.kernelTime(c), m.kernelTime(b));
}

TEST(DeviceModel, AtomicConflictSerializationIsCapped)
{
    DeviceModel m((DeviceSpec()));
    KernelDesc a = baseDesc();
    a.atomics = 1e7;
    a.atomicConflict = 64.0;
    KernelDesc b = a;
    b.atomicConflict = 1e9; // absurd contention is bounded
    EXPECT_DOUBLE_EQ(m.kernelTime(a), m.kernelTime(b));
}

TEST(DeviceModel, OccupancyRampPenalizesSmallLaunches)
{
    DeviceModel m((DeviceSpec()));
    EXPECT_LT(m.occupancy(1000.0), 0.05);
    EXPECT_GT(m.occupancy(1e8), 0.99);
    EXPECT_LT(m.occupancy(1e4), m.occupancy(1e6));
    // Same work, smaller launch => lower throughput, more time.
    KernelDesc small = baseDesc();
    small.workItems = 1e4;
    KernelDesc big = baseDesc();
    big.workItems = 1e8;
    EXPECT_GT(m.kernelTime(small), m.kernelTime(big));
}

TEST(DeviceModel, CategoryEfficienciesOrdered)
{
    // GEMM-template kernels must sustain far more FP32 than traversal
    // kernels (the premise of "lower to GEMM as much as possible").
    EXPECT_GT(DeviceModel::computeEfficiency(KernelCategory::Gemm),
              5.0 * DeviceModel::computeEfficiency(
                        KernelCategory::Traversal));
    EXPECT_GT(DeviceModel::bandwidthEfficiency(KernelCategory::Gemm),
              DeviceModel::bandwidthEfficiency(
                  KernelCategory::Traversal));
}

TEST(DeviceModel, OverheadScaleShrinksLaunchCost)
{
    DeviceSpec s1;
    DeviceSpec s2;
    s2.overheadScale = 1.0 / 256.0;
    DeviceModel m1(s1);
    DeviceModel m2(s2);
    KernelDesc empty;
    EXPECT_NEAR(m2.kernelTime(empty) * 256.0, m1.kernelTime(empty),
                1e-12);
}

TEST(DeviceSpec, ScaledSpecConsistency)
{
    const double scale = 1.0 / 128.0;
    DeviceSpec s = makeScaledSpec(scale);
    EXPECT_DOUBLE_EQ(s.memoryScale, scale);
    EXPECT_DOUBLE_EQ(s.overheadScale, scale);
    EXPECT_DOUBLE_EQ(s.datasetScale, scale);
    DeviceSpec full;
    EXPECT_NEAR(static_cast<double>(s.scaledCapacityBytes()),
                full.memoryBytes * scale * full.usableFraction, 1.0);
}

TEST(Runtime, AccumulatesCountersPerBucket)
{
    Runtime rt;
    KernelDesc d = baseDesc();
    d.category = KernelCategory::Traversal;
    d.phase = Phase::Backward;
    rt.launch(d, nullptr);
    rt.launch(d, nullptr);
    const auto &b =
        rt.counters().bucket(KernelCategory::Traversal, Phase::Backward);
    EXPECT_EQ(b.launches, 2u);
    EXPECT_DOUBLE_EQ(b.flops, 2.0 * d.flops);
    const auto &other =
        rt.counters().bucket(KernelCategory::Gemm, Phase::Forward);
    EXPECT_EQ(other.launches, 0u);
    EXPECT_GT(rt.totalTimeMs(), 0.0);
}

TEST(Runtime, ExecutesBodyExactlyOnce)
{
    Runtime rt;
    int calls = 0;
    rt.launch(baseDesc(), [&]() { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(Runtime, ResetClearsEverything)
{
    Runtime rt;
    rt.setRecordLaunches(true);
    rt.launch(baseDesc(), nullptr);
    rt.hostOverhead(1e-3);
    EXPECT_GT(rt.totalTimeMs(), 0.0);
    EXPECT_EQ(rt.records().size(), 1u);
    rt.resetCounters();
    EXPECT_EQ(rt.totalTimeMs(), 0.0);
    EXPECT_EQ(rt.hostTimeMs(), 0.0);
    EXPECT_TRUE(rt.records().empty());
    EXPECT_EQ(rt.counters().total().launches, 0u);
}

TEST(Runtime, MemoryScopeEnforcesScaledCapacity)
{
    DeviceSpec spec;
    spec.memoryBytes = 1024.0 * 1024.0;
    spec.memoryScale = 1.0;
    spec.usableFraction = 1.0;
    Runtime rt(spec);
    auto scope = rt.memoryScope();
    hector::tensor::Tensor ok({128, 128}); // 64 KiB
    EXPECT_THROW(hector::tensor::Tensor({1024, 1024}),
                 hector::tensor::OomError);
    EXPECT_EQ(rt.tracker().oomCount(), 1u);
}

TEST(Counters, CategoryAndGrandTotals)
{
    Counters c;
    c.bucket(KernelCategory::Gemm, Phase::Forward).timeSec = 1.0;
    c.bucket(KernelCategory::Gemm, Phase::Backward).timeSec = 2.0;
    c.bucket(KernelCategory::Index, Phase::Forward).timeSec = 4.0;
    EXPECT_DOUBLE_EQ(c.categoryTotal(KernelCategory::Gemm).timeSec, 3.0);
    EXPECT_DOUBLE_EQ(c.total().timeSec, 7.0);
    c.reset();
    EXPECT_DOUBLE_EQ(c.total().timeSec, 0.0);
}

TEST(ArchMetrics, DerivedQuantitiesAreBounded)
{
    DeviceSpec spec;
    CounterBucket b;
    b.timeSec = 1e-3;
    b.flops = 1e10;
    b.bytesRead = 1e8;
    b.bytesWritten = 1e8;
    b.atomics = 1e6;
    const ArchMetrics m = Counters::deriveMetrics(b, spec);
    EXPECT_NEAR(m.achievedGflops, 1e10 / 1e-3 / 1e9, 1e-6);
    EXPECT_LE(m.avgIpc, 4.0);
    EXPECT_GT(m.avgIpc, 0.0);
    EXPECT_LE(m.lsuPct, 100.0);
    EXPECT_GT(m.dramTptPct, 0.0);
}

TEST(ArchMetrics, EmptyBucketYieldsZeros)
{
    const ArchMetrics m =
        Counters::deriveMetrics(CounterBucket{}, DeviceSpec{});
    EXPECT_EQ(m.achievedGflops, 0.0);
    EXPECT_EQ(m.avgIpc, 0.0);
}

TEST(ArchMetrics, GemmBeatsTraversalThroughput)
{
    // Derived metrics must reflect the paper's Fig. 12 contrast when
    // fed matching counter profiles.
    DeviceSpec spec;
    DeviceModel m(spec);
    KernelDesc gemm = baseDesc();
    KernelDesc trav = baseDesc();
    trav.category = KernelCategory::Traversal;
    trav.atomics = 1e7;
    CounterBucket bg;
    bg.flops = gemm.flops;
    bg.timeSec = m.kernelTime(gemm);
    CounterBucket bt;
    bt.flops = trav.flops;
    bt.atomics = trav.atomics;
    bt.timeSec = m.kernelTime(trav);
    EXPECT_GT(Counters::deriveMetrics(bg, spec).achievedGflops,
              Counters::deriveMetrics(bt, spec).achievedGflops);
}

/**
 * A sampled block of @p dataset at scale 1/256 (fanout 4 for
 * @p num_seeds seeds).
 */
hector::graph::HeteroGraph
sampledBlock(const std::string &dataset, int num_seeds)
{
    namespace graph = hector::graph;
    const graph::HeteroGraph full = graph::generate(
        graph::datasetSpec(dataset), 1.0 / 256.0);
    std::mt19937_64 rng(7);
    graph::SampleSpec spec;
    spec.numSeeds = num_seeds;
    spec.fanout = 4;
    return graph::sampleNeighbors(full, spec, rng).subgraph;
}

/**
 * A sampled serving block of `am` (fanout 4 for @p num_seeds seeds):
 * more nodes than edges.
 */
hector::graph::HeteroGraph
sampledAmBlock(int num_seeds = 16)
{
    return sampledBlock("am", num_seeds);
}

/**
 * Counters of one launch of @p ti of program @p p on @p g, with every
 * weight vector it reads zero.
 */
CounterBucket
priceTraversal(const hector::core::Program &p,
               const hector::core::TraversalInstance &ti,
               const hector::graph::HeteroGraph &g, DeviceSpec spec = {})
{
    const hector::graph::CompactionMap cmap(g);
    Runtime rt(spec);
    std::map<std::string, hector::tensor::Tensor> weights, grads;
    for (const auto &ss : ti.stmts)
        if (!ss.stmt.weight.empty())
            weights[ss.stmt.weight] = hector::tensor::Tensor::zeros(
                {g.numEdgeTypes(), p.weightInfo(ss.stmt.weight).cols});
    hector::core::ExecutionContext ctx;
    ctx.reset(&g, &cmap, &rt, &weights, &grads);
    hector::core::execTraversal(p, ti, ctx);
    return rt.counters().bucket(KernelCategory::Traversal, ti.phase);
}

/**
 * The bytes of the adjacency indices @p ti reads on @p g: 4 for each
 * index adjacencyReads() lists, once per edge (or row of a flat
 * domain), or once per group with an edge (per pair in the UniquePairs
 * domain).
 */
double
indexBytes(const hector::core::Program &p,
           const hector::core::TraversalInstance &ti,
           const hector::graph::HeteroGraph &g)
{
    namespace core = hector::core;
    const hector::graph::CompactionMap cmap(g);
    const bool pairs = ti.group == core::GroupKey::UniquePair ||
                       ti.domain == core::RowDomain::UniquePairs;
    const double groups = static_cast<double>(
        pairs ? cmap.numUnique() : g.numNodesWithInEdges());
    double rows = static_cast<double>(g.numEdges());
    if (!ti.grouped() && ti.domain == core::RowDomain::UniquePairs)
        rows = static_cast<double>(cmap.numUnique());
    else if (!ti.grouped() && ti.domain == core::RowDomain::Nodes)
        rows = static_cast<double>(g.numNodes());
    double bytes = 0.0;
    for (const core::AdjacencyRead &r : core::adjacencyReads(p, ti))
        bytes += 4.0 * (r.rate == core::LoadRate::PerGroup ? groups : rows);
    return bytes;
}

TEST(TraversalPricing, RegisterAccumulatorStoresOncePerNodeWithInEdges)
{
    namespace core = hector::core;
    namespace graph = hector::graph;
    // More nodes than edges, so a store charged per node would cost
    // more than the per-edge read-modify-write it replaces.
    const graph::HeteroGraph g = sampledAmBlock();
    ASSERT_GT(g.numNodes(), g.numEdges());
    std::int64_t stored = 0;
    for (std::int64_t v = 0; v < g.numNodes(); ++v)
        stored += g.inDegree(v) > 0;
    EXPECT_EQ(g.numNodesWithInEdges(), stored);

    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;
    const core::CompiledModel m = core::compile(
        core::parseModel(hector::models::kRgatSource, 16, 16), opts);
    const core::TraversalInstance *agg = nullptr;
    for (const auto &ti : m.forwardFn.traversals)
        for (const auto &ss : ti.stmts)
            if (ss.hoistLevel == 2 && ss.stmt.out.name == "h_out")
                agg = &ti;
    ASSERT_NE(agg, nullptr);
    core::TraversalInstance per_edge = *agg;
    for (auto &ss : per_edge.stmts)
        if (ss.hoistLevel == 2)
            ss.hoistLevel = 0;

    const CounterBucket reg = priceTraversal(m.forwardProgram, *agg, g);
    const CounterBucket edge = priceTraversal(m.forwardProgram, per_edge, g);
    // The per-edge path reads and writes the row once per edge, with
    // the index that locates it; the register path writes it once per
    // node with an in-edge. Nothing else moves.
    const double row_bytes = 4.0 * 16.0;
    EXPECT_EQ(edge.bytesWritten - reg.bytesWritten,
              row_bytes * static_cast<double>(g.numEdges() - stored));
    EXPECT_LE(reg.bytesWritten, edge.bytesWritten);
    EXPECT_EQ(edge.bytesRead - reg.bytesRead,
              row_bytes * static_cast<double>(g.numEdges()) +
                  indexBytes(m.forwardProgram, per_edge, g) -
                  indexBytes(m.forwardProgram, *agg, g));
    EXPECT_EQ(reg.flops, edge.flops);
    EXPECT_LE(reg.timeSec, edge.timeSec);
}

/**
 * The backward instance of @p model (C+R when @p optimized) grouped by
 * @p key whose level-2 statement writes @p var, priced three ways on
 * a sampled block: as lowered, with the statement summed in place per
 * edge (level 0, same grouping), and as a flat edge-centric loop. The
 * block has enough seeds that some (src, etype) pairs repeat.
 */
void
expectGroupedBackwardPricing(hector::models::ModelKind model, bool optimized,
                             hector::core::GroupKey key,
                             const std::string &var)
{
    namespace core = hector::core;
    const hector::graph::HeteroGraph g = sampledAmBlock(128);
    const hector::graph::CompactionMap cmap(g);
    core::CompileOptions opts;
    opts.compactMaterialization = optimized;
    opts.linearReorder = optimized;
    opts.training = true;
    const core::CompiledModel m = core::compile(
        hector::models::buildModel(model, g, 16, 16), opts);
    const core::TraversalInstance *grouped = nullptr;
    for (const auto &ti : m.backwardFn.traversals)
        for (const auto &ss : ti.stmts)
            if (ti.group == key && ss.hoistLevel == 2 &&
                ss.stmt.out.name == var)
                grouped = &ti;
    ASSERT_NE(grouped, nullptr) << var;
    core::TraversalInstance in_place = *grouped;
    for (auto &ss : in_place.stmts)
        ss.hoistLevel = 0;
    core::TraversalInstance flat = in_place;
    flat.group = core::GroupKey::None;

    const CounterBucket reg = priceTraversal(m.backwardProgram, *grouped, g);
    const CounterBucket edge =
        priceTraversal(m.backwardProgram, in_place, g);
    const CounterBucket scatter = priceTraversal(m.backwardProgram, flat, g);

    // The register row is stored once per group, not once per edge.
    const std::int64_t groups = key == core::GroupKey::UniquePair
                                    ? cmap.numUnique()
                                    : g.numNodesWithInEdges();
    ASSERT_GT(g.numEdges(), groups);
    const double row_bytes = 4.0 * 16.0;
    EXPECT_EQ(edge.bytesWritten - reg.bytesWritten,
              row_bytes * static_cast<double>(g.numEdges() - groups))
        << var;
    // Summed in place, the row is read back per edge too.
    EXPECT_EQ(edge.bytesRead - reg.bytesRead,
              row_bytes * static_cast<double>(g.numEdges()) +
                  indexBytes(m.backwardProgram, in_place, g) -
                  indexBytes(m.backwardProgram, *grouped, g))
        << var;
    EXPECT_EQ(reg.flops, edge.flops) << var;
    // The group owns its rows: no atomics, where the flat loop
    // scatters into them atomically.
    EXPECT_EQ(reg.atomics, 0.0) << var;
    EXPECT_GT(scatter.atomics, 0.0) << var;
    EXPECT_LT(reg.timeSec, scatter.timeSec) << var;
}

TEST(TraversalPricing, PairGroupedBackwardStoresOncePerPairWithoutAtomics)
{
    // RGCN C+R: msg_grad, one compact row per (src, etype) pair.
    expectGroupedBackwardPricing(hector::models::ModelKind::Rgcn, true,
                                 hector::core::GroupKey::UniquePair,
                                 "msg_grad");
}

TEST(TraversalPricing, NodeGroupedBackwardStoresOncePerNodeWithoutAtomics)
{
    // HGT: q_grad, reached through e.dst in the att_dot backward.
    expectGroupedBackwardPricing(hector::models::ModelKind::Hgt, false,
                                 hector::core::GroupKey::DstNode, "q_grad");
}

/** The instance of @p fn whose statements write @p var. */
const hector::core::TraversalInstance *
writerOf(const hector::core::LoweredFunction &fn, const std::string &var)
{
    for (const auto &ti : fn.traversals)
        for (const auto &ss : ti.stmts)
            if (ss.stmt.out.name == var)
                return &ti;
    return nullptr;
}

/** Every counter but bytesRead (and time) must agree. */
void
expectSameButReads(const CounterBucket &a, const CounterBucket &b,
                   const std::string &what)
{
    EXPECT_EQ(a.launches, 1u) << what;
    EXPECT_EQ(a.launches, b.launches) << what;
    EXPECT_EQ(a.flops, b.flops) << what;
    EXPECT_EQ(a.bytesWritten, b.bytesWritten) << what;
    EXPECT_EQ(a.atomics, b.atomics) << what;
}

TEST(TraversalPricing, RegisterValuesCostNoBytes)
{
    namespace core = hector::core;
    // RGAT C+R training: the score walk writes attt and att into
    // registers only, and reads attt, att_raw, att and att_exp from the
    // registers the statements before it filled.
    const hector::graph::HeteroGraph g = sampledAmBlock(128);
    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;
    opts.training = true;
    const core::CompiledModel m = core::compile(
        hector::models::buildModel(hector::models::ModelKind::Rgat, g, 16,
                                   16),
        opts);
    const core::TraversalInstance *ti = writerOf(m.forwardFn, "att_sum");
    ASSERT_NE(ti, nullptr);
    EXPECT_EQ(ti->virtualVars, (std::vector<std::string>{"attt", "att"}));
    std::vector<std::string> in_register;
    for (const auto &l : ti->loads)
        if (ti->rateOf(l) == core::LoadRate::InRegister)
            in_register.push_back(l.var);
    EXPECT_EQ(in_register, (std::vector<std::string>{"attt", "att_raw",
                                                     "att", "att_exp"}));

    // The same walk with every value stored to and reloaded from rows.
    core::Program rows = m.forwardProgram;
    for (const auto &v : ti->virtualVars)
        rows.varInfo(v).mat = core::Materialization::Vanilla;
    core::TraversalInstance reload = *ti;
    reload.virtualVars.clear();
    reload.loads = core::operandLoads(rows, reload);
    for (auto &l : reload.loads)
        if (l.rate == core::LoadRate::InRegister)
            l.rate = core::LoadRate::PerEdge;

    const CounterBucket reg = priceTraversal(m.forwardProgram, *ti, g);
    const CounterBucket mem = priceTraversal(rows, reload, g);
    const double edges = static_cast<double>(g.numEdges());
    // Two scalar stores and four scalar reloads per edge.
    EXPECT_EQ(mem.bytesWritten - reg.bytesWritten, 4.0 * 2.0 * edges);
    EXPECT_EQ(mem.bytesRead - reg.bytesRead, 4.0 * 4.0 * edges);
    EXPECT_EQ(mem.flops, reg.flops);
    EXPECT_EQ(mem.atomics, reg.atomics);
    EXPECT_LT(reg.timeSec, mem.timeSec);
}

TEST(TraversalPricing, AddingRegisterStoreReadsTheRowOnce)
{
    namespace core = hector::core;
    // RGCN C+R: the aggregation adds its register row into the h_out
    // row h_self's GEMM wrote, once per node with an in-edge.
    const hector::graph::HeteroGraph g = sampledAmBlock(128);
    core::CompileOptions opts;
    opts.compactMaterialization = true;
    const core::CompiledModel m = core::compile(
        hector::models::buildModel(hector::models::ModelKind::Rgcn, g, 16,
                                   16),
        opts);
    const core::TraversalInstance *ti = writerOf(m.forwardFn, "h_out");
    ASSERT_NE(ti, nullptr);
    ASSERT_EQ(ti->stmts.size(), 1u);
    ASSERT_TRUE(ti->stmts[0].addsOnStore());
    core::TraversalInstance overwrite = *ti;
    overwrite.stmts[0].stmt.sumFirst = false;

    const CounterBucket adds = priceTraversal(m.forwardProgram, *ti, g);
    const CounterBucket stores =
        priceTraversal(m.forwardProgram, overwrite, g);
    EXPECT_EQ(adds.bytesRead - stores.bytesRead,
              4.0 * 16.0 * static_cast<double>(g.numNodesWithInEdges()));
    expectSameButReads(adds, stores, "h_out");
}

TEST(TraversalPricing, HoistedLoadReadOncePerGroup)
{
    namespace core = hector::core;
    using hector::models::ModelKind;
    const hector::graph::HeteroGraph g = sampledAmBlock(128);
    const hector::graph::CompactionMap cmap(g);
    struct Case
    {
        ModelKind model;
        bool optimized;
        bool backward;
        std::string writes;
        std::string var;
        core::Access access;
        std::int64_t groups;
    };
    const std::vector<Case> cases = {
        // HGT's att_dot reads e.dst.q: once per node with an in-edge.
        {ModelKind::Hgt, false, false, "att_dot", "q", core::Access::ViaDst,
         g.numNodesWithInEdges()},
        // RGAT's hs_grad backward reads the compact hs: once per pair.
        {ModelKind::Rgat, true, true, "hs_grad", "hs", core::Access::Direct,
         cmap.numUnique()},
    };
    for (const auto &c : cases) {
        core::CompileOptions opts;
        opts.compactMaterialization = c.optimized;
        opts.linearReorder = c.optimized;
        opts.training = true;
        const core::CompiledModel m = core::compile(
            hector::models::buildModel(c.model, g, 16, 16), opts);
        const core::Program &p =
            c.backward ? m.backwardProgram : m.forwardProgram;
        const core::TraversalInstance *ti =
            writerOf(c.backward ? m.backwardFn : m.forwardFn, c.writes);
        ASSERT_NE(ti, nullptr) << c.writes;
        const core::OperandLoad *load = ti->loadOf({c.var, c.access});
        ASSERT_NE(load, nullptr) << c.var;
        ASSERT_TRUE(ti->hoisted(*load)) << c.var;
        core::TraversalInstance per_edge = *ti;
        for (auto &l : per_edge.loads)
            if (l.var == c.var && l.access == c.access)
                l.rate = core::LoadRate::PerEdge;

        const CounterBucket hoisted = priceTraversal(p, *ti, g);
        const CounterBucket edge = priceTraversal(p, per_edge, g);
        ASSERT_GT(g.numEdges(), c.groups);
        // Read per edge, the row also needs the index locating it.
        EXPECT_EQ(edge.bytesRead - hoisted.bytesRead,
                  4.0 * 16.0 * static_cast<double>(g.numEdges() - c.groups) +
                      indexBytes(p, per_edge, g) - indexBytes(p, *ti, g))
            << c.var;
        expectSameButReads(hoisted, edge, c.var);
        EXPECT_LT(hoisted.timeSec, edge.timeSec) << c.var;
    }
}

TEST(TraversalPricing, SharedOperandLoadedOncePerEdge)
{
    namespace core = hector::core;
    const hector::graph::HeteroGraph g = sampledAmBlock(128);
    core::CompileOptions opts;
    opts.compactMaterialization = true;
    opts.linearReorder = true;
    opts.training = true;
    const core::CompiledModel m = core::compile(
        hector::models::buildModel(hector::models::ModelKind::Rgat, g, 16,
                                   16),
        opts);
    // att_n_grad and hs_grad both read e.dst.h_out_grad, a row the
    // pair group reaches per edge.
    const core::TraversalInstance *ti = writerOf(m.backwardFn, "att_n_grad");
    ASSERT_NE(ti, nullptr);
    ASSERT_EQ(ti->group, core::GroupKey::UniquePair);
    int readers = 0;
    for (const auto &ss : ti->stmts)
        for (const auto &in : ss.stmt.ins)
            readers += in.name == "h_out_grad";
    ASSERT_EQ(readers, 2);

    // The same instance with the second reader pointed at an
    // identical copy of the row: two distinct loads.
    core::Program p = m.backwardProgram;
    p.declareVar("h_out_grad_copy", p.varInfo("h_out_grad"));
    core::TraversalInstance distinct = *ti;
    int seen = 0;
    for (auto &ss : distinct.stmts)
        for (auto &in : ss.stmt.ins)
            if (in.name == "h_out_grad" && ++seen == 2)
                in.name = "h_out_grad_copy";
    distinct.loads = core::operandLoads(p, distinct);
    ASSERT_EQ(distinct.loads.size(), ti->loads.size() + 1);

    const CounterBucket shared = priceTraversal(p, *ti, g);
    const CounterBucket twice = priceTraversal(p, distinct, g);
    EXPECT_EQ(twice.bytesRead - shared.bytesRead,
              4.0 * 16.0 * static_cast<double>(g.numEdges()));
    expectSameButReads(shared, twice, "h_out_grad");
}

TEST(TraversalPricing, WeightVectorRowLoadedOncePerEtypeRun)
{
    namespace core = hector::core;
    namespace graph = hector::graph;
    struct Case
    {
        std::string name;
        graph::HeteroGraph g;
        std::int64_t cols;
    };
    std::vector<Case> cases;
    cases.push_back(
        {"mag/256", graph::generate(graph::datasetSpec("mag"), 1.0 / 256.0),
         64});
    cases.push_back({"am block", sampledAmBlock(128), 16});
    // Node 2 has an in-edge of two etypes, every other node at most
    // one: each edge is a run of its own.
    cases.push_back({"one edge per etype",
                     graph::HeteroGraph({0, 0, 1, 1}, 2, 3, {0, 1, 0},
                                        {1, 0, 1},
                                        {{0, 2, 0},
                                         {1, 3, 0},
                                         {2, 0, 1},
                                         {3, 1, 1},
                                         {1, 2, 2}}),
                     16});
    for (const auto &c : cases) {
        const graph::HeteroGraph &g = c.g;
        core::CompileOptions opts;
        opts.compactMaterialization = true;
        opts.linearReorder = true;
        const core::CompiledModel m = core::compile(
            hector::models::buildModel(hector::models::ModelKind::Rgat, g,
                                       c.cols, c.cols),
            opts);
        // attt = dot(e.dst.feature, w_t__W[e.etype]), walked by node.
        const core::TraversalInstance *ti = writerOf(m.forwardFn, "attt");
        ASSERT_NE(ti, nullptr) << c.name;
        EXPECT_EQ(ti->name, "traversal_4") << c.name;
        ASSERT_EQ(ti->group, core::GroupKey::DstNode) << c.name;
        const core::OperandLoad *load = ti->weightLoadOf("w_t__W");
        ASSERT_NE(load, nullptr) << c.name;
        ASSERT_EQ(ti->rateOf(*load), core::LoadRate::PerRun) << c.name;
        core::TraversalInstance per_edge = *ti;
        for (auto &l : per_edge.loads)
            if (l.weight)
                l.rate = core::LoadRate::PerEdge;

        const CounterBucket run = priceTraversal(m.forwardProgram, *ti, g);
        const CounterBucket edge =
            priceTraversal(m.forwardProgram, per_edge, g);
        const std::int64_t runs = g.numInEtypeRuns();
        EXPECT_EQ(edge.bytesRead - run.bytesRead,
                  4.0 * static_cast<double>(c.cols) *
                      static_cast<double>(g.numEdges() - runs))
            << c.name;
        expectSameButReads(run, edge, c.name);
        if (runs == g.numEdges())
            EXPECT_EQ(run.bytesRead, edge.bytesRead) << c.name;
        else
            EXPECT_LT(run.timeSec, edge.timeSec) << c.name;
    }
    EXPECT_EQ(cases[2].g.numInEtypeRuns(), cases[2].g.numEdges());
}

/** One training step of @p m on @p g with every launch recorded. */
std::vector<LaunchRecord>
trainRecords(const hector::core::CompiledModel &m,
             const hector::graph::HeteroGraph &g,
             const hector::graph::CompactionMap &cmap,
             std::map<std::string, hector::tensor::Tensor> &weights)
{
    std::mt19937_64 rng(5);
    weights = hector::models::initWeights(m.forwardProgram, g, rng);
    const hector::tensor::Tensor feature =
        hector::tensor::Tensor::uniform({g.numNodes(), 16}, rng, 0.5f);
    Runtime rt(makeScaledSpec(1.0 / 256.0));
    rt.setRecordLaunches(true);
    std::map<std::string, hector::tensor::Tensor> grads;
    hector::core::ExecutionContext ctx;
    ctx.reset(&g, &cmap, &rt, &weights, &grads);
    hector::core::trainStep(m, ctx, feature);
    return rt.records();
}

TEST(GemmPricing, OuterGemmReadsY2RowsAndWritesTheGradientOnce)
{
    namespace core = hector::core;
    using hector::models::ModelKind;
    const double scale = 1.0 / 256.0;
    int weight_vectors = 0;
    int gathered = 0;
    for (const char *dataset : {"am", "mag"}) {
        const hector::graph::HeteroGraph g = sampledBlock(dataset, 128);
        const hector::graph::CompactionMap cmap(g);
        for (ModelKind mk : {ModelKind::Rgcn, ModelKind::Rgat, ModelKind::Hgt})
            for (bool optimized : {false, true}) {
                core::CompileOptions opts;
                opts.compactMaterialization = optimized;
                opts.linearReorder = optimized;
                opts.training = true;
                const core::CompiledModel m = core::compile(
                    hector::models::buildModel(mk, g, 16, 16), opts);
                std::map<std::string, hector::tensor::Tensor> weights;
                const auto records = trainRecords(m, g, cmap, weights);
                for (const auto &gi : m.backwardFn.gemms) {
                    if (gi.kind != core::GemmKind::Outer)
                        continue;
                    const std::string what = std::string(dataset) + " " +
                                             gi.name;
                    const LaunchRecord *rec = nullptr;
                    for (const auto &r : records)
                        if (r.name == gi.name)
                            rec = &r;
                    ASSERT_NE(rec, nullptr) << what;
                    const double rows = static_cast<double>(
                        gi.rows == core::RowDomain::Edges
                            ? g.numEdges()
                            : (gi.rows == core::RowDomain::UniquePairs
                                   ? cmap.numUnique()
                                   : g.numNodes()));
                    const double din = static_cast<double>(gi.din);
                    const double dout = static_cast<double>(gi.dout);
                    const double grad = 4.0 * scale *
                        static_cast<double>(weights.at(gi.wVar).numel());
                    const double x_idx =
                        gi.xAccess == core::AccessScheme::Identity ? 0.0
                                                                   : 8.0;
                    const double y2_idx =
                        gi.y2Access == core::AccessScheme::Identity ? 0.0
                                                                    : 8.0;
                    // x and y2 rows (and the index arrays gathering
                    // them) are read; the gradient is written once.
                    EXPECT_EQ(rec->bytesRead,
                              rows * (4.0 * din + x_idx) +
                                  rows * (4.0 * dout + y2_idx))
                        << what;
                    EXPECT_EQ(rec->bytesWritten, grad) << what;
                    EXPECT_EQ(rec->atomics, 0.0) << what;
                    // Where y2 is not gathered, the byte total (and so
                    // the modeled time) is the one that booked the
                    // gradient as read and rows * dout as written.
                    if (y2_idx == 0.0) {
                        EXPECT_EQ(rec->bytesRead + rec->bytesWritten,
                                  rows * 4.0 * din + grad + rows * x_idx +
                                      rows * 4.0 * dout)
                            << what;
                    }
                    weight_vectors += gi.din == 1;
                    gathered += y2_idx != 0.0;
                }
            }
    }
    // RGAT's w_s and w_t per plan and dataset; w_t__W gathers e.dst's
    // feature row.
    EXPECT_EQ(weight_vectors, 8);
    EXPECT_EQ(gathered, 2);
}

TEST(TraversalPricing, SplitEdgeLoopRunsItsCheaperShape)
{
    namespace core = hector::core;
    struct Case
    {
        const char *dataset;
        int seeds;
        /** True when the two halves must run, else the merged walk. */
        bool split;
    };
    // With 8192 seeds, (src, etype) pairs repeat (about 1.8 edges per
    // pair on am, 8 on mag) and the split saves the atomics. With 128
    // seeds nearly every pair has one edge: the atomics barely contend,
    // and the second walk's re-reads and launch cost the split more
    // than they save.
    const std::vector<Case> cases = {
        {"am", 8192, true},
        {"mag", 8192, true},
        {"am", 128, false},
        {"mag", 128, false},
    };
    for (const auto &c : cases) {
        const std::string what =
            std::string(c.dataset) + "/" + std::to_string(c.seeds);
        const hector::graph::HeteroGraph g = sampledBlock(c.dataset, c.seeds);
        core::CompileOptions opts;
        opts.compactMaterialization = true;
        opts.linearReorder = true;
        opts.training = true;
        const core::CompiledModel m = core::compile(
            hector::models::buildModel(hector::models::ModelKind::Hgt, g, 16,
                                       16),
            opts);
        const core::Program &p = m.backwardProgram;
        const core::TraversalInstance *node = writerOf(m.backwardFn, "q_grad");
        const core::TraversalInstance *pair =
            writerOf(m.backwardFn, "ka_grad");
        ASSERT_NE(node, nullptr);
        ASSERT_NE(pair, nullptr);
        ASSERT_NE(node, pair);
        ASSERT_TRUE(pair->foldable);

        // The loop as one node-grouped walk: ka_grad summed in place,
        // scattering into compact rows.
        const core::TraversalInstance whole =
            core::mergedTraversal(p, *node, *pair);

        // Priced on the device a 1/256-scale block is served on, whose
        // per-launch overhead shrinks with the data.
        const DeviceSpec spec = makeScaledSpec(1.0 / 256.0);
        const CounterBucket n = priceTraversal(p, *node, g, spec);
        const CounterBucket u = priceTraversal(p, *pair, g, spec);
        const CounterBucket w = priceTraversal(p, whole, g, spec);
        EXPECT_EQ(n.atomics, 0.0) << what;
        EXPECT_EQ(u.atomics, 0.0) << what;
        EXPECT_GT(w.atomics, 0.0) << what;

        // The two steps as lowered, run through the executor.
        core::LoweredFunction fn;
        fn.phase = Phase::Backward;
        fn.traversals = {*node, *pair};
        fn.order = {{core::LoweredFunction::Step::Kind::Traversal, 0},
                    {core::LoweredFunction::Step::Kind::Traversal, 1}};
        ASSERT_TRUE(fn.foldsIntoPrevious(1));
        const hector::graph::CompactionMap cmap(g);
        Runtime rt(spec);
        std::map<std::string, hector::tensor::Tensor> weights, grads;
        hector::core::ExecutionContext ctx;
        ctx.reset(&g, &cmap, &rt, &weights, &grads);
        core::execute(p, fn, ctx);
        const CounterBucket ran =
            rt.counters().bucket(KernelCategory::Traversal, Phase::Backward);
        EXPECT_LE(ran.timeSec,
                  std::min(n.timeSec + u.timeSec, w.timeSec)) << what;
        if (c.split) {
            EXPECT_LT(n.timeSec + u.timeSec, w.timeSec) << what;
            EXPECT_EQ(ran.launches, 2u) << what;
            EXPECT_EQ(ran.atomics, 0.0) << what;
        } else {
            EXPECT_LT(w.timeSec, n.timeSec + u.timeSec) << what;
            EXPECT_EQ(ran.launches, 1u) << what;
            EXPECT_EQ(ran.atomics, w.atomics) << what;
        }
    }
}

TEST(TraversalPricing, AdjacencyIndicesCostFourBytesPerRead)
{
    namespace core = hector::core;
    using hector::models::ModelKind;
    // Every traversal of every model and plan reads its operand rows at
    // their load rates, the output rows its `+=` statements read back,
    // and 4 bytes per adjacency index it reads: per edge, or per group
    // with an edge.
    const hector::graph::HeteroGraph g = sampledAmBlock(128);
    const hector::graph::CompactionMap cmap(g);
    const double edges = static_cast<double>(g.numEdges());
    int walks = 0;
    for (ModelKind mk : {ModelKind::Rgcn, ModelKind::Rgat, ModelKind::Hgt})
        for (bool optimized : {false, true}) {
            core::CompileOptions opts;
            opts.compactMaterialization = optimized;
            opts.linearReorder = optimized;
            opts.training = true;
            const core::CompiledModel m =
                core::compile(hector::models::buildModel(mk, g, 16, 16), opts);
            for (int dir = 0; dir < 2; ++dir) {
                const core::Program &p =
                    dir ? m.backwardProgram : m.forwardProgram;
                const core::LoweredFunction &fn =
                    dir ? m.backwardFn : m.forwardFn;
                for (const auto &ti : fn.traversals) {
                    const bool by_pair =
                        ti.group == core::GroupKey::UniquePair;
                    const double rows =
                        ti.grouped() ? edges
                                     : static_cast<double>(
                                           ti.domain ==
                                                   core::RowDomain::UniquePairs
                                               ? cmap.numUnique()
                                           : ti.domain ==
                                                   core::RowDomain::Nodes
                                               ? g.numNodes()
                                               : g.numEdges());
                    const double groups = static_cast<double>(
                        by_pair ? cmap.numUnique() : g.numNodesWithInEdges());
                    const double runs = static_cast<double>(
                        by_pair ? cmap.numUnique() : g.numInEtypeRuns());
                    double loads = 0.0;
                    for (const auto &l : ti.loads) {
                        const double cols = static_cast<double>(
                            l.weight ? p.weightInfo(l.var).cols
                                     : p.varInfo(l.var).cols);
                        switch (ti.rateOf(l)) {
                          case core::LoadRate::PerEdge:
                            loads += 4.0 * cols * rows;
                            break;
                          case core::LoadRate::PerGroup:
                            loads += 4.0 * cols * groups;
                            break;
                          case core::LoadRate::PerRun:
                            loads += 4.0 * cols * runs;
                            break;
                          case core::LoadRate::InRegister:
                            break;
                        }
                    }
                    double read_back = 0.0;
                    for (std::size_t i = 0; i < ti.stmts.size(); ++i) {
                        const auto &ss = ti.stmts[i];
                        const double cols = static_cast<double>(
                            p.varInfo(ss.stmt.out.name).cols);
                        if (core::readsOutputRow(p, ti, i))
                            read_back += 4.0 * cols * rows;
                        if (ss.addsOnStore())
                            read_back += 4.0 * cols * groups;
                    }
                    const CounterBucket priced = priceTraversal(p, ti, g);
                    EXPECT_EQ(priced.bytesRead - loads - read_back,
                              indexBytes(p, ti, g))
                        << hector::models::toString(mk) << " " << ti.name;
                    // Each index is listed once.
                    std::set<core::AdjIndex> seen;
                    for (const auto &r : core::adjacencyReads(p, ti))
                        EXPECT_TRUE(seen.insert(r.index).second) << ti.name;
                    ++walks;
                }
            }
        }
    EXPECT_GT(walks, 20);
}

} // namespace
