/**
 * @file
 * Arena memory-planner tests: liveness/slot-assignment invariants
 * (overlapping live ranges never share a slot, disjoint same-shape
 * ranges do), external/pinned handling, pooled execution contexts
 * fully reinitialized between requests, the hardened rowsOf, and the
 * zero-row (empty-graph) path through the arena.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/compiler.hh"
#include "core/memory_plan.hh"
#include "graph/datasets.hh"
#include "models/models.hh"
#include "models/model_sources.hh"
#include "serve/session.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace hector;
using namespace hector::core;
using tensor::Tensor;

/** A chain of edgewise copies: t1 -> t2 -> t3 -> t4, all same shape.
 *  t1 dies when t3 is produced, so t3 can reuse t1's slot. */
Program
chainProgram(std::int64_t cols)
{
    Program p;
    p.name = "chain";
    p.declareVar("feature", {VarSpace::NodeInput, cols, false,
                             Materialization::Vanilla});
    const char *names[] = {"t1", "t2", "t3", "t4"};
    for (const char *n : names)
        p.declareVar(n, {VarSpace::EdgeData, cols, false,
                         Materialization::Vanilla});
    auto copyLoop = [&](const std::string &out, const VarRef &in) {
        Loop l;
        l.domain = LoopDomain::Edges;
        Stmt s;
        s.kind = OpKind::Copy;
        s.out = {out, Access::Direct, -1};
        s.ins = {in};
        l.body.push_back(std::move(s));
        p.loops.push_back(std::move(l));
    };
    copyLoop("t1", {"feature", Access::ViaSrc, -1});
    copyLoop("t2", {"t1", Access::Direct, -1});
    copyLoop("t3", {"t2", Access::Direct, -1});
    copyLoop("t4", {"t3", Access::Direct, -1});
    p.outputVar = "t4";
    return p;
}

CompiledModel
compileChain(std::int64_t cols)
{
    CompileOptions opts;
    opts.fuseTraversalLoops = false; // keep every variable materialized
    return compile(chainProgram(cols), opts);
}

TEST(MemoryPlan, DisjointLiveRangesShareASlot)
{
    const CompiledModel m = compileChain(8);
    const MemoryPlan &plan = m.memoryPlan;
    ASSERT_GE(plan.slotOf("t1"), 0);
    ASSERT_GE(plan.slotOf("t2"), 0);
    ASSERT_GE(plan.slotOf("t3"), 0);
    // t1 is last read when t3 is produced... t1's last use is the
    // loop producing t2, so the loop producing t3 can recycle it.
    EXPECT_EQ(plan.slotOf("t1"), plan.slotOf("t3"))
        << "disjoint same-shape live ranges must share";
    EXPECT_LT(plan.slots.size(), plan.vars.size())
        << "the arena must be smaller than one-buffer-per-variable";
}

TEST(MemoryPlan, OverlappingLiveRangesNeverShare)
{
    const CompiledModel m = compileChain(8);
    const MemoryPlan &plan = m.memoryPlan;
    // Pairwise invariant over the recorded liveness.
    for (const auto &[na, va] : plan.vars)
        for (const auto &[nb, vb] : plan.vars) {
            if (na == nb || va.slot != vb.slot)
                continue;
            const bool disjoint =
                va.lastUse < vb.firstUse || vb.lastUse < va.firstUse;
            EXPECT_TRUE(disjoint)
                << na << " and " << nb << " overlap in slot " << va.slot;
        }
    // The adjacent chain links overlap by construction.
    EXPECT_NE(plan.slotOf("t1"), plan.slotOf("t2"));
    EXPECT_NE(plan.slotOf("t2"), plan.slotOf("t3"));
}

TEST(MemoryPlan, SplitHalvesAreOneLivenessUnit)
{
    // Let the copy producing t3 be the foldable second half of the one
    // producing t2. The merged walk that may run in place of both reads
    // t1 while it writes t3, so t3 may not recycle t1's slot, and t3's
    // slot is zeroed before the first half, where that walk runs.
    const CompiledModel m = compileChain(8);
    LoweredFunction fn = m.forwardFn;
    ASSERT_EQ(fn.order.size(), 4u);
    for (const auto &step : fn.order)
        ASSERT_EQ(step.kind, LoweredFunction::Step::Kind::Traversal);
    fn.traversals[fn.order[2].index].foldable = true;
    ASSERT_TRUE(fn.foldsIntoPrevious(2));
    const MemoryPlan plan = planMemory(m.forwardProgram, fn, nullptr, nullptr);
    const std::int32_t t3 = static_cast<std::int32_t>(plan.slotOf("t3"));
    EXPECT_NE(plan.slotOf("t1"), plan.slotOf("t3"));
    EXPECT_NE(std::find(fn.zeroSlotsBefore[1].begin(),
                        fn.zeroSlotsBefore[1].end(), t3),
              fn.zeroSlotsBefore[1].end());
    EXPECT_TRUE(fn.zeroSlotsBefore[2].empty());
}

TEST(MemoryPlan, InputIsExternalAndOutputIsPinned)
{
    const CompiledModel m = compileChain(8);
    const MemoryPlan &plan = m.memoryPlan;
    const auto &feat = plan.vars.at("feature");
    EXPECT_TRUE(feat.external);
    EXPECT_TRUE(plan.slots[static_cast<std::size_t>(feat.slot)].external);
    const auto &out = plan.vars.at("t4");
    EXPECT_TRUE(out.pinned);
    for (const auto &[name, vp] : plan.vars)
        if (name != "t4") {
            EXPECT_NE(vp.slot, out.slot)
                << "pinned output slot must not be shared";
        }
}

TEST(MemoryPlan, RealModelsPlanEveryMaterializedVariable)
{
    const graph::HeteroGraph g = graph::toyCitationGraph();
    for (models::ModelKind mk :
         {models::ModelKind::Rgcn, models::ModelKind::Rgat,
          models::ModelKind::Hgt}) {
        const CompiledModel m =
            compile(models::buildModel(mk, g, 8, 8), CompileOptions{});
        for (const auto &[name, vi] : m.forwardProgram.vars) {
            if (vi.space == VarSpace::Param ||
                vi.mat == Materialization::Virtual)
                continue;
            // Unreferenced variables may legitimately be unplanned;
            // referenced ones must resolve to a slot.
            if (m.memoryPlan.vars.count(name)) {
                EXPECT_GE(m.memoryPlan.slotOf(name), 0) << name;
            }
        }
        // Stamped instances agree with the plan.
        for (const auto &gi : m.forwardFn.gemms) {
            if (gi.kind == GemmKind::Linear && !gi.yVar.empty()) {
                EXPECT_EQ(gi.ySlot, m.memoryPlan.slotOf(gi.yVar));
            }
            EXPECT_EQ(gi.xSlot, m.memoryPlan.slotOf(gi.xVar));
        }
    }
}

TEST(MemoryPlan, ExecutionViaArenaMatchesLegacyBitwise)
{
    const graph::HeteroGraph g = graph::toyCitationGraph();
    const graph::CompactionMap cmap(g);
    for (models::ModelKind mk :
         {models::ModelKind::Rgcn, models::ModelKind::Rgat,
          models::ModelKind::Hgt}) {
        const CompiledModel m =
            compile(models::buildModel(mk, g, 8, 8), CompileOptions{});
        std::mt19937_64 rng(99);
        models::WeightMap weights = models::initWeights(
            m.forwardProgram, g, rng);
        const Tensor feature =
            Tensor::uniform({g.numNodes(), 8}, rng, 0.5f);

        auto runOnce = [&](bool arena) {
            sim::Runtime rt;
            models::WeightMap grads;
            ExecutionContext ctx;
            ctx.reset(&g, &cmap, &rt, &weights, &grads);
            ctx.adoptPlan(arena ? &m.memoryPlan : nullptr);
            bindInputs(m, ctx, feature);
            return m.forward(ctx).clone();
        };
        const Tensor legacy = runOnce(false);
        const Tensor arena = runOnce(true);
        ASSERT_EQ(legacy.shape(), arena.shape());
        EXPECT_EQ(std::memcmp(legacy.data(), arena.data(),
                              legacy.numel() * sizeof(float)),
                  0)
            << "arena-backed execution must be bit-identical ("
            << models::toString(mk) << ")";

        // Post-execution inspection through lookup(): the output must
        // resolve by name whether it lives in the named map (legacy)
        // or in an arena slot (planned).
        sim::Runtime rt;
        models::WeightMap grads;
        ExecutionContext ctx;
        ctx.reset(&g, &cmap, &rt, &weights, &grads);
        ctx.adoptPlan(&m.memoryPlan);
        bindInputs(m, ctx, feature);
        (void)m.forward(ctx);
        const Tensor *via_lookup =
            ctx.lookup(m.forwardProgram.outputVar);
        ASSERT_NE(via_lookup, nullptr)
            << "output must be inspectable by name after execution";
        EXPECT_EQ(std::memcmp(via_lookup->data(), legacy.data(),
                              legacy.numel() * sizeof(float)),
                  0);
        EXPECT_EQ(ctx.lookup("no_such_variable"), nullptr);
    }
}

TEST(MemoryPlan, PooledContextIsFullyReinitializedBetweenRequests)
{
    // One session with pooled arena contexts vs one with the legacy
    // allocate-per-request path, identical request streams: every
    // cycle's outputs must match bitwise. The second cycle runs over
    // *dirty* pooled buffers, so any missed reinitialization shows up
    // as a bitwise diff.
    const graph::HeteroGraph g =
        graph::generate(graph::datasetSpec("aifb"), 1.0 / 256.0);
    std::mt19937_64 frng(7);
    const Tensor host_features = Tensor::uniform({g.numNodes(), 16},
                                                 frng, 0.5f);
    auto runCycles = [&](bool arena) {
        sim::Runtime rt;
        serve::ServingConfig cfg;
        cfg.maxBatch = 4;
        cfg.din = 16;
        cfg.dout = 16;
        cfg.sample.numSeeds = 6;
        cfg.sample.fanout = 3;
        cfg.seed = 4711;
        cfg.useArena = arena;
        serve::ServingSession session(g, host_features,
                                      models::kRgatSource, cfg, rt);
        std::vector<std::vector<float>> outs;
        for (int cyc = 0; cyc < 3; ++cyc) {
            std::vector<std::uint64_t> ids;
            for (int i = 0; i < 8; ++i)
                ids.push_back(session.submit());
            session.drain();
            for (std::uint64_t id : ids) {
                const Tensor *o = session.result(id);
                EXPECT_NE(o, nullptr);
                outs.emplace_back(o->data(), o->data() + o->numel());
            }
        }
        return outs;
    };
    const auto pooled = runCycles(true);
    const auto fresh = runCycles(false);
    ASSERT_EQ(pooled.size(), fresh.size());
    for (std::size_t i = 0; i < pooled.size(); ++i) {
        ASSERT_EQ(pooled[i].size(), fresh[i].size()) << "request " << i;
        EXPECT_EQ(std::memcmp(pooled[i].data(), fresh[i].data(),
                              pooled[i].size() * sizeof(float)),
                  0)
            << "request " << i
            << ": pooled context leaked state between requests";
    }
}

TEST(ExecutionContext, RowsOfThrowsOnInvalidDomain)
{
    const graph::HeteroGraph g = graph::toyCitationGraph();
    ExecutionContext ctx;
    ctx.g = &g;
    EXPECT_THROW((void)ctx.rowsOf(static_cast<RowDomain>(99)),
                 std::logic_error);
    EXPECT_THROW((void)ctx.rowsOf(static_cast<SlotRows>(99)),
                 std::logic_error);
    // UniquePairs without a CompactionMap stays a runtime error.
    EXPECT_THROW((void)ctx.rowsOf(RowDomain::UniquePairs),
                 std::runtime_error);
}

TEST(ExecutionContext, ZeroEdgeGraphRunsThroughTheArena)
{
    // Three isolated nodes of one type, one declared relation type,
    // zero edges: every edge-domain slot materializes with zero rows.
    graph::HeteroGraph g({0, 0, 0}, 1, 1, {0}, {0}, {});
    const graph::CompactionMap cmap(g);
    const CompiledModel m = compileChain(8);
    sim::Runtime rt;
    models::WeightMap weights, grads;
    ExecutionContext ctx;
    ctx.reset(&g, &cmap, &rt, &weights, &grads);
    ctx.adoptPlan(&m.memoryPlan);
    bindInputs(m, ctx, Tensor({3, 8}));
    const Tensor out = m.forward(ctx);
    EXPECT_EQ(out.dim(0), 0);
    EXPECT_EQ(out.dim(1), 8);
}

} // namespace
