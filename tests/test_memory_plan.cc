/**
 * @file
 * Arena memory-planner tests: liveness covers every reference,
 * packing invariants (overlapping live ranges never share a byte,
 * disjoint ones may; the forward region is the forward slots packed
 * alone), external/pinned handling, the tracker footprint of a
 * forward-only run and of a pooled context re-packed for a larger
 * block, pooled execution contexts fully reinitialized between
 * requests, the hardened rowsOf, and the zero-row (empty-graph) path
 * through the arena.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/compiler.hh"
#include "core/memory_plan.hh"
#include "graph/datasets.hh"
#include "graph/sampler.hh"
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

/** The packed byte range of arena slot @p i. */
std::pair<std::size_t, std::size_t>
bytesOf(const MemoryPlan &plan, const ArenaLayout &lay, int i)
{
    const std::size_t lo = lay.offset[static_cast<std::size_t>(i)];
    return {lo, lo + plan.slots[static_cast<std::size_t>(i)].bytes(lay.rows)};
}

bool
shareBytes(const MemoryPlan &plan, const ArenaLayout &lay, int a, int b)
{
    const auto [alo, ahi] = bytesOf(plan, lay, a);
    const auto [blo, bhi] = bytesOf(plan, lay, b);
    return alo < ahi && blo < bhi && alo < bhi && blo < ahi;
}

TEST(MemoryPlan, DisjointLiveRangesShareBytes)
{
    const CompiledModel m = compileChain(8);
    const MemoryPlan &plan = m.memoryPlan;
    const int t1 = plan.slotOf("t1");
    const int t2 = plan.slotOf("t2");
    const int t3 = plan.slotOf("t3");
    ASSERT_GE(t1, 0);
    ASSERT_GE(t2, 0);
    ASSERT_GE(t3, 0);
    // t1's last use is the loop producing t2, so the loop producing t3
    // can recycle its bytes.
    const ArenaLayout lay = plan.pack({4, 10, 10});
    EXPECT_TRUE(shareBytes(plan, lay, t1, t3))
        << "disjoint live ranges must share";
    EXPECT_FALSE(shareBytes(plan, lay, t1, t2));
    EXPECT_FALSE(shareBytes(plan, lay, t2, t3));
    // t4 is the output, in a buffer of its own: the arena holds two
    // live edge rows at a time.
    EXPECT_EQ(lay.totalBytes, 2u * 10 * 8 * sizeof(float));
    EXPECT_EQ(lay.ownBytes, 10u * 8 * sizeof(float));
}

TEST(MemoryPlan, SplitHalvesAreOneLivenessUnit)
{
    // Let the copy producing t3 be the foldable second half of the one
    // producing t2. The merged walk that may run in place of both reads
    // t1 while it writes t3, so t3 may not recycle t1's bytes, and t3's
    // slot is zeroed before the first half, where that walk runs.
    const CompiledModel m = compileChain(8);
    LoweredFunction fn = m.forwardFn;
    ASSERT_EQ(fn.order.size(), 4u);
    for (const auto &step : fn.order)
        ASSERT_EQ(step.kind, LoweredFunction::Step::Kind::Traversal);
    fn.traversals[fn.order[2].index].foldable = true;
    ASSERT_TRUE(fn.foldsIntoPrevious(2));
    const MemoryPlan plan = planMemory(m.forwardProgram, fn, nullptr, nullptr);
    const int t3 = plan.slotOf("t3");
    EXPECT_FALSE(shareBytes(plan, plan.pack({4, 10, 10}), plan.slotOf("t1"),
                            t3));
    EXPECT_NE(std::find(fn.zeroSlotsBefore[1].begin(),
                        fn.zeroSlotsBefore[1].end(), t3),
              fn.zeroSlotsBefore[1].end());
    EXPECT_TRUE(fn.zeroSlotsBefore[2].empty());
}

TEST(MemoryPlan, InputIsExternalAndOutputHasItsOwnBuffer)
{
    const CompiledModel m = compileChain(8);
    const MemoryPlan &plan = m.memoryPlan;
    const MemoryPlan::Slot &feat =
        plan.slots[static_cast<std::size_t>(plan.slotOf("feature"))];
    EXPECT_EQ(feat.backing, MemoryPlan::Backing::External);
    const MemoryPlan::Slot &out =
        plan.slots[static_cast<std::size_t>(plan.slotOf("t4"))];
    EXPECT_EQ(out.backing, MemoryPlan::Backing::Own);
    for (const MemoryPlan::Slot &s : plan.slots)
        if (s.var != "t4") {
            EXPECT_NE(s.backing, MemoryPlan::Backing::Own) << s.var;
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
            // referenced ones resolve to their own slot.
            const int slot = m.memoryPlan.slotOf(name);
            if (slot >= 0) {
                EXPECT_EQ(m.memoryPlan.slots[static_cast<std::size_t>(slot)]
                              .var,
                          name);
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

/// @name Packing the real models
/// @{

const std::vector<models::ModelKind> kModels = {
    models::ModelKind::Rgcn, models::ModelKind::Rgat, models::ModelKind::Hgt};

/** Base and C+R, inference and training (with the feature gradient). */
std::vector<std::pair<std::string, CompileOptions>>
optionMatrix()
{
    std::vector<std::pair<std::string, CompileOptions>> out;
    for (bool cr : {false, true})
        for (bool training : {false, true}) {
            CompileOptions o;
            o.compactMaterialization = cr;
            o.linearReorder = cr;
            o.training = training;
            o.featureGrad = training;
            out.emplace_back(std::string(cr ? "C+R" : "base") +
                                 (training ? "/train" : "/infer"),
                             o);
        }
    return out;
}

/** A sampled block of @p seeds seeds of am (1/256). */
graph::HeteroGraph
amBlock(std::int64_t seeds)
{
    static const graph::HeteroGraph am =
        graph::generate(graph::datasetSpec("am"), 1.0 / 256.0);
    std::mt19937_64 rng(5);
    graph::SampleSpec spec;
    spec.numSeeds = seeds;
    return graph::sampleNeighbors(am, spec, rng).subgraph;
}

/** mag (1/256), a 128-seed am block, an edgeless and an empty graph. */
const std::vector<std::pair<std::string, graph::HeteroGraph>> &
packGraphs()
{
    static const std::vector<std::pair<std::string, graph::HeteroGraph>>
        graphs = [] {
            std::vector<std::pair<std::string, graph::HeteroGraph>> v;
            v.emplace_back("mag",
                           graph::generate(graph::datasetSpec("mag"),
                                           1.0 / 256.0));
            v.emplace_back("am-block-128", amBlock(128));
            v.emplace_back("edgeless",
                           graph::HeteroGraph({0, 0, 1, 1}, 2, 2, {0, 1},
                                              {1, 0}, {}));
            v.emplace_back("empty",
                           graph::HeteroGraph({}, 1, 1, {0}, {0}, {}));
            return v;
        }();
    return graphs;
}

ArenaRows
rowsOf(const graph::HeteroGraph &g)
{
    return {g.numNodes(), g.numEdges(), graph::CompactionMap(g).numUnique()};
}

/** Names each step of the joint forward[+backward] order references,
 *  with a foldable half's references at the step it folds into. */
std::vector<std::vector<std::string>>
jointRefs(const CompiledModel &m)
{
    std::vector<std::vector<std::string>> steps;
    auto add = [&](const LoweredFunction &fn) {
        const std::size_t base = steps.size();
        steps.resize(base + fn.order.size());
        for (std::size_t i = 0; i < fn.order.size(); ++i)
            for (const StepRef &r : fn.refs(i))
                steps[base + (fn.foldsIntoPrevious(i) ? i - 1 : i)]
                    .push_back(r.name);
    };
    add(m.forwardFn);
    if (m.options.training)
        add(m.backwardFn);
    return steps;
}

TEST(MemoryPlan, LiveRangesCoverEveryReference)
{
    const graph::HeteroGraph &g = packGraphs().front().second;
    for (models::ModelKind mk : kModels)
        for (const auto &[tag, opts] : optionMatrix()) {
            const CompiledModel m =
                compile(models::buildModel(mk, g, 16, 16), opts);
            const MemoryPlan &plan = m.memoryPlan;
            const auto steps = jointRefs(m);
            for (std::size_t i = 0; i < steps.size(); ++i)
                for (const std::string &name : steps[i]) {
                    const int k = plan.slotOf(name);
                    if (k < 0)
                        continue; // a parameter or a register value
                    const MemoryPlan::Slot &s =
                        plan.slots[static_cast<std::size_t>(k)];
                    EXPECT_LE(s.firstUse, static_cast<int>(i))
                        << models::toString(mk) << " " << tag << " " << name;
                    EXPECT_GE(s.lastUse, static_cast<int>(i))
                        << models::toString(mk) << " " << tag << " " << name;
                }
        }
}

TEST(MemoryPlan, PackedSlotsNeverShareBytesWhileLive)
{
    for (models::ModelKind mk : kModels)
        for (const auto &[tag, opts] : optionMatrix()) {
            const graph::HeteroGraph &mag = packGraphs().front().second;
            const CompiledModel m =
                compile(models::buildModel(mk, mag, 64, 64), opts);
            const MemoryPlan &plan = m.memoryPlan;
            const int steps = static_cast<int>(jointRefs(m).size());

            // The caller reads the output and the feature gradient after
            // execution: the output lives outside the arena, the
            // gradient stays live to the last instruction.
            const int out = plan.slotOf(m.forwardProgram.outputVar);
            ASSERT_GE(out, 0);
            EXPECT_EQ(plan.slots[static_cast<std::size_t>(out)].backing,
                      MemoryPlan::Backing::Own);
            const int fg = plan.slotOf(gradOf(m.forwardProgram.inputVar));
            EXPECT_EQ(fg >= 0, opts.training);
            if (fg >= 0) {
                const MemoryPlan::Slot &s =
                    plan.slots[static_cast<std::size_t>(fg)];
                EXPECT_EQ(s.backing, MemoryPlan::Backing::Arena);
                EXPECT_EQ(s.lastUse, steps - 1);
            }

            for (const auto &[gname, g] : packGraphs()) {
                const std::string what = std::string(models::toString(mk)) +
                                         " " + tag + " on " + gname;
                const ArenaLayout lay = plan.pack(rowsOf(g));
                std::size_t fwd_extent = 0;
                std::size_t extent = 0;
                for (std::size_t a = 0; a < plan.slots.size(); ++a) {
                    const MemoryPlan::Slot &sa = plan.slots[a];
                    if (sa.backing != MemoryPlan::Backing::Arena)
                        continue;
                    const auto [lo, hi] =
                        bytesOf(plan, lay, static_cast<int>(a));
                    extent = std::max(extent, hi);
                    if (sa.firstUse < plan.forwardSteps) {
                        fwd_extent = std::max(fwd_extent, hi);
                    } else if (lo < hi) {
                        // Wholly on one side of the region end.
                        EXPECT_TRUE(hi <= lay.forwardBytes ||
                                    lo >= lay.forwardBytes)
                            << what << ": " << sa.var;
                    }
                    for (std::size_t b = a + 1; b < plan.slots.size(); ++b) {
                        const MemoryPlan::Slot &sb = plan.slots[b];
                        if (sb.backing != MemoryPlan::Backing::Arena)
                            continue;
                        const bool live_together =
                            sa.firstUse <= sb.lastUse &&
                            sb.firstUse <= sa.lastUse;
                        if (live_together) {
                            EXPECT_FALSE(shareBytes(plan, lay,
                                                    static_cast<int>(a),
                                                    static_cast<int>(b)))
                                << what << ": " << sa.var << " and "
                                << sb.var;
                        }
                    }
                }
                EXPECT_EQ(lay.forwardBytes, fwd_extent) << what;
                EXPECT_EQ(lay.totalBytes, extent) << what;

                // The forward region is the forward slots packed alone:
                // no backward slot widens what a forward-only run holds.
                MemoryPlan fwd_only = plan;
                for (MemoryPlan::Slot &s : fwd_only.slots)
                    if (s.firstUse >= plan.forwardSteps)
                        s.backing = MemoryPlan::Backing::External;
                EXPECT_EQ(fwd_only.pack(lay.rows).totalBytes,
                          lay.forwardBytes)
                    << what;
            }
        }
}

/** Peak tracked bytes of @p body under @p rt's tracker, counted from
 *  what is live when it starts (a pooled arena from earlier runs). */
template <typename F>
std::size_t
peakOf(sim::Runtime &rt, F &&body)
{
    auto scope = rt.memoryScope();
    rt.tracker().resetStats();
    body();
    return rt.tracker().peakBytes();
}

TEST(MemoryPlan, ForwardOnlyRunOfATrainingPlanAllocatesOnlyTheForwardRegion)
{
    const graph::HeteroGraph &g = packGraphs().front().second;
    const graph::CompactionMap cmap(g);
    for (models::ModelKind mk : kModels)
        for (const auto &[tag, opts] : optionMatrix()) {
            if (!opts.training)
                continue;
            const CompiledModel m =
                compile(models::buildModel(mk, g, 16, 16), opts);
            std::mt19937_64 rng(3);
            models::WeightMap weights =
                models::initWeights(m.forwardProgram, g, rng);
            models::WeightMap grads;
            const Tensor feature =
                Tensor::uniform({g.numNodes(), 16}, rng, 0.5f);
            sim::Runtime rt;
            ExecutionContext ctx;
            ctx.reset(&g, &cmap, &rt, &weights, &grads);
            ctx.adoptPlan(&m.memoryPlan);
            bindInputs(m, ctx, feature); // externals stay untracked
            const std::size_t peak =
                peakOf(rt, [&] { (void)m.forward(ctx); });
            const ArenaLayout &lay = ctx.layout();
            EXPECT_LT(lay.forwardBytes, lay.totalBytes)
                << models::toString(mk) << " " << tag;
            EXPECT_EQ(peak, lay.forwardBytes + lay.ownBytes)
                << models::toString(mk) << " " << tag;
        }
}

TEST(MemoryPlan, PooledContextRepackedForALargerBlockPeaksAtTheNewArena)
{
    const graph::HeteroGraph small = amBlock(4);
    const graph::HeteroGraph &large = packGraphs()[1].second;
    ASSERT_LT(small.numEdges(), large.numEdges());
    const graph::CompactionMap small_cmap(small);
    const graph::CompactionMap large_cmap(large);
    for (models::ModelKind mk : kModels)
        for (const auto &[tag, opts] : optionMatrix()) {
            if (!opts.training)
                continue;
            const std::string what =
                std::string(models::toString(mk)) + " " + tag;
            const CompiledModel m =
                compile(models::buildModel(mk, large, 16, 16), opts);
            std::mt19937_64 rng(3);
            models::WeightMap weights =
                models::initWeights(m.forwardProgram, large, rng);
            models::WeightMap grads;
            const Tensor small_feature =
                Tensor::uniform({small.numNodes(), 16}, rng, 0.5f);
            const Tensor large_feature =
                Tensor::uniform({large.numNodes(), 16}, rng, 0.5f);

            sim::Runtime rt;
            ExecutionContext ctx;
            auto step = [&](const graph::HeteroGraph &g,
                            const graph::CompactionMap &cmap,
                            const Tensor &feature) {
                grads.clear();
                ctx.reset(&g, &cmap, &rt, &weights, &grads);
                ctx.adoptPlan(&m.memoryPlan);
                (void)trainStep(m, ctx, feature);
            };
            // The small block sizes the pool; the large one re-packs it.
            (void)peakOf(rt, [&] { step(small, small_cmap, small_feature); });
            const std::size_t small_arena = ctx.layout().residentBytes();
            const std::size_t peak =
                peakOf(rt, [&] { step(large, large_cmap, large_feature); });
            const ArenaLayout &lay = ctx.layout();
            ASSERT_LT(small_arena, lay.residentBytes()) << what;
            // Besides the arena and the output, a train step holds the
            // seed gradient and (RGCN) the edge norm.
            const std::size_t seed_bytes = lay.ownBytes;
            const std::size_t norm_bytes =
                m.forwardProgram.vars.count("norm")
                    ? static_cast<std::size_t>(large.numEdges()) *
                          sizeof(float)
                    : 0;
            EXPECT_EQ(peak, lay.residentBytes() + seed_bytes + norm_bytes)
                << what << ": growing the arena must release the old "
                << "buffers before allocating the new ones";
        }
}

/// @}

} // namespace
