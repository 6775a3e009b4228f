/**
 * @file
 * Code-generation tests (DESIGN.md invariant 8): the emitted CUDA
 * text must reflect each instance's access schemes, schedule, and
 * atomic usage, and the host/python artifacts must register every
 * kernel. Since the interpreter executes the same intra-op IR the
 * emitter reads, these checks pin the generated code to the verified
 * semantics.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <sstream>

#include "core/compiler.hh"
#include "core/lowering.hh"
#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "models/models.hh"
#include "serve/plan_cache.hh"
#include "sim/runtime.hh"

namespace
{

using namespace hector;
using namespace hector::core;

CompiledModel
compileModel(models::ModelKind m, bool compact, bool reorder,
             bool training = false, GemmSchedule sched = {})
{
    graph::HeteroGraph g = graph::toyCitationGraph();
    CompileOptions opts;
    opts.compactMaterialization = compact;
    opts.linearReorder = reorder;
    opts.training = training;
    opts.sched = sched;
    return compile(models::buildModel(m, g, 8, 8), opts);
}

TEST(Codegen, GemmKernelReflectsGatherScheme)
{
    const auto m = compileModel(models::ModelKind::Rgat, false, false);
    const std::string &cuda = m.code.cudaSource;
    // Source-gather for hs, destination-gather for ht.
    EXPECT_NE(cuda.find("row_idx[r]"), std::string::npos);
    EXPECT_NE(cuda.find("col_idx[r]"), std::string::npos);
    EXPECT_NE(cuda.find("__global__ void gemm_"), std::string::npos);
    EXPECT_NE(cuda.find("__shared__ float x_shmem[16][16]"),
              std::string::npos);
}

TEST(Codegen, CompactionEmitsUniqueRowIdx)
{
    const auto vanilla = compileModel(models::ModelKind::Rgat, false,
                                      false);
    const auto compact = compileModel(models::ModelKind::Rgat, true,
                                      false);
    EXPECT_EQ(vanilla.code.cudaSource.find("unique_row_idx[r]"),
              std::string::npos);
    EXPECT_NE(compact.code.cudaSource.find("unique_row_idx[r]"),
              std::string::npos);
    EXPECT_NE(compact.code.cudaSource.find("UNIQUE_NODE_ETYPE"),
              std::string::npos);
}

TEST(Codegen, RgcnFusedKernelHasScalarAndAtomicStore)
{
    const auto m = compileModel(models::ModelKind::Rgcn, false, false);
    const std::string &cuda = m.code.cudaSource;
    EXPECT_NE(cuda.find("per_row_scalar"), std::string::npos);
    EXPECT_NE(cuda.find("atomicAdd(&Y["), std::string::npos);
    EXPECT_NE(cuda.find("SCATTER_ATOMIC(col_idx)"), std::string::npos);
}

TEST(Codegen, ScheduleAppearsInEmittedCode)
{
    GemmSchedule sched;
    sched.tileSz = 32;
    sched.coarsening = 4;
    sched.launchBounds = true;
    const auto m = compileModel(models::ModelKind::Rgcn, false, false,
                                false, sched);
    const std::string &cuda = m.code.cudaSource;
    EXPECT_NE(cuda.find("tile_sz: 32"), std::string::npos);
    EXPECT_NE(cuda.find("coarsening: 4"), std::string::npos);
    EXPECT_NE(cuda.find("__launch_bounds__"), std::string::npos);
    EXPECT_NE(cuda.find("x_shmem[32][32]"), std::string::npos);
}

TEST(Codegen, AggregationAccumulatesInRegisterAndStoresOnce)
{
    const auto m = compileModel(models::ModelKind::Rgat, true, true);
    std::string name;
    for (const auto &ti : m.forwardFn.traversals)
        for (const auto &ss : ti.stmts)
            if (ss.hoistLevel == 2 && ss.stmt.out.name == "h_out")
                name = ti.name;
    ASSERT_FALSE(name.empty());
    const std::string &cuda = m.code.cudaSource;
    const std::size_t begin = cuda.find("__global__ void " + name + "(");
    ASSERT_NE(begin, std::string::npos);
    const std::string kernel =
        cuda.substr(begin, cuda.find("\n}\n", begin) - begin);

    const std::size_t decl = kernel.find("float h_out_acc = 0.f;");
    const std::size_t loop = kernel.find("for (int i = args.in_ptr[n]");
    const std::size_t loop_end = kernel.find("\n        }\n", loop);
    ASSERT_NE(decl, std::string::npos);
    ASSERT_NE(loop, std::string::npos);
    ASSERT_NE(loop_end, std::string::npos);
    EXPECT_LT(decl, loop);
    const std::size_t acc = kernel.find("h_out_acc += ", loop);
    EXPECT_LT(acc, loop_end);

    // Exactly one global access to h_out: the store after the loop.
    const std::size_t store = kernel.find("h_out[");
    ASSERT_NE(store, std::string::npos);
    EXPECT_EQ(kernel.find("h_out[", store + 1), std::string::npos);
    EXPECT_GT(store, loop_end);
    EXPECT_NE(kernel.find("h_out[n * 8 + f] = h_out_acc;"),
              std::string::npos);
}

TEST(Codegen, PairGroupedBackwardWalksPairsAndStoresOnce)
{
    const auto m = compileModel(models::ModelKind::Rgcn, true, true, true);
    std::string name;
    for (const auto &ti : m.backwardFn.traversals)
        for (const auto &ss : ti.stmts)
            if (ti.group == GroupKey::UniquePair && ss.hoistLevel == 2 &&
                ss.stmt.out.name == "msg_grad")
                name = ti.name;
    ASSERT_FALSE(name.empty());
    const std::string &cuda = m.code.cudaSource;
    const std::size_t begin = cuda.find("__global__ void " + name + "(");
    ASSERT_NE(begin, std::string::npos);
    const std::string kernel =
        cuda.substr(begin, cuda.find("\n}\n", begin) - begin);

    // One (src, etype) pair per group, walked over its edge list.
    EXPECT_NE(kernel.find("for (int u = blockIdx.x; u < args.num_unique;"),
              std::string::npos);
    const std::size_t decl = kernel.find("float msg_grad_acc = 0.f;");
    const std::size_t loop = kernel.find("for (int i = args.unique_ptr[u]");
    const std::size_t loop_end = kernel.find("\n        }\n", loop);
    ASSERT_NE(decl, std::string::npos);
    ASSERT_NE(loop, std::string::npos);
    ASSERT_NE(loop_end, std::string::npos);
    EXPECT_LT(decl, loop);
    EXPECT_LT(kernel.find("int e = args.unique_eids[i];", loop), loop_end);
    EXPECT_LT(kernel.find("msg_grad_acc += ", loop), loop_end);

    // Exactly one global access to msg_grad, a plain store after the
    // loop: no atomic.
    const std::size_t store = kernel.find("msg_grad[");
    ASSERT_NE(store, std::string::npos);
    EXPECT_EQ(kernel.find("msg_grad[", store + 1), std::string::npos);
    EXPECT_GT(store, loop_end);
    EXPECT_NE(kernel.find("msg_grad[u * 8 + f] = msg_grad_acc;"),
              std::string::npos);
    EXPECT_EQ(kernel.find("atomicAdd"), std::string::npos);
    EXPECT_NE(m.code.hostSource.find("(unique_ptr / unique_eids)"),
              std::string::npos);

    // The plan signature covers the grouping: the same plan walked
    // edge-centric hashes differently.
    CompiledModel flat = m;
    for (auto &ti : flat.backwardFn.traversals) {
        ti.group = GroupKey::None;
        for (auto &ss : ti.stmts)
            ss.hoistLevel = 0;
    }
    flat.code = generateCode(flat.forwardProgram, flat.forwardFn,
                             &flat.backwardProgram, &flat.backwardFn);
    EXPECT_EQ(flat.code.cudaSource.find("args.unique_eids"),
              std::string::npos);
    EXPECT_NE(serve::planSignature(flat), serve::planSignature(m));
}

/** Text of kernel @p name in @p cuda, up to its closing brace. */
std::string
kernelText(const std::string &cuda, const std::string &name)
{
    const std::size_t begin = cuda.find("__global__ void " + name + "(");
    if (begin == std::string::npos)
        return "";
    return cuda.substr(begin, cuda.find("\n}\n", begin) - begin);
}

/** Number of times @p needle occurs in @p text. */
int
occurrences(const std::string &text, const std::string &needle)
{
    int n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

/** Name of the traversal of @p fn whose statements write @p var. */
std::string
writerName(const LoweredFunction &fn, const std::string &var)
{
    for (const auto &ti : fn.traversals)
        for (const auto &ss : ti.stmts)
            if (ss.stmt.out.name == var)
                return ti.name;
    return "";
}

/** Name of the traversal of @p fn grouped by @p key writing @p var. */
std::string
writerName(const LoweredFunction &fn, const std::string &var, GroupKey key)
{
    for (const auto &ti : fn.traversals)
        for (const auto &ss : ti.stmts)
            if (ti.group == key && ss.stmt.out.name == var)
                return ti.name;
    return "";
}

TEST(Codegen, HoistedLoadsPrecedeTheEdgeLoop)
{
    const auto m = compileModel(models::ModelKind::Rgat, true, true, true);
    const std::string &cuda = m.code.cudaSource;

    // Forward: attt's pointwise loop is walked by node and loads the
    // node's e.dst.feature row once, before the edge loop.
    const std::string fwd = kernelText(cuda, writerName(m.forwardFn, "attt"));
    const std::size_t load = fwd.find(
        "const float ld_dst_feature = has_edges ? feature[n * 8 + f] : 0.f;");
    const std::size_t loop = fwd.find("for (int i = args.in_ptr[n]");
    ASSERT_NE(load, std::string::npos) << fwd;
    ASSERT_NE(loop, std::string::npos);
    EXPECT_LT(load, loop);
    EXPECT_EQ(occurrences(fwd, "feature["), 1);
    EXPECT_NE(fwd.find("warp_dot(ld_dst_feature, ", loop), std::string::npos);

    // Backward: the pair group loads the compact hs row once per pair,
    // and e.dst.h_out_grad, which two statements read, once per edge.
    const std::string bwd =
        kernelText(cuda, writerName(m.backwardFn, "hs_grad"));
    const std::size_t pair_load =
        bwd.find("const float ld_hs = has_edges ? hs[u * 8 + f] : 0.f;");
    const std::size_t pair_loop = bwd.find("for (int i = args.unique_ptr[u]");
    ASSERT_NE(pair_load, std::string::npos) << bwd;
    ASSERT_NE(pair_loop, std::string::npos);
    EXPECT_LT(pair_load, pair_loop);
    const std::size_t edge_load = bwd.find(
        "const float ld_dst_h_out_grad = h_out_grad[dst * 8 + f];");
    ASSERT_NE(edge_load, std::string::npos) << bwd;
    EXPECT_GT(edge_load, pair_loop);
    EXPECT_EQ(occurrences(bwd, "h_out_grad["), 1);
    EXPECT_EQ(occurrences(bwd, "hs["), 1);

    // The plan signature covers the hoisting: the same plan with
    // every load read per edge hashes differently.
    CompiledModel per_edge = m;
    for (auto *fn : {&per_edge.forwardFn, &per_edge.backwardFn})
        for (auto &ti : fn->traversals)
            for (auto &l : ti.loads)
                l.rate = LoadRate::PerEdge;
    per_edge.code =
        generateCode(per_edge.forwardProgram, per_edge.forwardFn,
                     &per_edge.backwardProgram, &per_edge.backwardFn);
    EXPECT_EQ(per_edge.code.cudaSource.find("has_edges"), std::string::npos);
    EXPECT_NE(serve::planSignature(per_edge), serve::planSignature(m));
}

/**
 * The row references @p line stores to: `X[...]` left of ` = ` or
 * ` += ` in each `;`-separated statement, or the target of an
 * atomicAdd.
 */
std::vector<std::string>
storedRows(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start < line.size()) {
        std::size_t end = line.find(';', start);
        if (end == std::string::npos)
            end = line.size();
        std::string stmt = line.substr(start, end - start);
        start = end + 1;
        stmt.erase(0, stmt.find_first_not_of(' '));
        if (stmt.rfind("atomicAdd(&", 0) == 0)
            stmt = stmt.substr(11);
        const std::size_t open = stmt.find('[');
        const std::size_t eq = stmt.find(" = ");
        const std::size_t add = stmt.find(" += ");
        const std::size_t lhs_end = std::min(eq, add);
        if (open == std::string::npos || open > lhs_end)
            continue;
        int depth = 0;
        for (std::size_t i = open; i < stmt.size(); ++i) {
            depth += stmt[i] == '[';
            depth -= stmt[i] == ']';
            if (depth == 0) {
                out.push_back(stmt.substr(0, i + 1));
                break;
            }
        }
    }
    return out;
}

TEST(Codegen, NoKernelReadsARowItWroteEarlier)
{
    // A value a statement stores is in a register for the rest of the
    // iteration: later statements read the register, not the row.
    for (models::ModelKind mk : {models::ModelKind::Rgcn,
                                 models::ModelKind::Rgat,
                                 models::ModelKind::Hgt})
        for (bool optimized : {false, true}) {
            const auto m = compileModel(mk, optimized, optimized, true);
            for (const auto *fn : {&m.forwardFn, &m.backwardFn})
                for (const auto &ti : fn->traversals) {
                    std::istringstream kernel(
                        kernelText(m.code.cudaSource, ti.name));
                    std::vector<std::string> stored;
                    std::string line;
                    int stores = 0;
                    while (std::getline(kernel, line)) {
                        for (const auto &row : stored)
                            EXPECT_EQ(line.find(row), std::string::npos)
                                << ti.name << " reads " << row << ": "
                                << line;
                        for (const auto &row : storedRows(line)) {
                            stored.push_back(row);
                            ++stores;
                        }
                    }
                    EXPECT_GT(stores, 0) << ti.name;
                }
            // Stored and re-read: the writer fills a register.
            if (mk == models::ModelKind::Rgat && optimized) {
                EXPECT_NE(kernelText(m.code.cudaSource,
                                     writerName(m.forwardFn, "att_sum"))
                              .find("att_exp_reg = __expf(att_reg); "
                                    "att_exp[e] = att_exp_reg;"),
                          std::string::npos);
            }
        }
}

TEST(Codegen, TraversalKernelUsesAdjacencySpecialization)
{
    // Base RGAT training with feature gradients: the forward's
    // node-centric walks use the CSR in_ptr loop; the backward's flat
    // edge kernel (hs_grad from atts_grad, which the dX GEMM also
    // reads, so no Outer GEMM prologue takes it) uses COO index
    // retrieval.
    CompileOptions opts;
    opts.training = true;
    opts.featureGrad = true;
    const auto m = compile(
        models::buildModel(models::ModelKind::Rgat,
                           graph::toyCitationGraph(), 8, 8),
        opts);
    const std::string &cuda = m.code.cudaSource;
    EXPECT_NE(cuda.find("args.in_ptr[n]"), std::string::npos);
    EXPECT_NE(cuda.find("GetEType<"), std::string::npos);
    const std::string flat = kernelText(
        cuda, writerName(m.backwardFn, "hs_grad", GroupKey::None));
    EXPECT_NE(flat.find("segment lookup via etype_ptr"), std::string::npos)
        << flat;
}

TEST(Codegen, EachAdjacencyIndexReadOncePerKernel)
{
    // Every traversal kernel, merged walks included, reads each index
    // it uses once, into a register, and no index adjacencyReads()
    // does not list: no GetEType in a walk that never reads the etype.
    const std::pair<const char *, AdjIndex> needles[] = {
        {"row_idx[", AdjIndex::Src},
        {"col_idx[", AdjIndex::Dst},
        {"edge_to_unique[", AdjIndex::EdgeToUnique},
        {"GetEType<", AdjIndex::Etype},
    };
    int kernels = 0;
    for (models::ModelKind mk : {models::ModelKind::Rgcn,
                                 models::ModelKind::Rgat,
                                 models::ModelKind::Hgt})
        for (bool compact : {false, true})
            for (bool reorder : {false, true})
                for (bool training : {false, true}) {
                    const auto m = compileModel(mk, compact, reorder, training);
                    auto check = [&](const Program &p,
                                     const LoweredFunction &fn) {
                        std::vector<TraversalInstance> walks = fn.traversals;
                        for (std::size_t i = 0; i < fn.order.size(); ++i)
                            if (fn.foldsIntoPrevious(i))
                                walks.push_back(mergedTraversal(
                                    p, fn.traversals[fn.order[i - 1].index],
                                    fn.traversals[fn.order[i].index]));
                        for (const auto &ti : walks) {
                            const std::string kernel =
                                kernelText(m.code.cudaSource, ti.name);
                            ASSERT_FALSE(kernel.empty()) << ti.name;
                            std::set<AdjIndex> listed;
                            for (const auto &r : adjacencyReads(p, ti))
                                listed.insert(r.index);
                            for (const auto &[needle, index] : needles) {
                                const int n = occurrences(kernel, needle);
                                EXPECT_LE(n, 1) << ti.name << " " << needle
                                                << "\n" << kernel;
                                EXPECT_TRUE(n == 0 || listed.count(index))
                                    << ti.name << " " << needle << "\n"
                                    << kernel;
                            }
                            // The edge id is read from the group's edge
                            // list only when something is located by it.
                            const bool reads_e =
                                kernel.find("const int e = ") !=
                                std::string::npos;
                            EXPECT_EQ(reads_e, ti.grouped() &&
                                                   listed.count(
                                                       AdjIndex::EdgeId) > 0)
                                << ti.name << "\n" << kernel;
                            ++kernels;
                        }
                    };
                    check(m.forwardProgram, m.forwardFn);
                    if (training)
                        check(m.backwardProgram, m.backwardFn);
                }
    EXPECT_GT(kernels, 60);
}

TEST(Codegen, FirstWriteAddsToZeroWithoutReadingItsRow)
{
    // HGT C+R backward: att_dot_grad is accumulated once, by the first
    // walk writing it, so the kernel adds to 0.f instead of reading
    // its zeroed row; att_exp_grad, which an earlier walk wrote, is
    // read back before the second walk adds into it.
    const auto m = compileModel(models::ModelKind::Hgt, true, true, true);
    const std::string dot = kernelText(
        m.code.cudaSource, writerName(m.backwardFn, "att_dot_grad"));
    EXPECT_NE(dot.find("att_dot_grad_reg = 0.f + "), std::string::npos)
        << dot;
    EXPECT_EQ(occurrences(dot, "att_dot_grad["), 1) << dot;
    std::string second;
    for (const auto &ti : m.backwardFn.traversals)
        for (std::size_t i = 0; i < ti.stmts.size(); ++i)
            if (ti.stmts[i].stmt.out.name == "att_exp_grad" &&
                readsOutputRow(m.backwardProgram, ti, i))
                second = kernelText(m.code.cudaSource, ti.name);
    ASSERT_FALSE(second.empty());
    EXPECT_NE(second.find("att_exp_grad[e] + "), std::string::npos)
        << second;
}

TEST(Codegen, VirtualVariablesLiveInRegisters)
{
    // Inference fuses att_n away; the traversal kernel must declare a
    // register for it rather than a global tensor access.
    const auto m = compileModel(models::ModelKind::Rgat, false, false);
    EXPECT_NE(m.code.cudaSource.find("float att_n_reg;"),
              std::string::npos);
}

TEST(Codegen, BackwardEmitsOuterKernelsWithoutWeightAtomics)
{
    const auto m =
        compileModel(models::ModelKind::Rgat, false, false, true);
    const std::string &cuda = m.code.cudaSource;
    EXPECT_NE(cuda.find("======== backward ========"), std::string::npos);
    EXPECT_NE(cuda.find("gemm_outer_"), std::string::npos);
    EXPECT_NE(cuda.find("outer-product gradient"), std::string::npos);
    // Weight-vector gradients are outer-product GEMMs too: no kernel
    // of any training plan adds into a weight gradient by atomics.
    for (models::ModelKind mk :
         {models::ModelKind::Rgcn, models::ModelKind::Rgat,
          models::ModelKind::Hgt})
        for (bool optimized : {false, true}) {
            const auto t = compileModel(mk, optimized, optimized, true);
            for (const auto &[w, wi] : t.forwardProgram.weights)
                EXPECT_EQ(t.code.cudaSource.find("atomicAdd(&" + w + "_grad"),
                          std::string::npos)
                    << models::toString(mk) << " " << w;
            for (const auto &gi : t.backwardFn.gemms)
                EXPECT_FALSE(kernelText(t.code.cudaSource, gi.name).empty())
                    << gi.name;
        }
}

TEST(Codegen, SplitBackwardWalksKaGradByPair)
{
    // HGT C+R: q_grad is summed per destination node, and ka_grad,
    // which the same edge loop scatters into compact rows, per pair in
    // a kernel of its own; neither by atomics.
    const auto m = compileModel(models::ModelKind::Hgt, true, true, true);
    const std::string &cuda = m.code.cudaSource;
    const std::string ka = kernelText(cuda, writerName(m.backwardFn,
                                                       "ka_grad"));
    const std::string q = kernelText(cuda, writerName(m.backwardFn,
                                                      "q_grad"));
    ASSERT_FALSE(ka.empty());
    ASSERT_FALSE(q.empty());
    EXPECT_NE(ka, q);
    EXPECT_NE(ka.find("for (int u = blockIdx.x; u < args.num_unique;"),
              std::string::npos);
    EXPECT_NE(ka.find("float ka_grad_acc = 0.f;"), std::string::npos);
    EXPECT_NE(ka.find("ka_grad[u * 8 + f] = ka_grad_acc;"),
              std::string::npos);
    EXPECT_EQ(ka.find("atomicAdd"), std::string::npos);
    EXPECT_NE(q.find("for (int n = blockIdx.x; n < args.num_nodes;"),
              std::string::npos);
    EXPECT_NE(q.find("q_grad[n * 8 + f] = q_grad_acc;"), std::string::npos);
    EXPECT_EQ(q.find("atomicAdd"), std::string::npos);
}

/** Every launch of one training step of @p m on @p g, by kernel name. */
std::map<std::string, sim::LaunchRecord>
trainLaunches(const CompiledModel &m, const graph::HeteroGraph &g)
{
    const graph::CompactionMap cmap(g);
    std::mt19937_64 rng(3);
    models::WeightMap weights = models::initWeights(m.forwardProgram, g, rng);
    const tensor::Tensor feature =
        tensor::Tensor::uniform({g.numNodes(), 8}, rng, 0.5f);
    sim::Runtime rt;
    rt.setRecordLaunches(true);
    models::WeightMap grads;
    ExecutionContext ctx;
    ctx.reset(&g, &cmap, &rt, &weights, &grads);
    trainStep(m, ctx, feature);
    std::map<std::string, sim::LaunchRecord> out;
    for (const auto &r : rt.records())
        out.emplace(r.name, r);
    return out;
}

TEST(Codegen, EmittedAtomicsAreThePricedAtomics)
{
    const graph::HeteroGraph g = graph::toyCitationGraph();
    // GEMMs carrying a folded weight-vector kernel: RGAT's backward
    // add (base and C+R) and its C+R forward dot.
    int folded = 0;
    for (models::ModelKind mk :
         {models::ModelKind::Rgcn, models::ModelKind::Rgat,
          models::ModelKind::Hgt})
        for (bool optimized : {false, true}) {
            const auto m = compileModel(mk, optimized, optimized, true);
            const std::string plan = std::string(models::toString(mk)) +
                                     (optimized ? "/C+R" : "/base");
            const auto launches = trainLaunches(m, g);
            auto check = [&](const Program &p, const LoweredFunction &fn) {
                // Every traversal that can launch: each lowered one, and
                // the merged walk of each split edge loop. A split loop
                // launches as its two halves or as its merged walk,
                // whichever prices less, never both.
                std::vector<TraversalInstance> walks = fn.traversals;
                std::set<std::string> shapes;
                for (std::size_t i = 0; i < fn.order.size(); ++i)
                    if (fn.foldsIntoPrevious(i)) {
                        const auto &first =
                            fn.traversals[fn.order[i - 1].index];
                        const auto &second = fn.traversals[fn.order[i].index];
                        walks.push_back(mergedTraversal(p, first, second));
                        const std::string &merged = walks.back().name;
                        EXPECT_EQ(launches.count(first.name),
                                  launches.count(second.name))
                            << plan << " " << second.name;
                        EXPECT_NE(launches.count(second.name),
                                  launches.count(merged))
                            << plan << " " << merged;
                        shapes.insert({first.name, second.name, merged});
                    }
                for (const auto &ti : walks) {
                    const std::string kernel =
                        kernelText(m.code.cudaSource, ti.name);
                    ASSERT_FALSE(kernel.empty()) << plan << " " << ti.name;
                    // One atomicAdd per statement the cost model prices
                    // atomics for; a register row is never scattered.
                    int priced = 0;
                    for (const auto &ss : ti.stmts)
                        priced += ss.hoistLevel != 2 &&
                                  scattersAtomically(p, ss.stmt, ti.domain,
                                                     ti.group);
                    EXPECT_EQ(occurrences(kernel, "atomicAdd("), priced)
                        << plan << " " << ti.name << "\n" << kernel;
                    const auto it = launches.find(ti.name);
                    if (it == launches.end() && shapes.count(ti.name))
                        continue;
                    ASSERT_NE(it, launches.end()) << plan << " " << ti.name;
                    EXPECT_EQ(it->second.atomics > 0.0, priced > 0)
                        << plan << " " << ti.name;
                    // A flat pair kernel's loop variable is the pair id.
                    if (!ti.grouped() && ti.domain == RowDomain::UniquePairs)
                        EXPECT_EQ(kernel.find("edge_to_unique["),
                                  std::string::npos)
                            << plan << " " << ti.name << "\n" << kernel;
                }
                for (const auto &gi : fn.gemms) {
                    const auto it = launches.find(gi.name);
                    ASSERT_NE(it, launches.end()) << plan << " " << gi.name;
                    const std::string kernel =
                        kernelText(m.code.cudaSource, gi.name);
                    EXPECT_EQ(occurrences(kernel, "atomicAdd("),
                              it->second.atomics > 0.0 ? 1 : 0)
                        << plan << " " << gi.name;
                    if (gi.epilogue.empty() && gi.prologue.empty())
                        continue;
                    // A folded GEMM prices no atomics and emits none: a
                    // block owns whole rows and reduces each dot in
                    // shared memory.
                    ++folded;
                    EXPECT_EQ(it->second.atomics, 0.0) << plan << " " << gi.name;
                    EXPECT_EQ(occurrences(kernel, "atomicAdd"), 0)
                        << plan << " " << gi.name << "\n" << kernel;
                    for (const auto &t : gi.epilogue)
                        EXPECT_NE(kernel.find(t.var + "[r] = " + t.var +
                                              "_acc;"),
                                  std::string::npos)
                            << kernel;
                    for (const auto &t : gi.prologue)
                        EXPECT_NE(kernel.find("y2 += " + t.var + "[r] * " +
                                              t.weight + "["),
                                  std::string::npos)
                            << kernel;
                }
            };
            check(m.forwardProgram, m.forwardFn);
            check(m.backwardProgram, m.backwardFn);
        }
    EXPECT_EQ(folded, 3);
}

TEST(Codegen, WeightVectorRowLoadedOncePerEtypeRun)
{
    // RGAT C+R: attt = dot(e.dst.feature, w_t__W[e.etype]) walks each
    // node's in-edges, whose etypes come in runs.
    const auto m = compileModel(models::ModelKind::Rgat, true, true, true);
    const std::string fwd =
        kernelText(m.code.cudaSource, writerName(m.forwardFn, "attt"));
    const std::size_t decl = fwd.find("float ld_w_t__W = 0.f;");
    const std::size_t loop = fwd.find("for (int i = args.in_ptr[n]");
    const std::size_t guard = fwd.find(
        "if (etype != ld_etype) { ld_etype = etype; "
        "ld_w_t__W = w_t__W[etype * dim + f]; }");
    ASSERT_NE(decl, std::string::npos) << fwd;
    ASSERT_NE(loop, std::string::npos);
    ASSERT_NE(guard, std::string::npos) << fwd;
    EXPECT_LT(fwd.find("int ld_etype = -1;"), loop);
    EXPECT_LT(decl, loop);
    EXPECT_GT(guard, loop);
    EXPECT_EQ(occurrences(fwd, "w_t__W[etype * dim + f]"), 1);
    EXPECT_NE(fwd.find("warp_dot(ld_dst_feature, ld_w_t__W)"),
              std::string::npos);

    // In every training plan, no statement indexes a weight vector
    // itself: each row is read into its register, per etype run in a
    // grouped kernel and per row in a flat one.
    for (models::ModelKind mk :
         {models::ModelKind::Rgcn, models::ModelKind::Rgat,
          models::ModelKind::Hgt})
        for (bool optimized : {false, true}) {
            const auto t = compileModel(mk, optimized, optimized, true);
            std::istringstream lines(t.code.cudaSource);
            for (std::string line; std::getline(lines, line);) {
                if (line.find("[etype * dim + f]") == std::string::npos)
                    continue;
                const std::size_t at = line.find_first_not_of(' ');
                EXPECT_TRUE(line.compare(at, 15, "const float ld_") == 0 ||
                            line.compare(at, 22,
                                         "if (etype != ld_etype)") == 0)
                    << models::toString(mk) << ": " << line;
            }
        }
}

TEST(Codegen, HostRegistersEveryForwardKernel)
{
    const auto m = compileModel(models::ModelKind::Hgt, true, true, true);
    const std::string &host = m.code.hostSource;
    EXPECT_NE(host.find("TORCH_LIBRARY_FRAGMENT(hector, m)"),
              std::string::npos);
    for (const auto &gi : m.forwardFn.gemms)
        EXPECT_NE(host.find("m.def(\"" + gi.name + "\""),
                  std::string::npos)
            << gi.name;
    for (const auto &ti : m.forwardFn.traversals)
        EXPECT_NE(host.find("m.def(\"" + ti.name + "\""),
                  std::string::npos)
            << ti.name;
}

TEST(Codegen, PreprocessingScanListsCompactionRequirement)
{
    const auto vanilla = compileModel(models::ModelKind::Rgat, false,
                                      false);
    const auto compact = compileModel(models::ModelKind::Rgat, true,
                                      false);
    EXPECT_EQ(vanilla.code.hostSource.find("unique (src, etype) map"),
              std::string::npos);
    EXPECT_NE(compact.code.hostSource.find("unique (src, etype) map"),
              std::string::npos);
    EXPECT_NE(vanilla.code.hostSource.find("presort edges by type"),
              std::string::npos);
}

TEST(Codegen, PythonBindingsPairForwardAndBackward)
{
    const auto m =
        compileModel(models::ModelKind::Rgcn, false, false, true);
    const std::string &py = m.code.pythonSource;
    EXPECT_NE(py.find("class rgcnFunction(torch.autograd.Function)"),
              std::string::npos);
    EXPECT_NE(py.find("def forward(ctx"), std::string::npos);
    EXPECT_NE(py.find("def backward(ctx"), std::string::npos);
}

TEST(Codegen, LineCountsConsistent)
{
    const auto m = compileModel(models::ModelKind::Hgt, true, true, true);
    EXPECT_GT(m.code.cudaLines, 100);
    EXPECT_GT(m.code.hostLines, 50);
    EXPECT_GT(m.code.pythonLines, 10);
    int newlines = 0;
    for (char c : m.code.cudaSource)
        if (c == '\n')
            ++newlines;
    EXPECT_EQ(newlines, m.code.cudaLines);
}

TEST(Codegen, FallbackUsesFrameworkBmm)
{
    const auto m = compileModel(models::ModelKind::Hgt, false, true);
    EXPECT_NE(m.code.hostSource.find("torch::bmm"), std::string::npos);
}

TEST(Codegen, DistinctKernelIdentifiers)
{
    // Every kernel gets a unique kid-derived name (the paper's
    // FuncName<kid> specialization).
    const auto m =
        compileModel(models::ModelKind::Rgat, true, true, true);
    std::set<std::string> names;
    for (const auto &gi : m.forwardFn.gemms)
        EXPECT_TRUE(names.insert(gi.name).second) << gi.name;
    for (const auto &ti : m.forwardFn.traversals)
        EXPECT_TRUE(names.insert(ti.name).second) << ti.name;
    for (const auto &gi : m.backwardFn.gemms)
        EXPECT_TRUE(names.insert(gi.name).second) << gi.name;
    for (const auto &ti : m.backwardFn.traversals)
        EXPECT_TRUE(names.insert(ti.name).second) << ti.name;
}

} // namespace
