#include "serve/micro_batch.hh"

#include <stdexcept>
#include <string>

namespace hector::serve
{

using graph::HeteroGraph;
using tensor::Tensor;

MicroBatch
coalesce(const std::vector<const Request *> &requests, sim::Runtime &)
{
    if (requests.empty())
        throw std::runtime_error("coalesce: empty request set");

    const HeteroGraph &g0 = requests.front()->mb.subgraph;
    const std::int64_t din = requests.front()->feature.dim(1);
    const std::uint32_t variant = requests.front()->variant;
    for (const Request *r : requests) {
        if (r->variant != variant)
            throw std::runtime_error(
                "coalesce: requests target different model variants");
        if (!r->mb.subgraph.sameSchema(g0))
            throw std::runtime_error(
                "coalesce: requests target different graph schemas");
        if (r->feature.dim(1) != din)
            throw std::runtime_error(
                "coalesce: requests have mismatched feature dims");
        if (r->feature.dim(0) != r->mb.subgraph.numNodes())
            throw std::runtime_error(
                "coalesce: a request's feature rows do not match its "
                "subgraph's nodes");
    }

    // Disjoint union. Union node ids are assigned per node type, then
    // per request, then in subgraph-local order; within one request
    // this keeps the union id monotone in the local id, so each
    // destination node's incoming edges sort into the same relative
    // order as in the standalone subgraph and batched aggregation
    // reproduces the standalone result bit for bit.
    std::int64_t total_nodes = 0;
    for (const Request *r : requests)
        total_nodes += r->mb.subgraph.numNodes();

    std::vector<std::vector<std::int64_t>> l2u(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        l2u[i].assign(
            static_cast<std::size_t>(requests[i]->mb.subgraph.numNodes()),
            -1);

    std::vector<std::int32_t> node_type;
    node_type.reserve(static_cast<std::size_t>(total_nodes));
    std::int64_t next = 0;
    for (int t = 0; t < g0.numNodeTypes(); ++t) {
        for (std::size_t i = 0; i < requests.size(); ++i) {
            const HeteroGraph &g = requests[i]->mb.subgraph;
            const std::int64_t lo =
                g.ntypePtr()[static_cast<std::size_t>(t)];
            const std::int64_t hi =
                g.ntypePtr()[static_cast<std::size_t>(t) + 1];
            for (std::int64_t v = lo; v < hi; ++v) {
                l2u[i][static_cast<std::size_t>(v)] = next++;
                node_type.push_back(static_cast<std::int32_t>(t));
            }
        }
    }

    std::vector<graph::EdgeTriple> edges;
    {
        std::int64_t total_edges = 0;
        for (const Request *r : requests)
            total_edges += r->mb.subgraph.numEdges();
        edges.reserve(static_cast<std::size_t>(total_edges));
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const HeteroGraph &g = requests[i]->mb.subgraph;
        for (std::int64_t e = 0; e < g.numEdges(); ++e) {
            edges.push_back(
                {l2u[i][static_cast<std::size_t>(
                     g.src()[static_cast<std::size_t>(e)])],
                 l2u[i][static_cast<std::size_t>(
                     g.dst()[static_cast<std::size_t>(e)])],
                 g.etype()[static_cast<std::size_t>(e)]});
        }
    }

    std::vector<std::int32_t> src_nt;
    std::vector<std::int32_t> dst_nt;
    for (int r = 0; r < g0.numEdgeTypes(); ++r) {
        src_nt.push_back(g0.etypeSrcNtype(r));
        dst_nt.push_back(g0.etypeDstNtype(r));
    }

    HeteroGraph u(std::move(node_type), g0.numNodeTypes(),
                  g0.numEdgeTypes(), std::move(src_nt), std::move(dst_nt),
                  std::move(edges));
    graph::CompactionMap cmap(u);

    MicroBatch batch(std::move(u), std::move(cmap));
    batch.requests = requests;
    batch.localToUnion = std::move(l2u);

    // The input table: union node u's feature row is its request's
    // own row, read in place by the kernels.
    batch.featureRows.resize(static_cast<std::size_t>(total_nodes));
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Tensor f = requests[i]->feature;
        const auto &l2un = batch.localToUnion[i];
        for (std::size_t v = 0; v < l2un.size(); ++v)
            batch.featureRows[static_cast<std::size_t>(l2un[v])] =
                f.row(static_cast<std::int64_t>(v));
    }

    return batch;
}

std::vector<Tensor>
executeBatch(const core::CompiledModel &plan, const MicroBatch &batch,
             models::WeightMap &weights, sim::Runtime &rt)
{
    core::ExecutionContext ctx;
    models::WeightMap grads;
    return executeBatch(plan, batch, weights, rt, ctx, grads);
}

std::vector<Tensor>
executeBatch(const core::CompiledModel &plan, const MicroBatch &batch,
             models::WeightMap &weights, sim::Runtime &rt,
             core::ExecutionContext &ctx, models::WeightMap &grads,
             bool use_arena)
{
    grads.clear();
    ctx.reset(&batch.unionGraph, &batch.cmap, &rt, &weights, &grads);
    ctx.adoptPlan(use_arena ? &plan.memoryPlan : nullptr);

    // One zeroed result tensor per request; the output table points
    // union node u at its request's row, which the kernels write in
    // place.
    const std::int64_t dout =
        plan.forwardProgram.varInfo(plan.forwardProgram.outputVar).cols;
    std::vector<Tensor> results;
    results.reserve(batch.requests.size());
    core::RowTable out_rows(batch.featureRows.size());
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
        Tensor &o = results.emplace_back(std::vector<std::int64_t>{
            batch.requests[i]->mb.subgraph.numNodes(), dout});
        const auto &l2un = batch.localToUnion[i];
        for (std::size_t v = 0; v < l2un.size(); ++v)
            out_rows[static_cast<std::size_t>(l2un[v])] =
                o.row(static_cast<std::int64_t>(v));
    }

    ctx.bindRowTable(plan.forwardProgram.inputVar, batch.featureRows);
    ctx.bindRowTable(plan.forwardProgram.outputVar, std::move(out_rows));
    core::bindGraphInputs(plan, ctx);
    plan.forward(ctx);
    return results;
}

} // namespace hector::serve
