/**
 * @file
 * Dynamic micro-batching for the serving runtime.
 *
 * Each inference request carries a sampled subgraph (a graph::Sampler
 * minibatch block) and its device-resident features. Requests that
 * target the same compiled plan are coalesced into one micro-batch:
 * the disjoint union of their subgraphs, executed as a *single*
 * batched forward pass. Because every compiled kernel is
 * graph-agnostic and every aggregation is per-destination-node, the
 * union execution performs exactly the per-request arithmetic — each
 * request's rows of the batched output equal its standalone output —
 * while paying one set of kernel launches instead of B, and launching
 * kernels large enough to occupy the modeled device (the same
 * batching-over-independent-queries route to throughput as GPU-based
 * ASP solving takes; see PAPERS.md).
 *
 * Batching copies no rows. The kernels read each request's feature
 * rows in place and write each request's result rows in place,
 * through per-node row tables over the union graph (see
 * core::ExecutionContext::bindRowTable); no union feature tensor or
 * union output buffer exists, and no copy kernel is launched.
 */

#ifndef HECTOR_SERVE_MICRO_BATCH_HH
#define HECTOR_SERVE_MICRO_BATCH_HH

#include <cstdint>
#include <vector>

#include "core/compiler.hh"
#include "graph/compaction.hh"
#include "graph/sampler.hh"
#include "models/models.hh"
#include "sim/runtime.hh"
#include "tensor/tensor.hh"

namespace hector::serve
{

/** One queued inference request. */
struct Request
{
    std::uint64_t id = 0;
    /** Sampled subgraph block (graph::Sampler). */
    graph::Minibatch mb;
    /** Device features of the subgraph's nodes, [nodes, din]. */
    tensor::Tensor feature;
    /** Absolute point on its device's host-transfer clock at which
     *  the request was submitted (TransferClock); never rewritten. */
    double submitSec = 0.0;
    /**
     * Model variant this request targets (serve::Engine registry
     * index; 0 in single-variant sessions). Requests of different
     * variants run different plans, so coalesce() refuses to union
     * them into one micro-batch.
     */
    std::uint32_t variant = 0;

    Request(std::uint64_t id_, graph::Minibatch mb_,
            tensor::Tensor feature_, std::uint32_t variant_ = 0)
        : id(id_), mb(std::move(mb_)), feature(std::move(feature_)),
          variant(variant_)
    {}
};

/** The disjoint union of several request subgraphs, ready to run. */
struct MicroBatch
{
    graph::HeteroGraph unionGraph;
    graph::CompactionMap cmap;
    /** Input row table: union node u's feature row, in its request's
     *  own feature tensor. */
    core::RowTable featureRows;
    /** The coalesced requests, in submission order. */
    std::vector<const Request *> requests;
    /** Per request: union row of each subgraph-local node. */
    std::vector<std::vector<std::int64_t>> localToUnion;

    MicroBatch(graph::HeteroGraph g, graph::CompactionMap cm)
        : unionGraph(std::move(g)), cmap(std::move(cm))
    {}
};

/**
 * Coalesce @p requests (all sharing one graph schema and feature
 * width, each with one feature row per subgraph node; throws
 * otherwise) into a micro-batch: the union graph and the input row
 * table into the requests' feature tensors, which must outlive the
 * batch. Launches nothing on the simulated device @p rt.
 */
MicroBatch coalesce(const std::vector<const Request *> &requests,
                    sim::Runtime &rt);

/**
 * Run one batched forward pass of @p plan over @p batch, writing each
 * request's output rows in place into a zeroed result tensor of its
 * own through the output row table. Results are ordered like
 * batch.requests; each tensor is [request subgraph nodes, dout]. The
 * forward's launches are the only ones.
 */
std::vector<tensor::Tensor> executeBatch(const core::CompiledModel &plan,
                                         const MicroBatch &batch,
                                         models::WeightMap &weights,
                                         sim::Runtime &rt);

/**
 * executeBatch with a caller-pooled execution context: @p ctx is
 * reset (rebinding it to the batch's union graph) and, when
 * @p use_arena, adopts the plan's arena memory plan so intermediate
 * tensors come from the context's pooled slot buffers — in steady
 * state the executor performs zero hot-path tensor allocations across
 * requests. The serving sessions own one such context (per device)
 * for exactly this reuse.
 */
std::vector<tensor::Tensor> executeBatch(const core::CompiledModel &plan,
                                         const MicroBatch &batch,
                                         models::WeightMap &weights,
                                         sim::Runtime &rt,
                                         core::ExecutionContext &ctx,
                                         models::WeightMap &grads,
                                         bool use_arena = true);

} // namespace hector::serve

#endif // HECTOR_SERVE_MICRO_BATCH_HH
