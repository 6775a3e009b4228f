/**
 * @file
 * ServingSession: the single-variant façade of the serving runtime.
 *
 * A session serves one model over one host-resident graph, the way a
 * production deployment keeps a trained RGNN resident and answers a
 * stream of neighborhood queries. Since the multi-tenant refactor the
 * session owns no serving machinery of its own: it registers exactly
 * one variant ("default") with a serve::Engine and forwards every
 * call, so the single-model path and the multi-variant path are the
 * same code — plan caching (bounded, LRU), per-variant weights and
 * pooled arena execution contexts, micro-batch coalescing, stream
 * multiplexing, and (opt-in) autotuned GEMM schedules all live in
 * engine.{hh,cc}.
 *
 * The serving pipeline is the first subsystem layered on *top* of the
 * compiler: it only consumes the public compile/execute API, never the
 * IR internals.
 */

#ifndef HECTOR_SERVE_SESSION_HH
#define HECTOR_SERVE_SESSION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine.hh"

namespace hector::serve
{

class ServingSession
{
  public:
    /**
     * @param g             host-resident full graph (outlives session)
     * @param host_features host-resident node features, [nodes, din]
     * @param model_source  model in the textual DSL (model_sources.hh)
     *
     * Throws std::invalid_argument when @p cfg is invalid (zero
     * maxBatch/numStreams/din/dout, negative deadline), naming the
     * offending field.
     */
    ServingSession(const graph::HeteroGraph &g,
                   tensor::Tensor host_features, std::string model_source,
                   ServingConfig cfg, sim::Runtime &rt);

    /**
     * Sample a neighborhood query, pay its host-to-device transfer,
     * and enqueue it. Returns the request id.
     */
    std::uint64_t submit() { return engine_.submit(0); }

    /** Enqueue an externally prepared request. */
    std::uint64_t
    submit(graph::Minibatch mb, tensor::Tensor feature)
    {
        return engine_.submit(0, std::move(mb), std::move(feature));
    }

    /** Serve every queued request; returns the cycle's metrics. */
    ServingReport drain() { return engine_.drain(); }

    /**
     * Serve the min(n, queued()) oldest queued requests as ONE
     * micro-batch issued to @p stream, retaining their results
     * alongside any previous ones (engine().clearResults() bounds
     * memory). Unlike drain(), no timeline is imposed: the caller owns
     * the clock. Returns the batch's modeled cost (zeroed when the
     * queue is empty).
     */
    BatchCost
    serveOldest(std::size_t n, int stream = 0)
    {
        return engine_.serveOldest(0, n, stream);
    }

    /**
     * Output of a served request, [its subgraph nodes, dout]; nullptr
     * until the request's drain cycle ran. Results are retained only
     * until the next drain cycle starts (the session stays
     * bounded-memory no matter how many requests it serves).
     */
    const tensor::Tensor *
    result(std::uint64_t id) const
    {
        return engine_.result(id);
    }

    /** Modeled per-request latencies of the last drain cycle, ms. */
    const std::vector<double> &
    lastLatenciesMs() const
    {
        return engine_.lastLatenciesMs();
    }

    PlanCache &planCache() { return engine_.planCache(); }
    models::WeightMap &weights() { return engine_.weights(0); }
    const ServingConfig &config() const { return cfg_; }
    std::size_t queued() const { return engine_.queued(); }

    /** The engine behind the façade (multi-tenant observability:
     *  schedule keys, cache budget, plan events). */
    Engine &engine() { return engine_; }

  private:
    ServingConfig cfg_;
    Engine engine_;
};

} // namespace hector::serve

#endif // HECTOR_SERVE_SESSION_HH
