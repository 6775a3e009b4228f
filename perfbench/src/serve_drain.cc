/**
 * @file
 * serve-drain: one closed-loop client on the `am` stand-in. It submits
 * a micro-batch's worth of sampled RGAT requests through
 * serve::ServingSession, calls drain(), and repeats. One op is one
 * request.
 */

#include <optional>
#include <random>

#include "common.hh"
#include "core/frontend.hh"
#include "graph/datasets.hh"
#include "models/model_sources.hh"
#include "serve/micro_batch.hh"
#include "serve/session.hh"

namespace perfbench
{

using namespace hector;

namespace
{

/** Requests per drain: one full micro-batch. */
constexpr int kRequestsPerDrain = 8;

class ServeDrain : public Workload
{
  public:
    explicit ServeDrain(std::uint64_t seed) : seed_(seed) {}

    std::vector<PlanFacts>
    prime() override
    {
        const serve::ServingConfig cfg = config();
        return {primePlan(
            core::parseModel(models::kRgatSource, cfg.din, cfg.dout),
            cfg.compile)};
    }

    void
    setup(Phase phase) override
    {
        session_.reset();
        replica_.reset();
        rt_.reset();
        graph_.reset();
        graph_.emplace(graph::generate(graph::datasetSpec("am"), kScale,
                                       kServingGraphSeed));
        std::mt19937_64 frng(deriveSeed(seed_, 2));
        features_ =
            tensor::Tensor::uniform({graph_->numNodes(), kDim}, frng, 0.5f);
        rt_.emplace(sim::makeScaledSpec(kScale));
        if (phase == Phase::Traced)
            replica_ = std::make_unique<Replica>(*graph_, features_,
                                                 config(), *rt_);
        else
            session_ = std::make_unique<serve::ServingSession>(
                *graph_, features_, models::kRgatSource, config(), *rt_);
        SpanLog warmup_spans; // the traced path always records
        for (int i = 0; i < kWarmupUnits; ++i)
            (void)runUnit(replica_ ? &warmup_spans : nullptr);
        base_ = readSim(*rt_);
        requests_ = 0.0;
        batches_ = 0.0;
        sampleNodes_ = 0.0;
    }

    UnitResult
    runUnit(SpanLog *spans) override
    {
        return replica_ ? replica_->cycle(*spans) : drainCycle();
    }

    int prefixUnits() const override { return kPrefixUnits; }
    int epochUnits() const override { return kEpochUnits; }

    void
    snapshot(MetricSet &out) const override
    {
        addSimMetrics(out, subtract(readSim(*rt_), base_), requests_);
        out.set("model_peak_mem_mb",
                static_cast<double>(rt_->tracker().peakBytes()) /
                    (1024.0 * 1024.0),
                "MiB", Clock::Modeled, true, "serving device");
        const serve::PlanCache::Stats &cs =
            session_->planCache().stats();
        out.set("serve.plan_cache.hits", static_cast<double>(cs.hits),
                "count", Clock::Count, true, "since setup");
        out.set("serve.plan_cache.misses", static_cast<double>(cs.misses),
                "count", Clock::Count, true, "since setup");
        out.set("serve.batch_size", batches_ > 0 ? requests_ / batches_ : 0,
                "requests", Clock::Count, true, "mean per micro-batch");
        out.set("graph.sample_nodes",
                requests_ > 0 ? sampleNodes_ / requests_ : 0, "nodes",
                Clock::Count, true, "mean sampled subgraph per request");
    }

  private:
    static constexpr int kWarmupUnits = 16;
    static constexpr int kPrefixUnits = 64;
    /** 8192 requests, about 2.5 s, per set-up of about 0.07 s. */
    static constexpr int kEpochUnits = 1024;

    serve::ServingConfig
    config() const
    {
        serve::ServingConfig cfg;
        cfg.maxBatch = kRequestsPerDrain;
        cfg.din = kDim;
        cfg.dout = kDim;
        cfg.sample.numSeeds = 16;
        cfg.sample.fanout = 4;
        cfg.compile = crOptions(false);
        cfg.seed = deriveSeed(seed_, 3);
        return cfg;
    }

    /** One closed-loop cycle through the program's own entry points. */
    UnitResult
    drainCycle()
    {
        UnitResult r;
        r.ops = kRequestsPerDrain;
        std::uint64_t ids[kRequestsPerDrain];
        double submitted[kRequestsPerDrain];
        const double t0 = nowMs();
        for (int i = 0; i < kRequestsPerDrain; ++i) {
            submitted[i] = nowMs();
            ids[i] = session_->submit();
        }
        const double d0 = nowMs();
        const serve::ServingReport rep = session_->drain();
        const double t1 = nowMs();
        r.wallMs = t1 - t0;
        r.innerMs = t1 - d0;
        for (int i = 0; i < kRequestsPerDrain; ++i) {
            r.latencyMs.push_back(t1 - submitted[i]);
            const tensor::Tensor *out = session_->result(ids[i]);
            r.digests.push_back(out ? digestTensor(*out) : 0);
            sampleNodes_ += out ? static_cast<double>(out->dim(0)) : 0.0;
        }
        for (double ms : session_->lastLatenciesMs())
            r.modelLatencyMs.push_back(ms / kScale);
        requests_ += static_cast<double>(rep.requests);
        batches_ += static_cast<double>(rep.batches);
        return r;
    }

    /**
     * The traced path: the calls serve::Engine makes for submit() and
     * drain(), made here one by one on the same request stream (same
     * seeding order as the engine's variant), each timed.
     */
    struct Replica
    {
        const graph::HeteroGraph &g;
        const tensor::Tensor &features;
        serve::ServingConfig cfg;
        sim::Runtime &rt;
        std::mt19937_64 rng;
        models::WeightMap weights;
        models::WeightMap grads;
        core::ExecutionContext ctx;
        serve::PlanCache cache;
        serve::PlanCompiler compiler;
        serve::PlanKey key;
        std::uint64_t nextId = 1;

        Replica(const graph::HeteroGraph &g_, const tensor::Tensor &f,
                serve::ServingConfig c, sim::Runtime &rt_)
            : g(g_), features(f), cfg(std::move(c)), rt(rt_),
              rng(cfg.seed), compiler(g_, "default", cfg, false),
              key(serve::makePlanKey(models::kRgatSource, cfg.din,
                                     cfg.dout, cfg.compile, g_))
        {
            weights = serve::initVariantWeights(models::kRgatSource,
                                                cfg.din, cfg.dout, g, rng);
        }

        UnitResult
        cycle(SpanLog &spans)
        {
            const int sample = spans.layer("graph.sample");
            const int transfer = spans.layer("graph.transfer");
            const int lookup = spans.layer("serve.plan_lookup");
            const int coalesce = spans.layer("serve.coalesce");
            const int execute = spans.layer("serve.execute_batch");
            UnitResult r;
            r.ops = kRequestsPerDrain;
            std::vector<serve::Request> queue;
            queue.reserve(kRequestsPerDrain);
            double submitted[kRequestsPerDrain];
            const double t0 = nowMs();
            for (int i = 0; i < kRequestsPerDrain; ++i) {
                submitted[i] = nowMs();
                auto scope = rt.memoryScope();
                std::optional<graph::Minibatch> mb;
                {
                    ScopedSpan s(&spans, sample);
                    mb.emplace(graph::sampleNeighbors(g, cfg.sample, rng));
                }
                tensor::Tensor feature;
                {
                    ScopedSpan s(&spans, transfer);
                    feature = graph::transferFeatures(*mb, features, rt);
                }
                queue.emplace_back(nextId++, std::move(*mb),
                                   std::move(feature));
            }
            const double d0 = nowMs();
            std::shared_ptr<const core::CompiledModel> plan;
            {
                ScopedSpan s(&spans, lookup);
                plan = cache.get(key, [&]() {
                    return compiler.compile(key, features, weights);
                });
            }
            auto scope = rt.memoryScope();
            std::vector<const serve::Request *> reqs;
            for (const serve::Request &q : queue)
                reqs.push_back(&q);
            std::optional<serve::MicroBatch> batch;
            {
                ScopedSpan s(&spans, coalesce);
                batch.emplace(serve::coalesce(reqs, rt));
            }
            std::vector<tensor::Tensor> outs;
            {
                ScopedSpan s(&spans, execute);
                outs = serve::executeBatch(*plan, *batch, weights, rt, ctx,
                                           grads, cfg.useArena);
            }
            const double t1 = nowMs();
            r.wallMs = t1 - t0;
            r.innerMs = t1 - d0;
            for (int i = 0; i < kRequestsPerDrain; ++i) {
                r.latencyMs.push_back(t1 - submitted[i]);
                r.digests.push_back(digestTensor(outs[i]));
            }
            return r;
        }
    };

    std::uint64_t seed_;
    std::optional<graph::HeteroGraph> graph_;
    tensor::Tensor features_;
    std::optional<sim::Runtime> rt_;
    std::unique_ptr<serve::ServingSession> session_;
    std::unique_ptr<Replica> replica_;
    SimTotals base_;
    double requests_ = 0.0;
    double batches_ = 0.0;
    double sampleNodes_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeServeDrain(std::uint64_t seed)
{
    return std::make_unique<ServeDrain>(seed);
}

} // namespace perfbench
