/**
 * @file
 * fullgraph-infer and fullgraph-train: paper Fig. 8, inference and
 * training, on the `mag` stand-in. One op is one forward pass
 * (inference) or one training step of each of RGCN, RGAT and HGT over
 * the whole graph.
 */

#include <algorithm>
#include <optional>
#include <random>

#include "common.hh"
#include "core/jit.hh"
#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "models/models.hh"

namespace perfbench
{

using namespace hector;

namespace
{

const models::ModelKind kModels[] = {models::ModelKind::Rgcn,
                                     models::ModelKind::Rgat,
                                     models::ModelKind::Hgt};

class FullGraph : public Workload
{
  public:
    FullGraph(std::uint64_t seed, bool train) : seed_(seed), train_(train)
    {}

    std::vector<PlanFacts>
    prime() override
    {
        const graph::HeteroGraph g = makeGraph();
        std::vector<PlanFacts> facts;
        for (models::ModelKind m : kModels)
            facts.push_back(primePlan(models::buildModel(m, g, kDim, kDim),
                                      crOptions(true)));
        return facts;
    }

    void
    setup(Phase) override
    {
        models_.clear();
        cmap_.reset();
        graph_.reset();
        graph_.emplace(makeGraph());
        cmap_.emplace(*graph_);
        for (models::ModelKind m : kModels)
            models_.push_back(std::make_unique<Model>(
                m, *graph_,
                deriveSeed(seed_, 10 + static_cast<std::uint64_t>(m))));
        for (int i = 0; i < kWarmupUnits; ++i)
            (void)runUnit(nullptr);
        base_.clear();
        for (const auto &mm : models_)
            base_.push_back(readSim(mm->rt));
        units_ = 0;
    }

    UnitResult
    runUnit(SpanLog *spans) override
    {
        UnitResult r;
        r.ops = 1.0;
        const int fwd = spans ? spans->layer("core.forward") : -1;
        const int bwd = spans ? spans->layer("core.backward") : -1;
        double modeled_sec = 0.0;
        std::vector<tensor::Tensor> outs;
        const double t0 = nowMs();
        for (const auto &mm : models_) {
            const double before = mm->rt.totalTimeSec();
            outs.push_back(train_
                               ? mm->step(*graph_, *cmap_, spans, fwd, bwd)
                               : mm->infer(*graph_, *cmap_, spans, fwd));
            modeled_sec += mm->rt.totalTimeSec() - before;
        }
        r.wallMs = nowMs() - t0;
        r.latencyMs.push_back(r.wallMs);
        r.modelLatencyMs.push_back(modeled_sec * 1e3 / kScale);

        // Output check material, outside the timed region: the forward
        // outputs and, training, every weight gradient.
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::size_t i = 0; i < models_.size(); ++i) {
            h = digestTensor(outs[i], h);
            if (train_)
                for (const auto &[name, grad] : models_[i]->grads)
                    h = digestTensor(grad, h);
        }
        r.digests.push_back(h);
        ++units_;
        return r;
    }

    int prefixUnits() const override { return kPrefixUnits; }
    int
    epochUnits() const override
    {
        return train_ ? kTrainEpochUnits : kInferEpochUnits;
    }
    bool unitsRepeat() const override { return true; }

    void
    snapshot(MetricSet &out) const override
    {
        SimTotals delta;
        double peak = 0.0;
        for (std::size_t i = 0; i < models_.size(); ++i) {
            const sim::Runtime &rt = models_[i]->rt;
            delta = add(delta, subtract(readSim(rt), base_[i]));
            peak = std::max(peak,
                            static_cast<double>(rt.tracker().peakBytes()));
        }
        addSimMetrics(out, delta, units_);
        out.set("model_peak_mem_mb", peak / (1024.0 * 1024.0), "MiB",
                Clock::Modeled, true,
                "largest of the three models' modeled devices");
    }

  private:
    static constexpr int kWarmupUnits = 2;
    static constexpr int kPrefixUnits = 2;
    /** About 3 s of rounds per set-up of about 0.5 s. */
    static constexpr int kTrainEpochUnits = 16;
    static constexpr int kInferEpochUnits = 80;

    /** One model on its own modeled device, with its pooled context
     *  (as serve::Engine keeps one per variant). */
    struct Model
    {
        core::CompiledModel plan;
        models::WeightMap weights;
        models::WeightMap grads;
        tensor::Tensor feature;
        sim::Runtime rt;
        core::ExecutionContext ctx;

        Model(models::ModelKind m, const graph::HeteroGraph &g,
              std::uint64_t seed)
            : rt(sim::makeScaledSpec(kScale))
        {
            std::mt19937_64 rng(seed);
            core::Program p = models::buildModel(m, g, kDim, kDim);
            weights = models::initWeights(p, g, rng);
            feature = tensor::Tensor::uniform({g.numNodes(), kDim}, rng,
                                              0.5f);
            plan = core::compile(std::move(p), crOptions(true));
            core::jit::attach(plan);
        }

        /** One forward pass over the whole graph (timed traced). */
        tensor::Tensor
        infer(const graph::HeteroGraph &g, const graph::CompactionMap &cmap,
              SpanLog *spans, int fwd)
        {
            auto scope = rt.memoryScope();
            ctx.reset(&g, &cmap, &rt, &weights, &grads);
            ctx.adoptPlan(&plan.memoryPlan);
            core::bindInputs(plan, ctx, feature);
            ScopedSpan s(spans, fwd);
            return plan.forward(ctx);
        }

        /** One core::trainStep. Traced, the step's public calls are
         *  made here and forward/backward timed. */
        tensor::Tensor
        step(const graph::HeteroGraph &g, const graph::CompactionMap &cmap,
             SpanLog *spans, int fwd, int bwd)
        {
            auto scope = rt.memoryScope();
            grads.clear();
            ctx.reset(&g, &cmap, &rt, &weights, &grads);
            ctx.adoptPlan(&plan.memoryPlan);
            if (!spans)
                return core::trainStep(plan, ctx, feature);
            core::bindInputs(plan, ctx, feature);
            tensor::Tensor out;
            {
                ScopedSpan s(spans, fwd);
                out = plan.forward(ctx);
            }
            // core::trainStep's seed gradient and loss charge.
            tensor::Tensor seed_grad(out.shape());
            const float scale =
                1.0f / static_cast<float>(
                           std::max<std::int64_t>(1, out.dim(0)));
            for (std::size_t i = 0; i < seed_grad.numel(); ++i)
                seed_grad.data()[i] = scale;
            ctx.bindExternal(core::gradOf(plan.forwardProgram.outputVar),
                             std::move(seed_grad));
            sim::KernelDesc loss;
            loss.name = "nll_loss";
            loss.category = sim::KernelCategory::Elementwise;
            loss.phase = sim::Phase::Forward;
            loss.flops = static_cast<double>(out.numel());
            loss.bytesRead = 4.0 * static_cast<double>(out.numel());
            loss.bytesWritten = loss.bytesRead;
            loss.workItems = static_cast<double>(out.numel());
            rt.launch(loss, nullptr);
            {
                ScopedSpan s(spans, bwd);
                plan.backward(ctx);
            }
            return out;
        }
    };

    graph::HeteroGraph
    makeGraph() const
    {
        return graph::generate(graph::datasetSpec("mag"), kScale,
                               deriveSeed(seed_, 1));
    }

    std::uint64_t seed_;
    bool train_;
    std::optional<graph::HeteroGraph> graph_;
    std::optional<graph::CompactionMap> cmap_;
    std::vector<std::unique_ptr<Model>> models_;
    std::vector<SimTotals> base_;
    double units_ = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeFullGraph(std::uint64_t seed, bool train)
{
    return std::make_unique<FullGraph>(seed, train);
}

} // namespace perfbench
