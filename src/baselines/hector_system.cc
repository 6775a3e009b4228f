/**
 * @file
 * Hector as a System: compiles the requested model with the requested
 * optimization combination and executes the generated kernel
 * instances for real (math + modeled cost), unlike the baselines
 * whose strategies are cost-modeled around a reference computation.
 */

#include <stdexcept>

#include "baselines/baseline.hh"
#include "core/compiler.hh"
#include "models/models.hh"

namespace hector::baselines
{

using graph::CompactionMap;
using graph::HeteroGraph;
using models::ModelKind;
using models::WeightMap;
using tensor::Tensor;

namespace
{

class HectorSystemImpl : public System
{
  public:
    explicit HectorSystemImpl(std::string tag) : tag_(std::move(tag))
    {
        if (tag_ != "" && tag_ != "C" && tag_ != "R" && tag_ != "C+R")
            throw std::runtime_error("unknown Hector option tag: " + tag_);
    }

    std::string
    name() const override
    {
        return tag_.empty() ? "Hector" : "Hector " + tag_;
    }

    bool
    supports(ModelKind, bool) const override
    {
        return true;
    }

    RunResult
    run(ModelKind m, const HeteroGraph &g, const WeightMap &w,
        const Tensor &feature, sim::Runtime &rt,
        bool training) const override
    {
        core::CompileOptions opts;
        opts.compactMaterialization = tag_ == "C" || tag_ == "C+R";
        opts.linearReorder = tag_ == "R" || tag_ == "C+R";
        opts.training = training;

        core::Program program =
            models::buildModel(m, g, feature.dim(1), w.count("W")
                                                         ? w.at("W").dim(2)
                                                         : w.at("K").dim(2));
        const core::CompiledModel compiled = core::compile(program, opts);

        std::optional<CompactionMap> cmap;
        if (opts.compactMaterialization)
            cmap.emplace(g);

        rt.resetCounters();
        RunResult res;
        {
            auto scope = rt.memoryScope();
            core::ExecutionContext ctx;
            ctx.g = &g;
            ctx.cmap = cmap ? &*cmap : nullptr;
            ctx.rt = &rt;
            // Weight map copies share tensor storage; composed weights
            // are added to the copy without touching the caller's map.
            WeightMap weights = w;
            WeightMap grads;
            ctx.weights = &weights;
            ctx.weightGrads = &grads;
            // The product's allocator: the compiled plan's packed arena.
            ctx.adoptPlan(&compiled.memoryPlan);
            try {
                if (training) {
                    res.output = core::trainStep(compiled, ctx, feature);
                } else {
                    core::bindInputs(compiled, ctx, feature);
                    res.output = compiled.forward(ctx);
                }
                // Detach the result from the tracked storage so it
                // outlives the memory scope cleanly.
                tensor::TrackerScope untracked(nullptr);
                res.output = res.output.clone();
            } catch (const tensor::OomError &) {
                res.oom = true;
            }
        }
        res.timeMs = rt.totalTimeMs();
        res.peakBytes = rt.tracker().peakBytes();
        res.launches = rt.counters().total().launches;
        return res;
    }

  private:
    std::string tag_;
};

} // namespace

std::unique_ptr<System>
hectorSystem(const std::string &opt_tag)
{
    return std::make_unique<HectorSystemImpl>(opt_tag);
}

} // namespace hector::baselines
