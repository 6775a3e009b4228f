#include "core/compiler.hh"

#include <stdexcept>

namespace hector::core
{

std::string
cacheSignature(const CompileOptions &options)
{
    std::string s = "compact=";
    s += options.compactMaterialization ? '1' : '0';
    s += ";reorder=";
    s += options.linearReorder ? '1' : '0';
    s += ";fuse=";
    s += options.fuseTraversalLoops ? '1' : '0';
    s += ";gemmscatter=";
    s += options.fuseGemmScatter ? '1' : '0';
    s += ";training=";
    s += options.training ? '1' : '0';
    s += ";featgrad=";
    s += options.featureGrad ? '1' : '0';
    s += ";tile=" + std::to_string(options.sched.tileSz);
    s += ";coarsen=" + std::to_string(options.sched.coarsening);
    s += ";bounds=";
    s += options.sched.launchBounds ? '1' : '0';
    return s;
}

CompiledModel
compile(Program program, const CompileOptions &options)
{
    CompiledModel m;
    m.options = options;

    if (options.linearReorder) {
        const PassStats s = linearOperatorReordering(program);
        m.passStats.reorderedLinears += s.reorderedLinears;
        m.passStats.composedWeights += s.composedWeights;
    }
    if (options.compactMaterialization) {
        const PassStats s = compactMaterialization(program);
        m.passStats.compactedVars += s.compactedVars;
    }

    // The self-loop fold changes what autodiff differentiates, so it
    // runs first.
    if (options.fuseTraversalLoops)
        m.passStats.fusedLoops +=
            foldAddIntoAggregation(program, options.fuseGemmScatter)
                .fusedLoops;
    if (options.training)
        m.backwardProgram = buildBackward(program, options.featureGrad);

    if (options.fuseTraversalLoops)
        m.passStats.fusedLoops += fuseLoops(program).fusedLoops;

    LowerOptions lopts;
    lopts.fuseGemmScatter = options.fuseGemmScatter;
    lopts.sched = options.sched;

    m.forwardFn = lower(program, lopts, sim::Phase::Forward);
    if (options.training) {
        // Merging the backward's many flat edge loops reduces kernel
        // count.
        if (options.fuseTraversalLoops)
            fuseLoops(m.backwardProgram);
        // Backward kernel ids continue after the forward's, so every
        // generated kernel name is unique within the plan.
        m.backwardFn =
            lower(m.backwardProgram, lopts, sim::Phase::Backward,
                  static_cast<int>(m.forwardFn.kernelCount()) + 1);
    }
    // With both directions lowered, every edge temporary that only its
    // own instance references stays in registers.
    if (options.fuseTraversalLoops)
        m.passStats.virtualizedVars += virtualizeTemporaries(
            program, m.forwardFn,
            options.training ? &m.backwardProgram : nullptr,
            options.training ? &m.backwardFn : nullptr);

    m.forwardProgram = std::move(program);
    m.memoryPlan = planMemory(
        m.forwardProgram, m.forwardFn,
        options.training ? &m.backwardProgram : nullptr,
        options.training ? &m.backwardFn : nullptr);
    m.code = generateCode(m.forwardProgram, m.forwardFn,
                          options.training ? &m.backwardProgram : nullptr,
                          options.training ? &m.backwardFn : nullptr);
    return m;
}

tensor::Tensor
CompiledModel::forward(ExecutionContext &ctx) const
{
    ctx.jit = jit.get();
    execute(forwardProgram, forwardFn, ctx);
    return ctx.ensureTensor(forwardProgram, forwardProgram.outputVar);
}

void
CompiledModel::backward(ExecutionContext &ctx) const
{
    if (!options.training)
        throw std::runtime_error("model compiled without training support");
    ctx.jit = jit.get();
    execute(backwardProgram, backwardFn, ctx);
}

void
bindInputs(const CompiledModel &m, ExecutionContext &ctx,
           const tensor::Tensor &feature)
{
    ctx.bindExternal(m.forwardProgram.inputVar, feature);
    if (m.forwardProgram.vars.count("norm")) {
        const auto norm = ctx.g->rgcnNorm();
        tensor::Tensor t({ctx.g->numEdges(), 1});
        for (std::int64_t e = 0; e < ctx.g->numEdges(); ++e)
            t.at(e, 0) = norm[static_cast<std::size_t>(e)];
        ctx.bindExternal("norm", std::move(t));
    }
}

tensor::Tensor
trainStep(const CompiledModel &m, ExecutionContext &ctx,
          const tensor::Tensor &feature)
{
    bindInputs(m, ctx, feature);
    tensor::Tensor out = m.forward(ctx);

    // Negative-log-likelihood-style loss against fixed labels reduces
    // to a dense seed gradient; charge one elementwise kernel for it
    // as the paper's measured loop does.
    const std::string seed = gradOf(m.forwardProgram.outputVar);
    tensor::Tensor g(out.shape());
    const float scale =
        1.0f / static_cast<float>(std::max<std::int64_t>(1, out.dim(0)));
    for (std::size_t i = 0; i < g.numel(); ++i)
        g.data()[i] = scale;
    ctx.bindExternal(seed, std::move(g));

    sim::KernelDesc loss;
    loss.name = "nll_loss";
    loss.category = sim::KernelCategory::Elementwise;
    loss.phase = sim::Phase::Forward;
    loss.flops = static_cast<double>(out.numel());
    loss.bytesRead = 4.0 * static_cast<double>(out.numel());
    loss.bytesWritten = loss.bytesRead;
    loss.workItems = static_cast<double>(out.numel());
    ctx.rt->launch(loss, nullptr);

    m.backward(ctx);
    return out;
}

} // namespace hector::core
