/**
 * @file
 * End-to-end training example: fit an RGCN layer to a target signal
 * on a synthetic heterogeneous graph with plain SGD, using Hector's
 * generated forward and backward kernels.
 *
 * The decreasing loss demonstrates that the autodiff pipeline —
 * backward program emission, dead-gradient elimination, lowering to
 * outer-product GEMMs and edge traversals — produces gradients a
 * first-order optimizer can actually use.
 */

#include <cstdio>
#include <random>

#include "core/compiler.hh"
#include "graph/datasets.hh"
#include "models/models.hh"

int
main()
{
    using namespace hector;

    graph::HeteroGraph g =
        graph::generate(graph::datasetSpec("mutag"), 1.0 / 512.0, 21);
    const std::int64_t dim = 16;

    core::Program program = models::buildRgcn(g.numEdgeTypes(), dim, dim);
    core::CompileOptions opts;
    opts.training = true;
    const core::CompiledModel compiled = core::compile(program, opts);

    std::mt19937_64 rng(3);
    models::WeightMap weights = models::initWeights(program, g, rng);
    tensor::Tensor feature =
        tensor::Tensor::uniform({g.numNodes(), dim}, rng, 0.5f);
    // Target produced by a hidden set of "true" weights.
    models::WeightMap true_weights = models::initWeights(program, g, rng);

    sim::Runtime rt;
    graph::CompactionMap cmap(g);

    // Compute the target once with the true weights.
    tensor::Tensor target;
    {
        core::ExecutionContext ctx;
        ctx.g = &g;
        ctx.cmap = &cmap;
        ctx.rt = &rt;
        models::WeightMap grads;
        ctx.weights = &true_weights;
        ctx.weightGrads = &grads;
        core::bindInputs(compiled, ctx, feature);
        target = compiled.forward(ctx).clone();
    }

    const float lr = 0.4f;
    std::printf("epoch   mse-loss     modeled-ms\n");
    for (int epoch = 0; epoch < 20; ++epoch) {
        rt.resetCounters();
        core::ExecutionContext ctx;
        ctx.g = &g;
        ctx.cmap = &cmap;
        ctx.rt = &rt;
        models::WeightMap grads;
        ctx.weights = &weights;
        ctx.weightGrads = &grads;

        core::bindInputs(compiled, ctx, feature);
        tensor::Tensor out = compiled.forward(ctx);

        // MSE loss and its gradient as the backward seed.
        double loss = 0.0;
        tensor::Tensor seed(out.shape());
        const float inv_n = 1.0f / static_cast<float>(out.numel());
        for (std::size_t i = 0; i < out.numel(); ++i) {
            const float d = out.data()[i] - target.data()[i];
            loss += 0.5 * static_cast<double>(d) * d;
            seed.data()[i] = d * inv_n;
        }
        ctx.tensors.insert_or_assign(
            core::gradOf(program.outputVar), seed);
        compiled.backward(ctx);

        // SGD update.
        for (auto &[name, grad] : grads) {
            tensor::Tensor &w = weights.at(name);
            for (std::size_t i = 0; i < w.numel(); ++i)
                w.data()[i] -= lr * grad.data()[i];
        }
        if (epoch % 2 == 0 || epoch == 19)
            std::printf("%5d   %10.6f   %10.4f\n", epoch,
                        loss / static_cast<double>(out.numel()),
                        rt.totalTimeMs());
    }
    std::printf("\nloss decreased via Hector-generated backward "
                "kernels (outer-product GEMMs + edge traversals).\n");
    return 0;
}
