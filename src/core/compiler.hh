/**
 * @file
 * Top-level Hector compiler driver.
 *
 * compile() runs the inter-operator passes in the paper's order
 * (linear operator reordering, compact materialization, the self-loop
 * fold, graph-semantic-aware loop fusion), emits the backward program
 * when training, lowers both directions onto the GEMM / traversal
 * templates, keeps every edge temporary that only its own instance
 * references in registers (virtualizeTemporaries), and generates the
 * CUDA-style source text. The result is
 * graph-independent: one CompiledModel can execute on any graph via
 * an ExecutionContext (mirroring the paper's precompiled .so loaded
 * as autograd.Function subclasses).
 */

#ifndef HECTOR_CORE_COMPILER_HH
#define HECTOR_CORE_COMPILER_HH

#include <memory>
#include <optional>
#include <string>

#include "core/autodiff.hh"
#include "core/codegen.hh"
#include "core/executor.hh"
#include "core/inter_op_ir.hh"
#include "core/intra_op_ir.hh"
#include "core/lowering.hh"
#include "core/passes.hh"

namespace hector::core
{

namespace jit
{
class JitModule;
}

/** Optimization configuration, matching the paper's ablations. */
struct CompileOptions
{
    /** Compact materialization (Table 5 column "C"). */
    bool compactMaterialization = false;
    /** Linear operator reordering (Table 5 column "R"). */
    bool linearReorder = false;
    /** Graph-semantic-aware loop fusion (always on in the paper). */
    bool fuseTraversalLoops = true;
    /** Per-row-scalar + scatter GEMM fusion (RGCN single kernel). */
    bool fuseGemmScatter = true;
    /** Emit and lower the backward program. */
    bool training = false;
    /** Propagate gradients to the input features. */
    bool featureGrad = false;
    GemmSchedule sched;
};

/** A fully compiled model: transformed IR, kernels, generated code. */
struct CompiledModel
{
    CompileOptions options;
    Program forwardProgram;
    Program backwardProgram; ///< empty unless options.training
    LoweredFunction forwardFn;
    LoweredFunction backwardFn;
    PassStats passStats;
    GeneratedCode code;
    /**
     * Arena memory plan over the lowered functions (slot indices
     * stamped into the instances, packed per bound graph). Adopted
     * opt-in per
     * ExecutionContext (ExecutionContext::adoptPlan): the serving
     * runtime pools arena-backed contexts across requests, while
     * contexts that never adopt keep the legacy allocate-on-first-use
     * behavior (including post-execution inspection of ctx.tensors).
     */
    MemoryPlan memoryPlan;

    /**
     * Optional host-JIT module holding per-(instance, shape)
     * specialized GEMM row kernels compiled from code.cpuSource
     * (core/jit::attach). Null when the JIT is off, unavailable or
     * failed; the executor then runs the generic blocked path. Held
     * shared so a plan evicted from the PlanCache dlcloses only after
     * the last pinned user releases it.
     */
    std::shared_ptr<const jit::JitModule> jit;

    /**
     * Run forward propagation. ctx.tensors must hold the program's
     * input variables (feature, and norm for RGCN); returns the
     * output tensor (also left in ctx.tensors).
     */
    tensor::Tensor forward(ExecutionContext &ctx) const;

    /**
     * Run backward propagation; ctx must still hold the forward
     * intermediates and the seed gradient gradOf(outputVar).
     * Weight gradients accumulate into ctx.weightGrads.
     */
    void backward(ExecutionContext &ctx) const;

    /** Kernel launches needed per forward pass. */
    std::size_t
    forwardKernels() const
    {
        return forwardFn.kernelCount();
    }
};

/**
 * Canonical textual encoding of every field of @p options (including
 * the GEMM schedule). Two option sets with equal signatures produce
 * identical compilation results; used as part of the serving layer's
 * plan-cache key and for logging.
 */
std::string cacheSignature(const CompileOptions &options);

/** Compile @p program under @p options. */
CompiledModel compile(Program program, const CompileOptions &options);

/**
 * Prepare an execution context's graph-derived inputs: binds the
 * feature tensor and, when the program uses it, the RGCN per-edge
 * normalization data.
 */
void bindInputs(const CompiledModel &m, ExecutionContext &ctx,
                const tensor::Tensor &feature);

/**
 * Convenience: one full training step (forward, loss-style seed
 * gradient of 1/N, backward). Returns the output tensor.
 */
tensor::Tensor trainStep(const CompiledModel &m, ExecutionContext &ctx,
                         const tensor::Tensor &feature);

} // namespace hector::core

#endif // HECTOR_CORE_COMPILER_HH
