/**
 * @file
 * Executor for lowered kernel instances.
 *
 * Each instance is executed on the CPU for bit-exact results while the
 * simulated device (sim::Runtime) is charged a launch with the
 * instance's FLOP / byte / atomic counts. The executor is the
 * counterpart of the paper's generated CUDA kernels plus host code:
 * it consumes exactly the intra-operator IR the code generator emits
 * text from, so executed semantics and emitted code cannot diverge.
 *
 * Execution engine (PR 4): kernels run cache-blocked and partitioned
 * over the util::ThreadPool wherever every output row has exactly one
 * owning thread, keeping results bit-identical to the sequential
 * reference at any thread count. When a MemoryPlan is adopted, the
 * context backs variables with byte ranges of a pooled arena (reused
 * across requests, re-zeroed per live range) and instances resolve
 * operands through stamped slot indices instead of string-keyed maps;
 * without a plan the context behaves exactly like the seed
 * (allocate-on-first-use into the `tensors` map).
 *
 * Row tables: a context may address a node-space variable (the model
 * input, the model output) through a per-node *row table* instead of
 * a tensor: entry v holds the address of node v's row, wherever that
 * row lives. Serving binds the input table into each request's own
 * feature tensor and the output table into each request's result
 * tensor, so a micro-batch runs over its union graph without a
 * gathered feature tensor, a union output buffer or the two copy
 * kernels that filled and drained them. Every row resolution of such
 * a variable goes through the table: the GEMM X and Y rows on the
 * seed, blocked and JIT row paths, the traversal's prepared operands
 * and its level-2 and adding stores, and the seed OperandResolver.
 * The arithmetic is unchanged, so results stay bit-identical. The
 * cost model charges the table honestly: each row resolved through a
 * table reads one 8-byte address more, wherever that row is priced
 * (per GEMM row, at a traversal load's own rate, per stored row).
 * The generated CUDA text does not change: its kernels already take
 * each operand as a row pointer computed by the launch, and the
 * serving host code binds the tables when it launches them.
 */

#ifndef HECTOR_CORE_EXECUTOR_HH
#define HECTOR_CORE_EXECUTOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/inter_op_ir.hh"
#include "core/intra_op_ir.hh"
#include "core/memory_plan.hh"
#include "graph/compaction.hh"
#include "graph/hetero_graph.hh"
#include "sim/runtime.hh"
#include "tensor/tensor.hh"

namespace hector::core
{

namespace jit
{
class JitModule;
}

/**
 * Per-node row addresses of a variable the kernels address in place:
 * entry v is node v's row. The rows are not owned; they must outlive
 * every execution until the context's next reset().
 */
using RowTable = std::vector<float *>;

/** All state one forward/backward execution reads and writes. */
struct ExecutionContext
{
    const graph::HeteroGraph *g = nullptr;
    /** Required when any instance uses a UniquePairs domain. */
    const graph::CompactionMap *cmap = nullptr;
    sim::Runtime *rt = nullptr;

    /**
     * Host-JIT module of the model being executed, set by
     * CompiledModel::forward/backward (null when no module is
     * attached). The blocked GEMM path consults it for a specialized
     * row kernel per (direction, instance kid).
     */
    const jit::JitModule *jit = nullptr;

    /** Parameters by name (includes composed weights once computed). */
    std::map<std::string, tensor::Tensor> *weights = nullptr;
    /** Parameter gradients, allocated on first accumulation. */
    std::map<std::string, tensor::Tensor> *weightGrads = nullptr;

    /** Variable storage: feature, norm, intermediates, gradients.
     *  Only used for variables the adopted plan (if any) does not
     *  cover; the legacy allocate-on-first-use path. */
    std::map<std::string, tensor::Tensor> tensors;

    /** Rows of a domain on the bound graph. */
    std::int64_t rowsOf(RowDomain d) const;
    std::int64_t rowsOf(SlotRows r) const;

    /**
     * Adopt (or drop, with nullptr) an arena memory plan. The pooled
     * arena survives re-adoption and plan changes alike; it is packed
     * for the bound graph on first use (MemoryPlan::pack, cached per
     * node/edge/pair count triple). The plan must outlive the
     * context's use of it (it lives in the CompiledModel, which the
     * serving PlanCache keeps alive).
     */
    void adoptPlan(const MemoryPlan *plan);

    const MemoryPlan *plan() const { return plan_; }

    /** The adopted plan's packing for the bound graph. */
    const ArenaLayout &layout();

    /**
     * Rebind the context to a new request: swap the graph/runtime/
     * weight pointers, drop all per-request state (named tensors,
     * slot views and their zero-initialization marks, row tables) but
     * KEEP the pooled arena — the whole point of pooling contexts in
     * the serving sessions.
     */
    void reset(const graph::HeteroGraph *g, const graph::CompactionMap *cm,
               sim::Runtime *rt, std::map<std::string, tensor::Tensor> *w,
               std::map<std::string, tensor::Tensor> *wg);

    /**
     * The tensor backing arena slot @p slot. Materializes (and zeroes)
     * the slot on first touch of the current request; execute()'s
     * zero lists normally do this eagerly per live range.
     */
    tensor::Tensor &slotTensor(int slot);

    /**
     * View slot @p slot at its packed offset for the bound graph and
     * zero it. The arena region (or, for the output, its own buffer)
     * it lies in grows first when too small: the old buffer is
     * released before the new one is allocated.
     */
    tensor::Tensor &materializeSlot(int slot);

    /**
     * Bind an externally produced tensor (model input, norm data,
     * seed gradient) under @p name: stored in `tensors` and, when the
     * plan maps the name, aliased into its slot.
     */
    void bindExternal(const std::string &name, tensor::Tensor t);

    /**
     * Get-or-allocate the tensor backing @p var according to its
     * VarInfo in @p p. Resolves through the adopted plan's slot when
     * the plan covers the variable, else through the legacy map
     * (allocation is tracked by the runtime's memory scope; Virtual
     * variables may not be materialized).
     */
    tensor::Tensor &ensureTensor(const Program &p, const std::string &var);

    /** The tensor bound to @p name, or nullptr: named map first, then
     *  the plan's slot (post-execution inspection). */
    const tensor::Tensor *lookup(const std::string &name) const;

    /**
     * Address node-space variable @p var through @p rows (one entry
     * per node of the bound graph) until the next reset(). The
     * variable then has no tensor: the planner's slot for it is
     * neither bound nor materialized, ensureTensor() refuses it, and
     * every kernel reads and writes its rows in place. An output
     * bound this way must be zero on entry, as its slot would be.
     */
    void bindRowTable(const std::string &var, RowTable rows);

    /** The row table bound to @p var, or nullptr. */
    const RowTable *rowTable(const std::string &var) const;

  private:
    const MemoryPlan *plan_ = nullptr;
    /** plan_->pack() for layout_.rows; stale when !layoutValid_. */
    ArenaLayout layout_;
    bool layoutValid_ = false;
    /** Pooled arena: the forward region and the bytes past it. */
    tensor::Tensor regions_[2];
    /** Pooled buffer of the Own-backed output slot. */
    tensor::Tensor ownBuf_;
    /** Per-request views into the arena (or external aliases). */
    std::vector<tensor::Tensor> slotViews_;
    std::vector<std::uint8_t> slotBound_;
    /** Variables addressed through row tables (bindRowTable). */
    std::vector<std::pair<std::string, RowTable>> rowTables_;
};

/** Execute every instance of @p fn in order (honoring the plan's
 *  per-step zero lists when the context adopted one). */
void execute(const Program &p, const LoweredFunction &fn,
             ExecutionContext &ctx);

/**
 * Execute a single GEMM-template instance, with its folded terms
 * (GemmInstance::epilogue / prologue). Each term prices 2 * dout flops
 * and its 4-byte row per row, plus its weight vector like the GEMM's
 * own weight.
 */
void execGemm(const Program &p, const GemmInstance &gi,
              ExecutionContext &ctx);

/**
 * The modeled launch of traversal @p ti on ctx's graph: its flops, its
 * operand loads at their rates (TraversalInstance::loads), 4 bytes per
 * adjacency index it reads (adjacencyReads() in core/lowering.hh), the
 * rows it writes and reads back, and its atomics. execTraversal()
 * launches it; DeviceModel::kernelTime() prices it without running.
 */
sim::KernelDesc traversalDesc(const Program &p, const TraversalInstance &ti,
                              const ExecutionContext &ctx);

/** Execute a single traversal-template instance. */
void execTraversal(const Program &p, const TraversalInstance &ti,
                   ExecutionContext &ctx);

/** Execute a framework-fallback instance (weight composition). */
void execFallback(const Program &p, const FallbackInstance &fi,
                  ExecutionContext &ctx);

} // namespace hector::core

#endif // HECTOR_CORE_EXECUTOR_HH
