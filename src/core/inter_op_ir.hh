/**
 * @file
 * Hector inter-operator level IR (paper Sec. 3.2, Table 2).
 *
 * A Program expresses RGNN layer semantics as a sequence of for-each
 * loops over graph entities (edges, nodes, or destination nodes with a
 * nested incoming-edge iterator), each containing operator statements
 * over graph variables. Crucially — and this is the paper's central
 * design point — the IR only records *which entity* a variable is
 * associated with, never how it is laid out in memory; materialization
 * (vanilla edgewise vs. compact per-(src,etype)) is decided by a later
 * pass and carried as an annotation.
 */

#ifndef HECTOR_CORE_INTER_OP_IR_HH
#define HECTOR_CORE_INTER_OP_IR_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hector::core
{

/** Loop iteration domains (Table 2 iterators). */
enum class LoopDomain
{
    Edges,         ///< for e in g.edges()
    Nodes,         ///< for n in g.nodes() (projections, self-loops)
    DstNodes,      ///< for n in g.dst_nodes()
    IncomingEdges, ///< for e in n.incoming_edges(); only inside DstNodes
};

/** Which type index a typed operator uses to slice its weight. */
enum class TypeBy
{
    Etype,     ///< W[e.etype]
    SrcNtype,  ///< W[ntype(e.src)] — composable with Etype via reorder
    DstNtype,  ///< W[ntype(e.dst)]
    Ntype,     ///< W[ntype(n)] in a node loop
    Single,    ///< untyped weight (e.g. RGCN's W0)
};

/** Storage spaces a variable can live in. */
enum class VarSpace
{
    NodeInput, ///< model input features [N, D]
    NodeData,  ///< produced nodewise data [N, D] or [N]
    EdgeData,  ///< produced edgewise data [E, D] or [E]
    Param,     ///< trainable weight (typed matrix or vector)
};

/** How an edgewise statement reaches a node variable. */
enum class Access
{
    Direct, ///< the loop entity itself
    ViaSrc, ///< e.src.<var>
    ViaDst, ///< e.dst.<var>
};

/**
 * Materialization of an EdgeData variable (Sec. 3.2.2). Decided by
 * the compact-materialization pass; Vanilla stores one row per edge,
 * Compact one row per unique (source node, edge type) pair, Virtual
 * means no kernel but the one writing it reads the variable, so it
 * lives in registers and never touches global memory (decided after
 * lowering by virtualizeTemporaries, core/lowering.hh).
 */
enum class Materialization
{
    Vanilla,
    Compact,
    Virtual,
};

/** A reference to a variable as used by one statement. */
struct VarRef
{
    std::string name;
    Access access = Access::Direct;

    /**
     * Arena slot of the referenced variable, stamped by the memory
     * planner (core/memory_plan.hh) onto the *lowered instance copies*
     * of statements only — references inside a Program are never
     * annotated. -1 = unplanned (resolved by name at execution).
     */
    std::int32_t slot = -1;

    bool
    operator==(const VarRef &o) const
    {
        return name == o.name && access == o.access;
    }
};

/** Operator kinds available at the inter-operator level. */
enum class OpKind
{
    TypedLinear,      ///< out = in * W[type]
    DotProduct,       ///< out = dot(in0, in1); in1 may be a typed vector
    Add,              ///< out = in0 + in1
    Mul,              ///< out = in0 * in1 (elementwise)
    LeakyRelu,        ///< out = leaky_relu(in0, alpha)
    Relu,             ///< out = relu(in0)
    Exp,              ///< out = exp(in0)
    Divide,           ///< out = in0 / in1 (scalars)
    Scale,            ///< out = alpha * in0
    Copy,             ///< out = in0
    AccumulateSum,    ///< node out += edge in0 (IncomingEdges only)
    AccumulateScaled, ///< node out += in0(scalar) * in1(vector)
    /// Weight-space precompute created by linear operator reordering:
    ComposeMatVec,    ///< wv'[r] = W[r] . wv[r]        (vector result)
    ComposeMatMat,    ///< W'[r] = W1[srcNt(r)] . W2[r] (matrix result)
    /// Backward-only operators (emitted by autodiff, Sec. 3.5):
    OuterAccumulate,  ///< W.grad[t] += in0^T (x) in1 (outer product)
    WeightVecGrad,    ///< wv.grad[t] += in0(scalar) * in1(vector)
    LeakyReluBwd,     ///< out += in0 * lrelu'(in1)
    ReluBwd,          ///< out += in0 * relu'(in1)
    DivGradDenom,     ///< out += -in0 * in1 / in2^2
};

const char *toString(OpKind k);
const char *toString(LoopDomain d);

/** One operator statement. */
struct Stmt
{
    OpKind kind;
    VarRef out;
    std::vector<VarRef> ins;
    /** Weight / weight-vector parameter, when the op is typed. */
    std::string weight;
    /** Second weight operand (ComposeMatVec / ComposeMatMat only). */
    std::string weight2;
    TypeBy typeBy = TypeBy::Etype;
    /** Leaky-ReLU slope or Scale factor. */
    float alpha = 0.01f;
    /** out += ... instead of out = ... (backward accumulation). */
    bool accumulateOut = false;
    /** Use the transposed weight slice (backward of TypedLinear). */
    bool transW = false;
    /**
     * An aggregation into the destination node of an incoming-edges
     * loop whose row already holds a value: the node's contributions
     * are summed from +0 first, and the sum is added to the row once,
     * when the node has an edge: out[n] += (0 + c1 + c2 + ...). Set by
     * foldAddIntoAggregation (core/passes.hh); lowering runs it as a
     * register accumulator with an adding store, and the seed
     * interpreter evaluates it the same way.
     */
    bool sumFirst = false;
};

/** A loop over a graph domain containing statements and nested loops. */
struct Loop
{
    LoopDomain domain;
    std::vector<Stmt> body;
    std::vector<Loop> inner;
};

/** Shape/typing information for a variable. */
struct VarInfo
{
    VarSpace space = VarSpace::EdgeData;
    /** Feature width; 1 = scalar per entity. */
    std::int64_t cols = 1;
    bool requiresGrad = false;
    Materialization mat = Materialization::Vanilla;
};

/** Shape information for a trainable parameter. */
struct WeightInfo
{
    TypeBy typeBy = TypeBy::Etype;
    /** Rows of each slice (input dim); 1 for weight vectors. */
    std::int64_t rows = 1;
    /** Columns of each slice (output dim, or vector length). */
    std::int64_t cols = 1;
    bool isVector = false;
    bool requiresGrad = true;
};

/**
 * An RGNN layer at the inter-operator level.
 *
 * The loops execute in order; weightPrecompute statements (created by
 * linear operator reordering) run once before any loop.
 */
struct Program
{
    std::string name;
    std::vector<Loop> loops;
    std::vector<Stmt> weightPrecompute;
    /**
     * Backward-only: gradient chaining for composed weights, executed
     * after all loops of a backward program.
     */
    std::vector<Stmt> weightBackward;
    std::map<std::string, VarInfo> vars;
    std::map<std::string, WeightInfo> weights;
    std::string inputVar = "feature";
    std::string outputVar = "h_out";

    const VarInfo &varInfo(const std::string &name) const;
    VarInfo &varInfo(const std::string &name);
    const WeightInfo &weightInfo(const std::string &name) const;

    /** Register a variable; throws if already present with other info. */
    void declareVar(const std::string &name, VarInfo info);
    void declareWeight(const std::string &name, WeightInfo info);

    /** Structural and type checking; throws on malformed IR. */
    void validate() const;

    /** Human-readable dump (used in docs, tests, and debugging). */
    std::string dump() const;

    /** Total statement count across all loops (complexity metric). */
    std::size_t stmtCount() const;
};

/**
 * Returns the names of variables read by @p s (excluding weights).
 */
std::vector<std::string> stmtInputs(const Stmt &s);

/** True when @p s adds into its output (out += ...) rather than
 *  overwriting it. */
bool isAccumulation(const Stmt &s);

/**
 * True when a statement's inputs are all derivable from
 * (source node, edge type) only — the applicability condition for
 * compact materialization (Sec. 3.2.2).
 *
 * @param compact_vars set of already-compact EdgeData variables
 */
bool dependsOnlyOnSrcAndEtype(
    const Program &p, const Stmt &s,
    const std::map<std::string, bool> &compact_vars);

} // namespace hector::core

#endif // HECTOR_CORE_INTER_OP_IR_HH
