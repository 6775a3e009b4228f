/**
 * @file
 * Hector intra-operator level IR (paper Sec. 3.3).
 *
 * Every operator the compiler keeps (i.e., does not fall back to the
 * framework for) is lowered onto one of two kernel templates:
 *
 *  - the GEMM template (Algorithm 1): a tiled matrix multiply
 *    augmented with custom gather / scatter / transpose access
 *    schemes applied on the fly, an optional per-row scalar, and a
 *    schedule (tile size, coarsening factor, launch bounds);
 *
 *  - the traversal template (Algorithm 2): a generic edge-centric or
 *    grouped loop nest executing pointwise statements, with statement
 *    and operand-load hoisting, adjacency-encoding-specific index
 *    retrieval, and partial-result aggregation before atomics.
 *
 * Instances carry exactly the information the code generator needs to
 * emit a CUDA kernel and the interpreter needs to execute + price it.
 */

#ifndef HECTOR_CORE_INTRA_OP_IR_HH
#define HECTOR_CORE_INTRA_OP_IR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/inter_op_ir.hh"
#include "sim/device.hh"

namespace hector::core
{

/** Row domain an instance iterates over (the GEMM M dimension). */
enum class RowDomain
{
    Edges,       ///< one row per edge
    UniquePairs, ///< one row per unique (src, etype) pair (compact)
    Nodes,       ///< one row per node
};

/** Access scheme used to locate a row of an operand on the fly. */
enum class AccessScheme
{
    Identity,     ///< row i of the backing tensor
    GatherSrc,    ///< row_idx: source node of edge i
    GatherDst,    ///< col_idx: destination node of edge i
    GatherUniqueSrc, ///< unique_row_idx: source node of unique pair i
    GatherEdgeToUnique, ///< compact row of edge i
    ScatterDstAtomic,   ///< atomically accumulate into dst-node row
    ScatterSrcAtomic,   ///< atomically accumulate into src-node row
    ScatterUniqueAtomic, ///< atomically accumulate into unique row
};

const char *toString(RowDomain d);
const char *toString(AccessScheme s);

/** Schedule knobs of a GEMM-template instance (Sec. 3.4.1). */
struct GemmSchedule
{
    int tileSz = 16;
    /** Elements per thread in load/compute/store stages: 1, 2 or 4. */
    int coarsening = 1;
    /** Apply __launch_bounds__ to cap registers for occupancy. */
    bool launchBounds = false;
};

/** What the GEMM instance computes. */
enum class GemmKind
{
    Linear, ///< Y[S] = X[G] * W[T] (+ optional per-row scalar)
    /** dW[T] += sum_rows X[G]^T (x) dY[G2] (backward), summed by type
     *  segment without atomics; a weight vector's gradient is the
     *  din = 1 case (X is the per-row scalar, dW is [T, 1, dout]). */
    Outer,
};

/**
 * A typed weight-vector term folded into a GEMM instance: one scalar
 * column `var` in the instance's row domain and the row of weight
 * vector `weight` at the row's etype (the GEMM's segment type t). See
 * foldGemmEpilogues() and foldGemmPrologues() in core/lowering.hh.
 */
struct RowWeightVec
{
    /** The epilogue's dot output, or the prologue's scale. */
    std::string var;
    /** The weight vector, [T, dout]. */
    std::string weight;
    /** Arena slot of var, stamped by the memory planner. */
    std::int32_t slot = -1;
};

/**
 * One instance derived from the GEMM template.
 *
 * Semantics (Linear): for each row r in the domain (segmented by
 * type), y[scatter(r)] (+)= scalar(r) * x[gather(r)] * op(W[type(r)]).
 */
struct GemmInstance
{
    int kid = 0;
    std::string name;
    sim::Phase phase = sim::Phase::Forward;
    GemmKind kind = GemmKind::Linear;

    RowDomain rows = RowDomain::Edges;
    TypeBy typeBy = TypeBy::Etype;

    /** Input variable (node/edge data or "feature"). */
    std::string xVar;
    AccessScheme xAccess = AccessScheme::Identity;
    /** Weight parameter name. */
    std::string wVar;
    bool transW = false;
    /** Output variable (Linear) or weight-gradient name (Outer). */
    std::string yVar;
    AccessScheme yAccess = AccessScheme::Identity;
    bool yAccumulate = false;

    /** Optional edgewise scalar multiplied into each output row. */
    std::string perRowScalarVar;
    /** Second input (Outer kind): the gradient rows. */
    std::string y2Var;
    AccessScheme y2Access = AccessScheme::Identity;

    std::int64_t din = 0;
    std::int64_t dout = 0;

    /**
     * Linear only: dots of each finished output row, stored after its
     * last k-panel: var[r] = sum_i y[r][i] * weight[t][i], summed in
     * ascending i from 0.0f (a folded traversal's DotProduct).
     */
    std::vector<RowWeightVec> epilogue;
    /**
     * Outer only: terms added, in order, to each y2 row before its
     * rank-1 update: y2[r][j] + var[r] * weight[t][j] (a folded
     * traversal's AccumulateScaled). The y2 rows in memory are not
     * written.
     */
    std::vector<RowWeightVec> prologue;

    GemmSchedule sched;

    /**
     * Arena slots of the operand variables, stamped by the memory
     * planner; -1 = resolve by name (no plan / weight-space operand).
     */
    std::int32_t xSlot = -1;
    std::int32_t ySlot = -1;
    std::int32_t scalarSlot = -1;
    std::int32_t y2Slot = -1;
};

/**
 * Group key of a traversal instance over edges: the entity whose edges
 * one block walks together, and whose rows it therefore owns.
 */
enum class GroupKey
{
    /** Edge-centric: edges split flat over blocks (COO: GetSrcId =
     *  row_idx[e], GetEType = segment lookup). */
    None,
    /** One destination node per group, walked through the CSR
     *  (in_ptr / in_edge_ids). Owns that node's rows. */
    DstNode,
    /** One compact (src, etype) pair per group, walked through the
     *  CompactionMap's per-pair edge lists (unique_ptr / unique_eids,
     *  edge ids ascending). Owns that pair's compact rows. */
    UniquePair,
};

/** One statement scheduled inside a traversal instance. */
struct ScheduledStmt
{
    Stmt stmt;
    /**
     * Hoist level; only meaningful for grouped instances.
     *
     *  - 0: innermost, evaluated per edge in place.
     *  - 1: per group, before the edge loop.
     *  - 2: register accumulator. The statement is still evaluated per
     *    edge, but into a per-group register row zeroed before the
     *    edge loop; the row is stored to the group's output row once
     *    after the loop, and only when the group has an edge.
     *
     * Lowering sets level 2 on an accumulation (`out += ...`) into the
     * group's own row: a NodeData variable reached Direct or through
     * e.dst under DstNode, a compact variable under UniquePair. Either
     * key's instance may be the second half of a split edge loop (see
     * TraversalInstance::group). The instance must be the variable's
     * first writer in lowered order, hold its only writer in the
     * instance, and never read it. The variable's arena slot is then
     * zero on entry, so storing 0 + a1 + a2 + ... is bit-identical to
     * the in-place per-edge sum in group order, and a node without an
     * in-edge keeps its zero row without a store. The seed interpreter
     * evaluates level 2 like level 0 (in place, per edge, in the same
     * group order) and stays the oracle.
     *
     * A Stmt::sumFirst aggregation is level 2 too, though an earlier
     * instance wrote its row: its store adds the register row into the
     * output row (`out[n] += acc`), which prices a read of the row as
     * well as its write. The seed interpreter sums it into a scratch
     * row from +0 and adds that the same way.
     */
    int hoistLevel = 0;

    /**
     * Set by lowering on a level-0 accumulation into a row the
     * iteration owns (its edge's row, its pair's compact row in the
     * UniquePairs domain, its node in the Nodes domain) when no earlier
     * instance writes the variable and no other statement of the
     * instance does. The row is zero on entry, so the code generator
     * emits `out = 0.f + expr` without reading it, which is the
     * executor's in-place `out += expr` bit for bit, and the cost model
     * prices no read of it (see readsOutputRow() in core/lowering.hh).
     */
    bool firstWrite = false;

    /** True when the level-2 store adds into the row (sumFirst). */
    bool
    addsOnStore() const
    {
        return hoistLevel == 2 && stmt.sumFirst;
    }
};

/** How often a traversal instance reads one operand row. */
enum class LoadRate
{
    /** Once per edge (or per row of a flat domain). */
    PerEdge,
    /** Once per group, before the edge loop. */
    PerGroup,
    /** Once per run of equal etype in the group's walk order. */
    PerRun,
    /**
     * Never from memory: the row of a virtual variable, or one that an
     * earlier statement of the instance wrote at the same iteration,
     * which is still in a register.
     */
    InRegister,
};

/**
 * One distinct operand row a traversal instance reads: a variable and
 * the access that locates its row, or a typed weight-vector row
 * (Stmt::weight at the edge's etype). Statements of the instance
 * reading the same row share the load, so the row is read once per
 * edge (or per row of a flat domain), not once per statement.
 */
struct OperandLoad
{
    /** The variable, or the weight vector when `weight` is set. */
    std::string var;
    Access access = Access::Direct;
    /** A typed weight-vector row rather than a variable row. */
    bool weight = false;
    /**
     * Lowering sets, and the instance honours only while grouped (see
     * TraversalInstance::rateOf()):
     *
     *  - PerGroup on a row that every edge of a group reads and that
     *    no statement of the instance writes: a node row (through
     *    e.dst, or Direct) under DstNode, a compact row under
     *    UniquePair. Never on an e.src row, or on a compact row under
     *    DstNode: their rows change from edge to edge of the group.
     *  - PerRun on every weight-vector row. The in-CSR lists a node's
     *    edges in ascending edge id and edges are sorted by etype, so
     *    a DstNode walk meets one run per distinct (dst, etype) pair
     *    (HeteroGraph::numInEtypeRuns); a UniquePair group is one run.
     *  - InRegister, grouped or flat, on a virtual variable and on a row
     *    the iteration owns (its edge's row, its pair's compact row in
     *    the UniquePairs domain, its node in the Nodes domain) that an
     *    earlier level-0 statement of the instance writes.
     */
    LoadRate rate = LoadRate::PerEdge;
};

/**
 * One adjacency index a traversal walk reads to locate rows (the
 * paper's GetSrcId / GetEType ... of Algorithm 2, specific to the
 * adjacency encoding).
 */
enum class AdjIndex
{
    /** The edge id from the group's edge list (in_edge_ids or
     *  unique_eids); a flat edge loop's row is the edge id itself. */
    EdgeId,
    /** The source node: row_idx, or unique_row_idx per pair. */
    Src,
    /** The destination node: col_idx. */
    Dst,
    /** The compact (src, etype) row of an edge: edge_to_unique. */
    EdgeToUnique,
    /** The edge type: a segment lookup (GetEType). */
    Etype,
};

/**
 * An index an instance reads, and how often (see adjacencyReads() in
 * core/lowering.hh): LoadRate::PerEdge, once per edge (or row of a
 * flat domain), or LoadRate::PerGroup, once per group with an edge,
 * when the group fixes it.
 */
struct AdjacencyRead
{
    AdjIndex index = AdjIndex::EdgeId;
    LoadRate rate = LoadRate::PerEdge;
};

/**
 * One instance derived from the node/edge traversal template.
 *
 * Edge-centric instances assign edges to blocks; grouped instances
 * assign a group (a destination node or a compact (src, etype) pair)
 * to a block and loop over the group's edges, enabling atomic-free
 * aggregation into the group's rows and partial-result accumulation
 * (Sec. 3.4.1).
 */
struct TraversalInstance
{
    int kid = 0;
    std::string name;
    sim::Phase phase = sim::Phase::Forward;

    /**
     * Grouping of the edge walk. Lowering groups a dst-nodes
     * aggregation nest by DstNode, and an edge loop that scatters
     * into a destination node or a compact row by whichever of the
     * two its accumulations write more columns of (DstNode on a tie).
     * When the losing key's accumulations write vector rows, lowering
     * splits them off into a second instance grouped by the losing
     * key, after the first, so neither scatters by atomics (HGT's
     * `ka_grad` under UniquePair beside `q_grad` under DstNode), and
     * marks that second instance `foldable`; scalar losers stay in the
     * run and keep their atomics. Whether the split pays depends on
     * the graph: a second walk re-reads the edge rows the first one
     * wrote, which saves the atomics only where (src, etype) pairs
     * repeat. So at launch the executor prices both shapes on the bound
     * graph, the two halves and the merged walk (mergedTraversal() in
     * core/lowering.hh), and runs the cheaper. An edge
     * loop that writes only its own edge's rows and reads a node row
     * through e.dst is grouped by DstNode too, so that row is loaded
     * once per node: each output is a function of its edge alone, so
     * the walk order cannot change a bit. Weight gradients never sit
     * in a traversal: they lower onto the GEMM template.
     */
    GroupKey group = GroupKey::None;
    /**
     * Iteration domain. Edges for edgewise work (every grouped
     * instance), UniquePairs for statements that depend only on
     * (src, etype) under compact materialization, Nodes for nodewise
     * loops.
     */
    RowDomain domain = RowDomain::Edges;
    std::vector<ScheduledStmt> stmts;

    /** Aggregate per-thread/warp partial results before atomics. */
    bool partialAggregation = true;

    /**
     * The second half of a split edge loop (see `group`): it may fold
     * back into the traversal step just before it in the lowered
     * order (LoweredFunction::foldsIntoPrevious()).
     */
    bool foldable = false;

    /**
     * Variables that live in registers only (Materialization::Virtual,
     * see virtualizeTemporaries in core/lowering.hh): no other
     * instance references them. A virtual variable written with `+=`
     * restarts at +0 on every iteration, as its zeroed row did.
     */
    std::vector<std::string> virtualVars;

    /**
     * The instance's distinct operand loads, in first-read order (see
     * OperandLoad). Every input and every weight vector of every
     * statement has exactly one entry. The executor prices operand
     * reads from this set, not per statement: at rateOf(), a per-group
     * load costs one row per group with an edge
     * (HeteroGraph::numNodesWithInEdges nodes, or numUnique pairs), a
     * per-run load one row per etype run (HeteroGraph::numInEtypeRuns,
     * or numUnique), a per-edge load one row per edge, and a load in
     * a register nothing. The fast path resolves a per-group load at the group's own row (node v
     * or pair u), which is the row every edge of the group reaches.
     * The code generator loads a per-group row into a register before
     * the edge loop, and a per-run row inside it, only when the edge's
     * etype differs from the last one loaded, and reads a row in a
     * register from the register its writer filled. Recompute it with
     * operandLoads() after editing stmts or materializations.
     */
    std::vector<OperandLoad> loads;

    bool grouped() const { return group != GroupKey::None; }

    /** The load of variable row @p ref, or nullptr when none reads it. */
    const OperandLoad *
    loadOf(const VarRef &ref) const
    {
        for (const auto &l : loads)
            if (!l.weight && l.var == ref.name && l.access == ref.access)
                return &l;
        return nullptr;
    }

    /** The load of weight vector @p name, or nullptr when none reads it. */
    const OperandLoad *
    weightLoadOf(const std::string &name) const
    {
        for (const auto &l : loads)
            if (l.weight && l.var == name)
                return &l;
        return nullptr;
    }

    /**
     * How often @p l is read: its rate while grouped; per edge (or
     * row) in a flat domain, unless it is in a register.
     */
    LoadRate
    rateOf(const OperandLoad &l) const
    {
        return grouped() || l.rate == LoadRate::InRegister
                   ? l.rate
                   : LoadRate::PerEdge;
    }

    /** True when @p l is read once per group, before the edge loop. */
    bool
    hoisted(const OperandLoad &l) const
    {
        return rateOf(l) == LoadRate::PerGroup;
    }
};

/** Operations left to the framework (paper: PyTorch fallback). */
struct FallbackInstance
{
    int kid = 0;
    std::string name;
    sim::Phase phase = sim::Phase::Forward;
    Stmt stmt;
};

/** A variable one step of a lowered function reads or writes. */
struct StepRef
{
    std::string name;
    bool write = false;
};

/** A lowered kernel sequence for one direction of one model. */
struct LoweredFunction
{
    sim::Phase phase = sim::Phase::Forward;
    /** Execution order across the three instance vectors. */
    struct Step
    {
        enum class Kind
        {
            Gemm,
            Traversal,
            Fallback
        } kind;
        std::size_t index;
    };
    std::vector<Step> order;
    std::vector<GemmInstance> gemms;
    std::vector<TraversalInstance> traversals;
    std::vector<FallbackInstance> fallbacks;

    /**
     * Arena slots to materialize-and-zero before each step (parallel
     * to `order`), filled by the memory planner. A slot appears at its
     * variable's first use, which both gives a freshly-ensured
     * variable the zero contents the executor's allocate-on-first-use
     * path used to guarantee and re-initializes arena bytes an earlier,
     * dead variable held. Empty when no plan was computed (hand-built
     * lowered functions).
     */
    std::vector<std::vector<std::int32_t>> zeroSlotsBefore;

    /**
     * The variables step @p i of `order` references, in operand order
     * (a name may repeat). An Outer GEMM's yVar names a weight
     * gradient and is left out. The memory planner's liveness and
     * virtualizeTemporaries() both walk the steps through this.
     */
    std::vector<StepRef> refs(std::size_t i) const;

    /**
     * True when step @p i is a foldable traversal (the second half of
     * a split edge loop) and step i - 1 is the traversal it folds
     * into. The executor runs the two steps, or their merged walk in
     * place of both, by price; the memory planner keeps the two steps
     * one liveness unit, so no arena byte is shared across them.
     */
    bool
    foldsIntoPrevious(std::size_t i) const
    {
        return i > 0 && i < order.size() &&
               order[i].kind == Step::Kind::Traversal &&
               order[i - 1].kind == Step::Kind::Traversal &&
               traversals[order[i].index].foldable;
    }

    std::size_t
    kernelCount() const
    {
        return gemms.size() + traversals.size() + fallbacks.size();
    }
};

} // namespace hector::core

#endif // HECTOR_CORE_INTRA_OP_IR_HH
