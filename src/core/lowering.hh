/**
 * @file
 * Lowering from the inter-operator IR onto the two kernel templates
 * (paper Sec. 3.2.5): a greedy multi-pass scheme that prefers the
 * GEMM template, then fuses what remains into as few traversal
 * instances as possible, and finally leaves weight-space precompute
 * to framework-fallback calls.
 */

#ifndef HECTOR_CORE_LOWERING_HH
#define HECTOR_CORE_LOWERING_HH

#include "core/inter_op_ir.hh"
#include "core/intra_op_ir.hh"
#include "core/passes.hh"
#include "sim/device.hh"

namespace hector::core
{

/** Options controlling lowering decisions. */
struct LowerOptions
{
    /**
     * Fuse a typed-linear + scalar-weighted aggregation pair into a
     * single GEMM instance with a per-row scalar and an atomic
     * scatter to destination nodes (the Sec. 3.4.1 per-row-scalar +
     * flexible-scatter path; this is what turns RGCN's message
     * generation + aggregation into one kernel). Only applied when
     * the scalar carries no gradient.
     */
    bool fuseGemmScatter = true;
    GemmSchedule sched;
};

/**
 * Iteration domain of a statement under the current materialization
 * annotations: UniquePairs when the output is compact and the
 * statement depends only on (src, etype); Nodes inside node loops;
 * Edges otherwise.
 */
RowDomain stmtDomain(const Program &p, const Stmt &s, LoopDomain loop);

/**
 * The virtual variables of @p ti written with `+=`, each once: they
 * restart at +0 on every iteration, as their zeroed rows did.
 */
std::vector<std::string> restartedVirtuals(const Program &p,
                                           const TraversalInstance &ti);

/**
 * The distinct operand loads of @p ti (TraversalInstance::loads) under
 * its current group key and statements.
 */
std::vector<OperandLoad> operandLoads(const Program &p,
                                      const TraversalInstance &ti);

/**
 * The adjacency indices @p ti reads, each once, in AdjIndex order: the
 * indices that locate the rows its per-edge statements (hoist levels
 * 0 and 2) store to and that its loads read at LoadRate::PerEdge. A
 * per-group load, a level-2 store and a register read use the group's
 * or the iteration's own row, and hoist-level-1 statements run before
 * the edge loop, so none of them needs an index. An index is read per
 * group (LoadRate::PerGroup) where the group fixes it: the
 * destination under DstNode, the source, the etype and the compact row
 * under UniquePair, and the source and etype in the UniquePairs
 * domain; every other index is read per edge. A grouped walk reads
 * the edge id from its group's edge list per edge when anything is
 * located by edge. The executor prices 4 bytes per index read, and the
 * code generator reads each index once into a named register, from
 * this one rule.
 */
std::vector<AdjacencyRead> adjacencyReads(const Program &p,
                                          const TraversalInstance &ti);

/**
 * True when statement @p i of @p ti reads its output row from memory
 * before adding into it: a level-0 `+=` into a materialized row that
 * does not scatter by atomics (priced as atomics instead), is not a
 * ScheduledStmt::firstWrite, and is not in the register an earlier
 * level-0 statement of the iteration filled.
 */
bool readsOutputRow(const Program &p, const TraversalInstance &ti,
                    std::size_t i);

/**
 * The walk of a split edge loop as one instance (see
 * TraversalInstance::group): @p first with the statements of the
 * foldable @p second appended at hoist level 0, where they scatter by
 * atomics, and its loads and virtual variables recomputed. It is
 * named after both halves.
 */
TraversalInstance mergedTraversal(const Program &p,
                                  const TraversalInstance &first,
                                  const TraversalInstance &second);

/**
 * True when statement @p s of a traversal over @p domain grouped by
 * @p group adds into a row that other iterations write too, so it
 * scatters by atomics: an e.src row, an e.dst row outside a node
 * group, or a compact row reached per edge outside a pair group. A
 * row the iteration or its group owns (a vanilla edge row, a node in
 * the Nodes domain or under its own DstNode group, a compact row in
 * the UniquePairs domain or under its own pair group) is written
 * without atomics (Sec. 3.4.1). The executor prices atomics and the
 * code generator emits atomicAdd from this one predicate.
 */
bool scattersAtomically(const Program &p, const Stmt &s, RowDomain domain,
                        GroupKey group);

/**
 * The aggregation that lowering, with LowerOptions::fuseGemmScatter,
 * fuses with typed linear @p producer into one scatter GEMM, or
 * nullptr: @p producer's output is vanilla, not the program output,
 * and read only as the vector of that AccumulateScaled, whose scalar
 * carries no gradient and is written by no statement. @p ca analyses
 * @p p.
 */
const Stmt *scatterGemmConsumer(const Program &p, const ConsumerAnalysis &ca,
                                const Stmt &producer);

/**
 * Lower one program (forward or backward) to kernel instances, whose
 * kernel ids (and so names) count up from @p first_kid.
 */
LoweredFunction lower(const Program &p, const LowerOptions &opts,
                      sim::Phase phase, int first_kid = 1);

/**
 * Virtual materialization (Sec. 3.2.2), decided once both directions
 * are lowered. A vanilla edge variable becomes Virtual when every
 * reference to it, in @p fwd_fn and (training) @p bwd_fn, sits in the
 * one traversal instance that writes it, no statement there reads it
 * before the first write, and it is not a program input or output.
 * The variable is marked in both programs' tables, so the memory
 * planner gives it no slot; the instance lists it in virtualVars and
 * its loads are recomputed (a read of it is LoadRate::InRegister).
 * A variable both halves of a split edge loop reference sits in two
 * instances and stays materialized, so the halves and their merged
 * walk (mergedTraversal()) run on the same materializations.
 * Returns the number of variables virtualized.
 */
int virtualizeTemporaries(Program &fwd, LoweredFunction &fwd_fn,
                          Program *bwd, LoweredFunction *bwd_fn);

} // namespace hector::core

#endif // HECTOR_CORE_LOWERING_HH
