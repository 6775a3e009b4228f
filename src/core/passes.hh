/**
 * @file
 * Inter-operator level transformation passes (paper Sec. 3.2).
 *
 * All passes rewrite the Program in place and report what they did,
 * so tests can assert on both the rewritten IR and the statistics.
 */

#ifndef HECTOR_CORE_PASSES_HH
#define HECTOR_CORE_PASSES_HH

#include <map>
#include <string>
#include <vector>

#include "core/inter_op_ir.hh"

namespace hector::core
{

/** What the passes changed; accumulated across passes. */
struct PassStats
{
    /** Typed linears deleted by linear operator reordering. */
    int reorderedLinears = 0;
    /** Weight-weight precompute statements created. */
    int composedWeights = 0;
    /** EdgeData variables switched to compact materialization. */
    int compactedVars = 0;
    /** Loops merged or fused away. */
    int fusedLoops = 0;
    /** Variables demoted to Virtual (never materialized). */
    int virtualizedVars = 0;
};

/**
 * Where every variable is consumed. Positions identify (top-level
 * loop index, -1 for weight precompute) per read; the program output
 * counts as an extra consumer at position kOutputConsumer.
 */
class ConsumerAnalysis
{
  public:
    static constexpr int kOutputConsumer = -2;

    explicit ConsumerAnalysis(const Program &p);

    /** Statements (identified by pointer) reading @p var. */
    const std::vector<const Stmt *> &
    readers(const std::string &var) const;

    /** Top-level loop indices containing reads of @p var. */
    const std::vector<int> &readerLoops(const std::string &var) const;

    bool isProgramOutput(const std::string &var) const;

  private:
    std::map<std::string, std::vector<const Stmt *>> readers_;
    std::map<std::string, std::vector<int>> readerLoops_;
    std::string output_;
    std::vector<const Stmt *> empty_;
    std::vector<int> emptyLoops_;
};

/**
 * Linear operator reordering (Sec. 3.2.3, Fig. 6).
 *
 * Two rewrites, both of which turn an entity-count-sized GEMM into a
 * type-count-sized weight-weight product:
 *
 *  (a) y = typed_linear(x, W); s = dot(y, wv[r])  — when *every*
 *      consumer of y is such a dot — becomes
 *      s = dot(x, (W . wv^T)[r]) and the typed linear is deleted.
 *
 *  (b) k = typed_linear(x, W1[ntype]) (nodewise);
 *      y = typed_linear(k.src, W2[etype]) — when every consumer of k
 *      is such an edgewise typed linear — becomes
 *      y = typed_linear(x.src, (W1[srcNt(r)] . W2[r])) and the
 *      nodewise projection is deleted.
 *
 * Following the paper, the rewrite is applied whenever it produces an
 * operator between weights, without a profitability gate; the cost
 * model then shows where it pays off (Table 5 reproduces cases where
 * it does not, e.g. HGT on fb15k).
 */
PassStats linearOperatorReordering(Program &p);

/**
 * Compact materialization marking (Sec. 3.2.2, Fig. 7).
 *
 * Marks every EdgeData variable whose defining statement depends only
 * on (source node, edge type) as Compact: it will be materialized with
 * one row per unique (src, etype) pair and addressed through the
 * CompactionMap at execution and code-generation time.
 */
PassStats compactMaterialization(Program &p);

/**
 * Graph-semantic-aware loop canonicalization and fusion (Sec. 3.2.4).
 *
 * Merges adjacent same-domain edge loops (refusing a merge when one
 * loop reads, through an edge endpoint or a compact row, a variable
 * the other scatters into: the merged loop would see partial sums),
 * then folds an edgewise loop into the dst-nodes aggregation nest
 * that immediately follows it, using the for-each-edge ==
 * for-each-dst-node/incoming-edge equivalence rule. A fold is refused
 * when the edge loop writes a program output or reads a variable the
 * nest writes, or when the nest reads, through a shared row, a
 * variable the edge loop writes in a traversal.
 *
 *  - When every output of the edge loop is read only inside the loop
 *    or the nest, the whole loop moves into the nest (lowering still
 *    extracts its typed linears onto the GEMM template ahead of it).
 *  - Otherwise the loop's other outputs are read later as well, and
 *    only its traversal statements move in; those outputs stay
 *    materialized. Typed linears and statements writing compact rows
 *    stay out: the ones the nest reads, itself or through a moved
 *    statement, run in an edge loop before the nest, the rest in one
 *    after it (HGT's `msg` GEMM, so its rows are not live across the
 *    walk). A loop holding a statement that writes a weight is never
 *    split, and no two statements that touch a common variable change
 *    order.
 *
 * This is how the edge-softmax sum joins the walk that computes the
 * scores (RGAT `attt ... att_exp` + `att_sum`). Materialization is
 * not decided here: after lowering, virtualizeTemporaries
 * (core/lowering.hh) keeps every edge temporary that only its own
 * instance reads in registers.
 */
PassStats fuseLoops(Program &p);

/**
 * Self-loop fold (RGCN's h_out = h_agg + h_self), run before autodiff.
 *
 * Pattern: a nodewise `out = add(a, b)` where `a` is written only by
 * an aggregation into the destination node of an incoming-edges loop
 * and read only by the add, and `b` is written only by a nodewise
 * typed linear and read only by the add. The typed linear then writes
 * `out` in a node loop placed right before the nest, the aggregation
 * adds into `out` as a Stmt::sumFirst statement, and the add, `a` and
 * `b` go away. Forward this removes a node pass and the `a` buffer;
 * backward, autodiff sees no add, so there is no pass copying the
 * output gradient into `a`'s and `b`'s.
 *
 * The bits do not change: out[n] = b[n] + (0 + c1 + ...) equals
 * (0 + c1 + ...) + b[n], and a node without an incoming edge keeps
 * b[n] where it had 0 + b[n], which is the same value because a GEMM
 * row starts at +0 and so is never -0. When @p gemm_scatter is set
 * and lowering would fuse the aggregation with its producer into one
 * scatter GEMM (LowerOptions::fuseGemmScatter), the fold is refused:
 * that GEMM sums in edge order, not per node.
 */
PassStats foldAddIntoAggregation(Program &p, bool gemm_scatter);

} // namespace hector::core

#endif // HECTOR_CORE_PASSES_HH
