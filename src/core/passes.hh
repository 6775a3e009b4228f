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
 * then fuses an edgewise loop
 * into an immediately following dst-nodes aggregation loop when all of
 * its outputs are consumed only there (using the for-each-edge ==
 * for-each-dst-node/incoming-edge equivalence rule). Fused-away
 * temporaries are demoted to Virtual when @p allow_virtual is set
 * (inference); in training they stay materialized because backward
 * kernels read them.
 */
PassStats fuseLoops(Program &p, bool allow_virtual);

} // namespace hector::core

#endif // HECTOR_CORE_PASSES_HH
