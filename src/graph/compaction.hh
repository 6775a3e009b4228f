/**
 * @file
 * Compact materialization mapping (paper Sec. 3.2.2, Fig. 7).
 *
 * Edgewise data that depends only on (source node, edge type) can be
 * computed and stored once per *unique* such pair rather than once per
 * edge. This mapping precomputes, in the paper's CSR-like form:
 *   - unique_row_idx  : source node of each unique row (GEMM gather)
 *   - unique_etype_ptr: per-type segment offsets over unique rows
 *   - edge_to_unique  : per-edge index of its unique row (read access)
 *   - unique_ptr / unique_eids: each unique row's edges, ascending
 *     (the pair-grouped traversal walk; the inverse of edge_to_unique)
 * The "entity compaction ratio" (#unique pairs / #edges) drives the
 * memory-footprint results of Fig. 10 and the speedups of Table 5.
 */

#ifndef HECTOR_GRAPH_COMPACTION_HH
#define HECTOR_GRAPH_COMPACTION_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/hetero_graph.hh"

namespace hector::graph
{

/** Unique (source node, edge type) materialization map. */
class CompactionMap
{
  public:
    /** Builds the map for @p g; O(|E| log |E|). */
    explicit CompactionMap(const HeteroGraph &g);

    /** Number of unique (source node, edge type) pairs. */
    std::int64_t numUnique() const { return numUnique_; }

    std::int64_t numEdges() const { return numEdges_; }

    /** Entity compaction ratio = numUnique / numEdges, in (0, 1]. */
    double
    ratio() const
    {
        return numEdges_ ? static_cast<double>(numUnique_) / numEdges_ : 1.0;
    }

    /** Source node per unique row (the paper's unique_row_idx). */
    std::span<const std::int64_t> uniqueRowIdx() const { return uniqueSrc_; }

    /** Per-type offsets over unique rows (unique_etype_ptr), R+1. */
    std::span<const std::int64_t>
    uniqueEtypePtr() const
    {
        return uniqueEtypePtr_;
    }

    /** Unique row index for each edge. */
    std::span<const std::int64_t>
    edgeToUnique() const
    {
        return edgeToUnique_;
    }

    /** Offsets of each unique row's edge list (unique_ptr), U+1. */
    std::span<const std::int64_t> uniquePtr() const { return uniquePtr_; }

    /**
     * Edge ids grouped by unique row (unique_eids): the edges of row u
     * are uniqueEdgeIds()[uniquePtr()[u] .. uniquePtr()[u + 1]), in
     * ascending order.
     */
    std::span<const std::int64_t>
    uniqueEdgeIds() const
    {
        return uniqueEdgeIds_;
    }

    /** @throws std::runtime_error if the map is inconsistent with g. */
    void validate(const HeteroGraph &g) const;

  private:
    std::int64_t numUnique_ = 0;
    std::int64_t numEdges_ = 0;
    std::vector<std::int64_t> uniqueSrc_;
    std::vector<std::int64_t> uniqueEtypePtr_;
    std::vector<std::int64_t> edgeToUnique_;
    std::vector<std::int64_t> uniquePtr_;
    std::vector<std::int64_t> uniqueEdgeIds_;
};

} // namespace hector::graph

#endif // HECTOR_GRAPH_COMPACTION_HH
