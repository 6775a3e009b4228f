/**
 * @file
 * Heterogeneous graph storage used by all execution strategies.
 *
 * Layout follows the paper's defaults: edges are presorted by edge
 * type into contiguous segments (so segment-MM applies directly),
 * with COO row/col arrays plus an etype_ptr offset table; nodes are
 * presorted by node type. A CSR-by-destination view is kept for
 * nodewise aggregation, and per-edge RGCN normalization constants
 * (1 / |N_r(v)|) are precomputed.
 */

#ifndef HECTOR_GRAPH_HETERO_GRAPH_HH
#define HECTOR_GRAPH_HETERO_GRAPH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace hector::graph
{

/** A single typed edge used during graph construction. */
struct EdgeTriple
{
    std::int64_t src;
    std::int64_t dst;
    std::int32_t etype;
};

/**
 * Immutable heterogeneous graph.
 *
 * Invariants (checked by validate()):
 *  - edges are sorted by etype; etypePtr has numEdgeTypes+1 entries
 *  - nodes are sorted by ntype; ntypePtr has numNodeTypes+1 entries
 *  - every edge's endpoints respect its relation's canonical
 *    (source node type, destination node type)
 *  - the CSR-by-destination view indexes exactly the COO edges
 */
class HeteroGraph
{
  public:
    /**
     * Build a graph from an unsorted edge list.
     *
     * @param node_type   per-node type id; nodes must be presorted by
     *                    type (type ids non-decreasing)
     * @param num_ntypes  number of node types
     * @param num_etypes  number of edge types
     * @param etype_src_nt canonical source node type per edge type
     * @param etype_dst_nt canonical destination node type per edge type
     * @param edges       edge list in any order (sorted internally)
     */
    HeteroGraph(std::vector<std::int32_t> node_type, int num_ntypes,
                int num_etypes, std::vector<std::int32_t> etype_src_nt,
                std::vector<std::int32_t> etype_dst_nt,
                std::vector<EdgeTriple> edges);

    std::int64_t numNodes() const { return numNodes_; }
    std::int64_t numEdges() const { return numEdges_; }
    int numNodeTypes() const { return numNodeTypes_; }
    int numEdgeTypes() const { return numEdgeTypes_; }

    double
    avgDegree() const
    {
        return numNodes_ ? static_cast<double>(numEdges_) / numNodes_ : 0.0;
    }

    /// @name Edgewise arrays (sorted by edge type).
    /// @{
    std::span<const std::int64_t> src() const { return src_; }
    std::span<const std::int64_t> dst() const { return dst_; }
    std::span<const std::int32_t> etype() const { return etype_; }
    /** Per-type edge segment offsets, size numEdgeTypes+1. */
    std::span<const std::int64_t> etypePtr() const { return etypePtr_; }
    /// @}

    /// @name Nodewise arrays (sorted by node type).
    /// @{
    std::span<const std::int32_t> nodeType() const { return nodeType_; }
    /** Per-type node segment offsets, size numNodeTypes+1. */
    std::span<const std::int64_t> ntypePtr() const { return ntypePtr_; }
    /// @}

    /// @name Relation metadata.
    /// @{
    std::int32_t etypeSrcNtype(int r) const { return etypeSrcNt_[r]; }
    std::int32_t etypeDstNtype(int r) const { return etypeDstNt_[r]; }
    std::int64_t
    numEdgesOfType(int r) const
    {
        return etypePtr_[r + 1] - etypePtr_[r];
    }
    /// @}

    /// @name CSR by destination (for nodewise aggregation).
    /// @{
    /** Offsets into inEdgeIds(), size numNodes+1. */
    std::span<const std::int64_t> inPtr() const { return inPtr_; }
    /** Edge ids grouped by destination node. */
    std::span<const std::int64_t> inEdgeIds() const { return inEdgeIds_; }
    std::int64_t
    inDegree(std::int64_t v) const
    {
        return inPtr_[v + 1] - inPtr_[v];
    }
    /// @}

    /** Per-edge RGCN normalization 1 / |N_r(dst)|. */
    std::span<const float> rgcnNorm() const { return rgcnNorm_; }

    /** Nodes with at least one in-edge (counted once, at CSR build). */
    std::int64_t numNodesWithInEdges() const { return numNodesWithInEdges_; }

    /**
     * Runs of equal etype in the in-CSR walk (counted once, at CSR
     * build). A node's in-edges are listed in ascending edge id and
     * edges are sorted by etype, so this is the number of distinct
     * (dst, etype) pairs.
     */
    std::int64_t numInEtypeRuns() const { return numInEtypeRuns_; }

    /** Average in-degree over nodes with at least one in-edge. */
    double
    avgNonzeroInDegree() const
    {
        return numNodesWithInEdges_
                   ? static_cast<double>(numEdges_) / numNodesWithInEdges_
                   : 0.0;
    }

    /** Bytes of adjacency structure (for footprint accounting). */
    std::size_t structureBytes() const;

    /**
     * Canonical encoding of the graph *schema*: node/edge type counts
     * and each relation's canonical (source, destination) node types —
     * everything a compiled plan depends on, and nothing about the
     * concrete nodes/edges (plans are graph-independent). Two graphs
     * with equal signatures can share one compiled plan.
     */
    std::string schemaSignature() const;

    /**
     * True when @p o has the same schema (type counts and relation
     * endpoint types). Equivalent to comparing schemaSignature()s
     * without building the strings — the serving micro-batcher checks
     * this per request per batch.
     */
    bool sameSchema(const HeteroGraph &o) const;

    /** @throws std::runtime_error on any violated invariant. */
    void validate() const;

  private:
    std::int64_t numNodes_;
    std::int64_t numEdges_;
    int numNodeTypes_;
    int numEdgeTypes_;

    std::vector<std::int32_t> nodeType_;
    std::vector<std::int64_t> ntypePtr_;
    std::vector<std::int32_t> etypeSrcNt_;
    std::vector<std::int32_t> etypeDstNt_;

    std::vector<std::int64_t> src_;
    std::vector<std::int64_t> dst_;
    std::vector<std::int32_t> etype_;
    std::vector<std::int64_t> etypePtr_;

    std::vector<std::int64_t> inPtr_;
    std::vector<std::int64_t> inEdgeIds_;
    std::int64_t numNodesWithInEdges_ = 0;
    std::int64_t numInEtypeRuns_ = 0;

    std::vector<float> rgcnNorm_;
};

} // namespace hector::graph

#endif // HECTOR_GRAPH_HETERO_GRAPH_HH
