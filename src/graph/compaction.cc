#include "graph/compaction.hh"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace hector::graph
{

CompactionMap::CompactionMap(const HeteroGraph &g)
    : numEdges_(g.numEdges())
{
    const auto src = g.src();
    const auto etype_ptr = g.etypePtr();
    const int r_count = g.numEdgeTypes();

    edgeToUnique_.resize(static_cast<std::size_t>(numEdges_));
    uniqueEtypePtr_.assign(static_cast<std::size_t>(r_count) + 1, 0);

    // Edges are presorted by etype, so unique pairs can be assigned
    // per segment; unique rows inherit the segment order, giving the
    // CSR-like layout of Fig. 7(b).
    for (int r = 0; r < r_count; ++r) {
        std::unordered_map<std::int64_t, std::int64_t> seen;
        for (std::int64_t e = etype_ptr[static_cast<std::size_t>(r)];
             e < etype_ptr[static_cast<std::size_t>(r) + 1]; ++e) {
            const std::int64_t s = src[static_cast<std::size_t>(e)];
            auto [it, inserted] = seen.try_emplace(s, numUnique_);
            if (inserted) {
                uniqueSrc_.push_back(s);
                ++numUnique_;
            }
            edgeToUnique_[static_cast<std::size_t>(e)] = it->second;
        }
        uniqueEtypePtr_[static_cast<std::size_t>(r) + 1] = numUnique_;
    }

    // Per-pair edge lists: a counting sort of edges by unique row,
    // which keeps each list in ascending edge order.
    uniquePtr_.assign(static_cast<std::size_t>(numUnique_) + 1, 0);
    for (std::int64_t u : edgeToUnique_)
        ++uniquePtr_[static_cast<std::size_t>(u) + 1];
    for (std::int64_t u = 0; u < numUnique_; ++u)
        uniquePtr_[static_cast<std::size_t>(u) + 1] +=
            uniquePtr_[static_cast<std::size_t>(u)];
    uniqueEdgeIds_.resize(static_cast<std::size_t>(numEdges_));
    std::vector<std::int64_t> cursor(uniquePtr_.begin(), uniquePtr_.end() - 1);
    for (std::int64_t e = 0; e < numEdges_; ++e)
        uniqueEdgeIds_[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(
                edgeToUnique_[static_cast<std::size_t>(e)])]++)] = e;
}

void
CompactionMap::validate(const HeteroGraph &g) const
{
    if (g.numEdges() != numEdges_)
        throw std::runtime_error("CompactionMap: edge count mismatch");
    const auto src = g.src();
    const auto etype = g.etype();
    for (std::int64_t e = 0; e < numEdges_; ++e) {
        const std::int64_t u = edgeToUnique_[static_cast<std::size_t>(e)];
        if (u < 0 || u >= numUnique_)
            throw std::runtime_error("CompactionMap: unique id range");
        if (uniqueSrc_[static_cast<std::size_t>(u)] !=
            src[static_cast<std::size_t>(e)])
            throw std::runtime_error("CompactionMap: src mismatch");
        const std::int32_t r = etype[static_cast<std::size_t>(e)];
        if (u < uniqueEtypePtr_[static_cast<std::size_t>(r)] ||
            u >= uniqueEtypePtr_[static_cast<std::size_t>(r) + 1])
            throw std::runtime_error("CompactionMap: etype segment");
    }
    // Per-pair edge lists: edges of the right row, ascending, and
    // E entries in all, so every edge is listed exactly once.
    if (uniquePtr_.size() != static_cast<std::size_t>(numUnique_) + 1 ||
        uniquePtr_.front() != 0 || uniquePtr_.back() != numEdges_ ||
        uniqueEdgeIds_.size() != static_cast<std::size_t>(numEdges_))
        throw std::runtime_error("CompactionMap: pair edge-list bounds");
    for (std::int64_t u = 0; u < numUnique_; ++u) {
        const std::int64_t lo = uniquePtr_[static_cast<std::size_t>(u)];
        const std::int64_t hi = uniquePtr_[static_cast<std::size_t>(u) + 1];
        if (lo >= hi)
            throw std::runtime_error("CompactionMap: empty pair edge list");
        for (std::int64_t i = lo; i < hi; ++i) {
            const std::int64_t e = uniqueEdgeIds_[static_cast<std::size_t>(i)];
            if (e < 0 || e >= numEdges_ ||
                edgeToUnique_[static_cast<std::size_t>(e)] != u)
                throw std::runtime_error(
                    "CompactionMap: pair edge list disagrees with "
                    "edge_to_unique");
            if (i > lo &&
                uniqueEdgeIds_[static_cast<std::size_t>(i) - 1] >= e)
                throw std::runtime_error(
                    "CompactionMap: pair edge list not ascending");
        }
    }
    // Bijectivity: within an etype segment, unique rows map to
    // distinct source nodes.
    for (int r = 0; r < g.numEdgeTypes(); ++r) {
        std::vector<std::int64_t> seg(
            uniqueSrc_.begin() + uniqueEtypePtr_[static_cast<std::size_t>(r)],
            uniqueSrc_.begin() +
                uniqueEtypePtr_[static_cast<std::size_t>(r) + 1]);
        std::sort(seg.begin(), seg.end());
        if (std::adjacent_find(seg.begin(), seg.end()) != seg.end())
            throw std::runtime_error("CompactionMap: duplicate unique pair");
    }
}

} // namespace hector::graph
