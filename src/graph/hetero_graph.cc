#include "graph/hetero_graph.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hector::graph
{

namespace
{
void
graphCheck(bool cond, const char *msg)
{
    // Takes a literal so the happy path allocates nothing: these
    // checks run per edge/node in the constructor, which the serving
    // micro-batcher hits once per coalesced batch.
    if (!cond)
        throw std::runtime_error(std::string("HeteroGraph: ") + msg);
}
} // namespace

HeteroGraph::HeteroGraph(std::vector<std::int32_t> node_type, int num_ntypes,
                         int num_etypes,
                         std::vector<std::int32_t> etype_src_nt,
                         std::vector<std::int32_t> etype_dst_nt,
                         std::vector<EdgeTriple> edges)
    : numNodes_(static_cast<std::int64_t>(node_type.size())),
      numEdges_(static_cast<std::int64_t>(edges.size())),
      numNodeTypes_(num_ntypes), numEdgeTypes_(num_etypes),
      nodeType_(std::move(node_type)), etypeSrcNt_(std::move(etype_src_nt)),
      etypeDstNt_(std::move(etype_dst_nt))
{
    graphCheck(static_cast<int>(etypeSrcNt_.size()) == num_etypes &&
                   static_cast<int>(etypeDstNt_.size()) == num_etypes,
               "relation metadata size mismatch");

    // Node type segments (nodes must be presorted by type).
    ntypePtr_.assign(static_cast<std::size_t>(numNodeTypes_) + 1, 0);
    for (std::int64_t v = 0; v < numNodes_; ++v) {
        const std::int32_t t = nodeType_[static_cast<std::size_t>(v)];
        graphCheck(t >= 0 && t < numNodeTypes_, "node type out of range");
        if (v > 0)
            graphCheck(nodeType_[static_cast<std::size_t>(v - 1)] <= t,
                       "nodes not sorted by type");
        ++ntypePtr_[static_cast<std::size_t>(t) + 1];
    }
    for (int t = 0; t < numNodeTypes_; ++t)
        ntypePtr_[static_cast<std::size_t>(t) + 1] +=
            ntypePtr_[static_cast<std::size_t>(t)];

    // Sort edges by (etype, dst, src) so segments are contiguous and
    // per-type runs are deterministic.
    std::stable_sort(edges.begin(), edges.end(),
                     [](const EdgeTriple &a, const EdgeTriple &b) {
                         if (a.etype != b.etype)
                             return a.etype < b.etype;
                         if (a.dst != b.dst)
                             return a.dst < b.dst;
                         return a.src < b.src;
                     });

    src_.resize(static_cast<std::size_t>(numEdges_));
    dst_.resize(static_cast<std::size_t>(numEdges_));
    etype_.resize(static_cast<std::size_t>(numEdges_));
    etypePtr_.assign(static_cast<std::size_t>(numEdgeTypes_) + 1, 0);
    for (std::size_t e = 0; e < edges.size(); ++e) {
        const EdgeTriple &t = edges[e];
        graphCheck(t.etype >= 0 && t.etype < numEdgeTypes_,
                   "edge type out of range");
        graphCheck(t.src >= 0 && t.src < numNodes_, "src out of range");
        graphCheck(t.dst >= 0 && t.dst < numNodes_, "dst out of range");
        src_[e] = t.src;
        dst_[e] = t.dst;
        etype_[e] = t.etype;
        ++etypePtr_[static_cast<std::size_t>(t.etype) + 1];
    }
    for (int r = 0; r < numEdgeTypes_; ++r)
        etypePtr_[static_cast<std::size_t>(r) + 1] +=
            etypePtr_[static_cast<std::size_t>(r)];

    // CSR by destination.
    inPtr_.assign(static_cast<std::size_t>(numNodes_) + 1, 0);
    for (std::size_t e = 0; e < src_.size(); ++e)
        ++inPtr_[static_cast<std::size_t>(dst_[e]) + 1];
    for (std::int64_t v = 0; v < numNodes_; ++v) {
        if (inPtr_[static_cast<std::size_t>(v) + 1] > 0)
            ++numNodesWithInEdges_;
        inPtr_[static_cast<std::size_t>(v) + 1] +=
            inPtr_[static_cast<std::size_t>(v)];
    }
    inEdgeIds_.resize(static_cast<std::size_t>(numEdges_));
    {
        std::vector<std::int64_t> cursor(inPtr_.begin(), inPtr_.end() - 1);
        for (std::int64_t e = 0; e < numEdges_; ++e) {
            auto &c = cursor[static_cast<std::size_t>(
                dst_[static_cast<std::size_t>(e)])];
            inEdgeIds_[static_cast<std::size_t>(c++)] = e;
        }
    }
    // Runs of equal etype along each node's in-edge list. Edges are
    // sorted by etype and listed in ascending id, so each run is the
    // whole (dst, etype) group, and its length is the RGCN
    // normalization count: 1 / |N_r(dst)| for every edge of the run.
    rgcnNorm_.resize(static_cast<std::size_t>(numEdges_), 1.0f);
    for (std::int64_t v = 0; v < numNodes_; ++v) {
        const std::int64_t end = inPtr_[static_cast<std::size_t>(v) + 1];
        std::int32_t last = -1;
        for (std::int64_t i = inPtr_[static_cast<std::size_t>(v)]; i < end;) {
            const std::int32_t t = etype_[static_cast<std::size_t>(
                inEdgeIds_[static_cast<std::size_t>(i)])];
            graphCheck(t > last, "in-edge etype runs out of order");
            std::int64_t j = i + 1;
            while (j < end &&
                   etype_[static_cast<std::size_t>(
                       inEdgeIds_[static_cast<std::size_t>(j)])] == t)
                ++j;
            const float norm = 1.0f / static_cast<float>(j - i);
            for (; i < j; ++i)
                rgcnNorm_[static_cast<std::size_t>(
                    inEdgeIds_[static_cast<std::size_t>(i)])] = norm;
            ++numInEtypeRuns_;
            last = t;
        }
    }
}

std::size_t
HeteroGraph::structureBytes() const
{
    return src_.size() * sizeof(std::int64_t) +
           dst_.size() * sizeof(std::int64_t) +
           etype_.size() * sizeof(std::int32_t) +
           etypePtr_.size() * sizeof(std::int64_t) +
           inPtr_.size() * sizeof(std::int64_t) +
           inEdgeIds_.size() * sizeof(std::int64_t) +
           nodeType_.size() * sizeof(std::int32_t) +
           rgcnNorm_.size() * sizeof(float);
}

std::string
HeteroGraph::schemaSignature() const
{
    std::string s = "nt=" + std::to_string(numNodeTypes_) +
                    ";et=" + std::to_string(numEdgeTypes_) + ";rel=";
    for (int r = 0; r < numEdgeTypes_; ++r) {
        s += std::to_string(etypeSrcNt_[static_cast<std::size_t>(r)]);
        s += "->";
        s += std::to_string(etypeDstNt_[static_cast<std::size_t>(r)]);
        s += ',';
    }
    return s;
}

bool
HeteroGraph::sameSchema(const HeteroGraph &o) const
{
    return numNodeTypes_ == o.numNodeTypes_ &&
           numEdgeTypes_ == o.numEdgeTypes_ &&
           etypeSrcNt_ == o.etypeSrcNt_ && etypeDstNt_ == o.etypeDstNt_;
}

void
HeteroGraph::validate() const
{
    graphCheck(etypePtr_.front() == 0 && etypePtr_.back() == numEdges_,
               "etypePtr does not cover edges");
    for (int r = 0; r < numEdgeTypes_; ++r) {
        graphCheck(etypePtr_[static_cast<std::size_t>(r)] <=
                       etypePtr_[static_cast<std::size_t>(r) + 1],
                   "etypePtr not monotone");
        for (std::int64_t e = etypePtr_[static_cast<std::size_t>(r)];
             e < etypePtr_[static_cast<std::size_t>(r) + 1]; ++e) {
            graphCheck(etype_[static_cast<std::size_t>(e)] == r,
                       "edge in wrong segment");
            const std::int64_t s = src_[static_cast<std::size_t>(e)];
            const std::int64_t d = dst_[static_cast<std::size_t>(e)];
            graphCheck(nodeType_[static_cast<std::size_t>(s)] ==
                           etypeSrcNt_[static_cast<std::size_t>(r)],
                       "edge src violates relation source type");
            graphCheck(nodeType_[static_cast<std::size_t>(d)] ==
                           etypeDstNt_[static_cast<std::size_t>(r)],
                       "edge dst violates relation destination type");
        }
    }
    graphCheck(inPtr_.front() == 0 && inPtr_.back() == numEdges_,
               "inPtr does not cover edges");
    for (std::int64_t v = 0; v < numNodes_; ++v) {
        for (std::int64_t i = inPtr_[static_cast<std::size_t>(v)];
             i < inPtr_[static_cast<std::size_t>(v) + 1]; ++i) {
            const std::int64_t e = inEdgeIds_[static_cast<std::size_t>(i)];
            graphCheck(dst_[static_cast<std::size_t>(e)] == v,
                       "CSR row lists edge with wrong destination");
        }
    }
}

} // namespace hector::graph
