/**
 * @file
 * Tests for the heterogeneous graph substrate: structural invariants
 * of HeteroGraph on every Table 3 generator, CSR correctness, RGCN
 * normalization, compaction-map properties (DESIGN.md invariant 6),
 * and generator determinism.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <set>

#include "graph/compaction.hh"
#include "graph/datasets.hh"
#include "graph/hetero_graph.hh"
#include "graph/sampler.hh"

namespace
{

using namespace hector::graph;

class DatasetInvariants : public testing::TestWithParam<std::string>
{
  protected:
    HeteroGraph
    load() const
    {
        return generate(datasetSpec(GetParam()), 1.0 / 1024.0, 99);
    }
};

TEST_P(DatasetInvariants, GraphValidates)
{
    HeteroGraph g = load();
    g.validate();
    EXPECT_GT(g.numNodes(), 0);
    EXPECT_GT(g.numEdges(), 0);
    EXPECT_EQ(g.etypePtr().size(),
              static_cast<std::size_t>(g.numEdgeTypes()) + 1);
    EXPECT_EQ(g.ntypePtr().size(),
              static_cast<std::size_t>(g.numNodeTypes()) + 1);
}

TEST_P(DatasetInvariants, CsrMatchesCoo)
{
    HeteroGraph g = load();
    // Every edge appears exactly once in the CSR view.
    std::vector<int> seen(static_cast<std::size_t>(g.numEdges()), 0);
    for (std::int64_t v = 0; v < g.numNodes(); ++v) {
        for (std::int64_t i = g.inPtr()[static_cast<std::size_t>(v)];
             i < g.inPtr()[static_cast<std::size_t>(v) + 1]; ++i) {
            const std::int64_t e =
                g.inEdgeIds()[static_cast<std::size_t>(i)];
            EXPECT_EQ(g.dst()[static_cast<std::size_t>(e)], v);
            ++seen[static_cast<std::size_t>(e)];
        }
    }
    for (int c : seen)
        EXPECT_EQ(c, 1);
    // The count of nodes with an in-edge is cached at CSR build.
    std::int64_t with_in_edges = 0;
    for (std::int64_t v = 0; v < g.numNodes(); ++v)
        with_in_edges += g.inDegree(v) > 0;
    EXPECT_EQ(g.numNodesWithInEdges(), with_in_edges);
}

TEST_P(DatasetInvariants, RgcnNormSumsToOnePerDstRelation)
{
    HeteroGraph g = load();
    std::map<std::pair<std::int64_t, std::int32_t>, double> sums;
    for (std::int64_t e = 0; e < g.numEdges(); ++e)
        sums[{g.dst()[static_cast<std::size_t>(e)],
              g.etype()[static_cast<std::size_t>(e)]}] +=
            g.rgcnNorm()[static_cast<std::size_t>(e)];
    for (const auto &[key, s] : sums)
        EXPECT_NEAR(s, 1.0, 1e-4);
}

TEST_P(DatasetInvariants, CompactionMapIsConsistentBijection)
{
    HeteroGraph g = load();
    CompactionMap cmap(g);
    cmap.validate(g); // throws on any violation
    EXPECT_GT(cmap.numUnique(), 0);
    EXPECT_LE(cmap.numUnique(), g.numEdges());
    EXPECT_GT(cmap.ratio(), 0.0);
    EXPECT_LE(cmap.ratio(), 1.0);

    // Count unique (src, etype) pairs independently.
    std::set<std::pair<std::int64_t, std::int32_t>> pairs;
    for (std::int64_t e = 0; e < g.numEdges(); ++e)
        pairs.insert({g.src()[static_cast<std::size_t>(e)],
                      g.etype()[static_cast<std::size_t>(e)]});
    EXPECT_EQ(static_cast<std::int64_t>(pairs.size()), cmap.numUnique());
}

TEST_P(DatasetInvariants, PairEdgeListsInvertEdgeToUnique)
{
    HeteroGraph g = load();
    CompactionMap cmap(g);
    const auto ptr = cmap.uniquePtr();
    const auto eids = cmap.uniqueEdgeIds();
    ASSERT_EQ(static_cast<std::int64_t>(ptr.size()), cmap.numUnique() + 1);
    ASSERT_EQ(static_cast<std::int64_t>(eids.size()), g.numEdges());
    EXPECT_EQ(ptr.front(), 0);
    EXPECT_EQ(ptr.back(), g.numEdges());
    std::vector<int> listed(static_cast<std::size_t>(g.numEdges()), 0);
    for (std::int64_t u = 0; u < cmap.numUnique(); ++u) {
        const auto lo = ptr[static_cast<std::size_t>(u)];
        const auto hi = ptr[static_cast<std::size_t>(u) + 1];
        ASSERT_LT(lo, hi) << "pair " << u << " has no edge";
        for (auto i = lo; i < hi; ++i) {
            const std::int64_t e = eids[static_cast<std::size_t>(i)];
            EXPECT_EQ(cmap.edgeToUnique()[static_cast<std::size_t>(e)], u);
            if (i > lo) {
                EXPECT_LT(eids[static_cast<std::size_t>(i) - 1], e);
            }
            ++listed[static_cast<std::size_t>(e)];
        }
    }
    for (int n : listed)
        EXPECT_EQ(n, 1);
}

TEST_P(DatasetInvariants, GenerationIsDeterministic)
{
    HeteroGraph a = generate(datasetSpec(GetParam()), 1.0 / 1024.0, 7);
    HeteroGraph b = generate(datasetSpec(GetParam()), 1.0 / 1024.0, 7);
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (std::int64_t e = 0; e < a.numEdges(); ++e) {
        EXPECT_EQ(a.src()[static_cast<std::size_t>(e)],
                  b.src()[static_cast<std::size_t>(e)]);
        EXPECT_EQ(a.dst()[static_cast<std::size_t>(e)],
                  b.dst()[static_cast<std::size_t>(e)]);
    }
    HeteroGraph c = generate(datasetSpec(GetParam()), 1.0 / 1024.0, 8);
    bool differs = c.numEdges() != a.numEdges();
    for (std::int64_t e = 0; !differs && e < a.numEdges(); ++e)
        differs = a.src()[static_cast<std::size_t>(e)] !=
                  c.src()[static_cast<std::size_t>(e)];
    EXPECT_TRUE(differs) << "different seeds should differ";
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, DatasetInvariants,
    testing::Values("aifb", "am", "bgs", "biokg", "fb15k", "mag", "mutag",
                    "wikikg2"),
    [](const testing::TestParamInfo<std::string> &i) { return i.param; });

TEST(Datasets, ScaleGrowsEdgeCount)
{
    const auto spec = datasetSpec("bgs");
    HeteroGraph small = generate(spec, 1.0 / 2048.0);
    HeteroGraph big = generate(spec, 1.0 / 256.0);
    EXPECT_GT(big.numEdges(), small.numEdges());
    EXPECT_GE(big.numNodes(), small.numNodes());
    EXPECT_EQ(big.numEdgeTypes(), small.numEdgeTypes());
}

TEST(Datasets, CompactionRatioTracksTargetOrdering)
{
    // Absolute targets cannot be hit exactly after 1/256 downscaling,
    // but the ordering between a strongly-compactable dataset (biokg,
    // target 12%) and a weakly-compactable one (wikikg2, target 75%)
    // must survive, since Table 5's shape depends on it.
    HeteroGraph biokg = generate(datasetSpec("biokg"), 1.0 / 256.0);
    HeteroGraph wikikg2 = generate(datasetSpec("wikikg2"), 1.0 / 256.0);
    EXPECT_LT(CompactionMap(biokg).ratio() + 0.2,
              CompactionMap(wikikg2).ratio());
}

TEST(Datasets, UnknownNameThrows)
{
    EXPECT_THROW(datasetSpec("nope"), std::runtime_error);
}

TEST(Datasets, Table3HasAllEight)
{
    const auto specs = table3Specs();
    EXPECT_EQ(specs.size(), 8u);
    for (const auto &s : specs) {
        EXPECT_GT(s.numNodes, 0);
        EXPECT_GT(s.numEdges, 0);
        EXPECT_GT(s.compactionTarget, 0.0);
        EXPECT_LE(s.compactionTarget, 1.0);
    }
}

TEST(ToyGraph, MatchesFig6Structure)
{
    HeteroGraph g = toyCitationGraph();
    g.validate();
    EXPECT_EQ(g.numNodes(), 7);
    EXPECT_EQ(g.numEdges(), 9);
    EXPECT_EQ(g.numNodeTypes(), 3);
    EXPECT_EQ(g.numEdgeTypes(), 3);
    // employs edges come from the institution (node 0).
    for (std::int64_t e = g.etypePtr()[0]; e < g.etypePtr()[1]; ++e)
        EXPECT_EQ(g.src()[static_cast<std::size_t>(e)], 0);
    // paper node 3 has incoming writes and cites edges.
    EXPECT_GT(g.inDegree(3), 1);
}

TEST(HeteroGraph, RejectsMalformedInput)
{
    // Node not sorted by type.
    EXPECT_THROW(HeteroGraph({1, 0}, 2, 1, {0}, {1}, {{0, 1, 0}}),
                 std::runtime_error);
    // Edge type out of range.
    EXPECT_THROW(HeteroGraph({0, 1}, 2, 1, {0}, {1}, {{0, 1, 5}}),
                 std::runtime_error);
    // Endpoint out of range.
    EXPECT_THROW(HeteroGraph({0, 1}, 2, 1, {0}, {1}, {{0, 7, 0}}),
                 std::runtime_error);
}

TEST(HeteroGraph, ValidateCatchesRelationTypeViolation)
{
    // Edge whose src node type disagrees with its relation metadata:
    // construction succeeds (metadata is advisory at build time), but
    // validate() must reject it.
    HeteroGraph g({0, 1}, 2, 1, {1}, {1}, {{0, 1, 0}});
    EXPECT_THROW(g.validate(), std::runtime_error);
}

TEST(HeteroGraph, EdgesSortedByTypeSegments)
{
    HeteroGraph g = toyCitationGraph();
    for (std::int64_t e = 1; e < g.numEdges(); ++e)
        EXPECT_LE(g.etype()[static_cast<std::size_t>(e - 1)],
                  g.etype()[static_cast<std::size_t>(e)]);
    for (int r = 0; r < g.numEdgeTypes(); ++r)
        EXPECT_EQ(g.numEdgesOfType(r),
                  g.etypePtr()[static_cast<std::size_t>(r) + 1] -
                      g.etypePtr()[static_cast<std::size_t>(r)]);
}

TEST(HeteroGraph, StructureBytesPositiveAndGrows)
{
    HeteroGraph small = toyCitationGraph();
    HeteroGraph big = generate(datasetSpec("mutag"), 1.0 / 256.0);
    EXPECT_GT(small.structureBytes(), 0u);
    EXPECT_GT(big.structureBytes(), small.structureBytes());
}

/** Distinct (dst, etype) pairs of @p g, from its COO arrays. */
std::int64_t
distinctDstEtype(const HeteroGraph &g)
{
    std::set<std::pair<std::int64_t, std::int32_t>> pairs;
    for (std::int64_t e = 0; e < g.numEdges(); ++e)
        pairs.insert({g.dst()[static_cast<std::size_t>(e)],
                      g.etype()[static_cast<std::size_t>(e)]});
    return static_cast<std::int64_t>(pairs.size());
}

/** Bytes of the COO, type, CSR and normalization arrays of @p g. */
std::size_t
arrayBytes(const HeteroGraph &g)
{
    const auto e = static_cast<std::size_t>(g.numEdges());
    const auto n = static_cast<std::size_t>(g.numNodes());
    return e * (8 + 8 + 4 + 8 + 4) +
           (static_cast<std::size_t>(g.numEdgeTypes()) + 1) * 8 +
           (n + 1) * 8 + n * 4;
}

TEST(HeteroGraph, InEtypeRunsCountDistinctDstEtypePairs)
{
    const HeteroGraph am = generate(datasetSpec("am"), 1.0 / 256.0);
    std::mt19937_64 rng(7);
    SampleSpec spec;
    spec.numSeeds = 128;
    spec.fanout = 4;
    const std::vector<std::pair<std::string, HeteroGraph>> graphs = {
        {"am", am},
        {"mag", generate(datasetSpec("mag"), 1.0 / 256.0)},
        {"am block", sampleNeighbors(am, spec, rng).subgraph},
    };
    for (const auto &[name, g] : graphs) {
        EXPECT_EQ(g.numInEtypeRuns(), distinctDstEtype(g)) << name;
        // Some (dst, etype) pair has several edges.
        EXPECT_LT(g.numInEtypeRuns(), g.numEdges()) << name;
        EXPECT_GE(g.numInEtypeRuns(), g.numNodesWithInEdges()) << name;
        // Counted, not stored: the structure holds no new array.
        EXPECT_EQ(g.structureBytes(), arrayBytes(g)) << name;
    }
    const HeteroGraph edgeless({0, 0, 1, 1}, 2, 2, {0, 1}, {1, 0}, {});
    EXPECT_EQ(edgeless.numInEtypeRuns(), 0);
    EXPECT_EQ(edgeless.structureBytes(), arrayBytes(edgeless));
}

TEST(HeteroGraph, RgcnNormMatchesAPerPairCountBitForBit)
{
    // The norm comes from the in-CSR etype-run walk; the reference
    // counts each (dst, etype) pair in a map.
    auto reference = [](const HeteroGraph &g) {
        std::map<std::pair<std::int64_t, std::int32_t>, std::int64_t> count;
        for (std::int64_t e = 0; e < g.numEdges(); ++e)
            ++count[{g.dst()[static_cast<std::size_t>(e)],
                     g.etype()[static_cast<std::size_t>(e)]}];
        std::vector<float> norm;
        for (std::int64_t e = 0; e < g.numEdges(); ++e)
            norm.push_back(1.0f /
                           static_cast<float>(
                               count[{g.dst()[static_cast<std::size_t>(e)],
                                      g.etype()[static_cast<std::size_t>(e)]}]));
        return norm;
    };
    const HeteroGraph am = generate(datasetSpec("am"), 1.0 / 256.0);
    std::mt19937_64 rng(3);
    SampleSpec spec;
    spec.numSeeds = 128;
    const std::vector<std::pair<std::string, HeteroGraph>> graphs = {
        {"am", am},
        {"mag", generate(datasetSpec("mag"), 1.0 / 256.0)},
        {"am block", sampleNeighbors(am, spec, rng).subgraph},
        {"edgeless", HeteroGraph({0, 0, 1, 1}, 2, 2, {0, 1}, {1, 0}, {})},
        // Nodes 1, 3 and 4 have no in-edge; node 2 has two etypes.
        {"isolated",
         HeteroGraph({0, 0, 0, 1, 1}, 2, 2, {0, 1}, {0, 0},
                     {{0, 2, 0}, {1, 2, 0}, {3, 2, 1}, {4, 0, 1}})},
    };
    for (const auto &[name, g] : graphs) {
        const std::vector<float> want = reference(g);
        const auto got = g.rgcnNorm();
        ASSERT_EQ(got.size(), want.size()) << name;
        EXPECT_TRUE(want.empty() ||
                    std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(float)) == 0)
            << name;
    }
}

TEST(CompactionMap, ToyGraphCountsUniquePairs)
{
    HeteroGraph g = toyCitationGraph();
    CompactionMap cmap(g);
    // employs: node 0 twice -> 1 unique; writes: authors 1,2 -> 2;
    // cites: papers 4,5,5,6 -> 3 unique.
    EXPECT_EQ(cmap.numUnique(), 6);
    EXPECT_NEAR(cmap.ratio(), 6.0 / 9.0, 1e-9);
    // Unique rows are segmented by edge type.
    EXPECT_EQ(cmap.uniqueEtypePtr()[0], 0);
    EXPECT_EQ(cmap.uniqueEtypePtr()[1], 1);
    EXPECT_EQ(cmap.uniqueEtypePtr()[2], 3);
    EXPECT_EQ(cmap.uniqueEtypePtr()[3], 6);
}

TEST(CompactionMap, ValidateRejectsCorruptedPairEdgeList)
{
    const HeteroGraph g = toyCitationGraph();
    // cites: paper 5 has two edges, so pair (5, cites) lists two.
    auto corrupt = [&](auto &&edit) {
        CompactionMap cmap(g);
        cmap.validate(g);
        edit(const_cast<std::int64_t *>(cmap.uniquePtr().data()),
             const_cast<std::int64_t *>(cmap.uniqueEdgeIds().data()));
        EXPECT_THROW(cmap.validate(g), std::runtime_error);
    };
    std::int64_t two = -1; // first pair with two edges
    {
        const CompactionMap cmap(g);
        for (std::int64_t u = 0; u < cmap.numUnique() && two < 0; ++u)
            if (cmap.uniquePtr()[static_cast<std::size_t>(u) + 1] -
                    cmap.uniquePtr()[static_cast<std::size_t>(u)] ==
                2)
                two = u;
    }
    ASSERT_GE(two, 0);
    const auto at = static_cast<std::size_t>(two);
    // Two edges of one pair out of order.
    corrupt([&](std::int64_t *ptr, std::int64_t *eids) {
        std::swap(eids[ptr[at]], eids[ptr[at] + 1]);
    });
    // An edge listed under a pair it does not belong to.
    corrupt([&](std::int64_t *, std::int64_t *eids) {
        std::swap(eids[0], eids[g.numEdges() - 1]);
    });
    // A list boundary moved: one pair left without edges.
    corrupt([&](std::int64_t *ptr, std::int64_t *) {
        ptr[at + 1] = ptr[at];
    });
}

} // namespace
