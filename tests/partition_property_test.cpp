// Property tests over EVERY registered partitioner: whatever algorithm is
// added to the registry must satisfy the shared contract on randomized graph
// shapes — complete assignment, exact edge-cut accounting, determinism under
// a fixed seed, the hard streaming capacity where the algorithm contracts it
// (bounded_balance), and ReFennel's never-worse-than-Fennel guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "graph/generators.hpp"
#include "graph/partitioner.hpp"

namespace fare {
namespace {

// ---- Graph shapes ----------------------------------------------------------

/// Heavy-tailed community graph (the streaming generator at test scale).
CSRGraph power_law_graph(std::uint64_t seed) {
    SyntheticGraphSpec spec;
    spec.num_nodes = 1200;
    spec.avg_degree = 10.0;
    spec.num_communities = 10;
    spec.homophily = 0.85;
    spec.power_law_alpha = 2.0;
    spec.seed = seed;
    return make_synthetic_graph(spec);
}

/// 2-D grid: bounded degree, long diameter — the opposite regime of the
/// community graphs the partitioners are tuned for.
CSRGraph grid_graph(NodeId width, NodeId height) {
    GraphBuilder builder(width * height);
    for (NodeId r = 0; r < height; ++r)
        for (NodeId c = 0; c < width; ++c) {
            const NodeId v = r * width + c;
            if (c + 1 < width) builder.add_edge(v, v + 1);
            if (r + 1 < height) builder.add_edge(v, v + width);
        }
    return builder.finalize();
}

/// Two components with no edges between them, plus trailing isolated nodes:
/// exercises the empty-neighbourhood path of every streaming scorer.
CSRGraph disconnected_graph() {
    const NodeId ring = 240, isolated = 40;
    GraphBuilder builder(2 * ring + isolated);
    for (NodeId v = 0; v < ring; ++v) {
        builder.add_edge(v, (v + 1) % ring);
        builder.add_edge(ring + v, ring + (v + 1) % ring);
    }
    return builder.finalize();
}

struct Shape {
    const char* name;
    CSRGraph graph;
};

const std::vector<Shape>& shapes() {
    static const std::vector<Shape> kShapes = [] {
        std::vector<Shape> s;
        s.push_back({"power_law", power_law_graph(7)});
        s.push_back({"grid", grid_graph(24, 25)});
        s.push_back({"disconnected", disconnected_graph()});
        return s;
    }();
    return kShapes;
}

// ---- Shared contract -------------------------------------------------------

/// Brute-force edge-cut recount straight off the edge list.
std::size_t brute_force_cut(const CSRGraph& g, const Partitioning& p) {
    std::size_t cut = 0;
    for (const auto& [u, v] : g.edge_list())
        if (p.assignment[u] != p.assignment[v]) ++cut;
    return cut;
}

std::vector<std::size_t> part_sizes(const Partitioning& p) {
    std::vector<std::size_t> sizes(static_cast<std::size_t>(p.k), 0);
    for (const int a : p.assignment) ++sizes[static_cast<std::size_t>(a)];
    return sizes;
}

TEST(PartitionPropertyTest, RegistryHasTheFiveAlgorithms) {
    std::vector<std::string> names;
    for (const Partitioner& algo : registered_partitioners())
        names.emplace_back(algo.name);
    const std::vector<std::string> expected = {"multilevel", "ldg",
                                               "weighted-ldg", "fennel",
                                               "refennel"};
    EXPECT_EQ(names, expected);
    for (const std::string& name : expected)
        EXPECT_STREQ(find_partitioner(name).name, name.c_str());
    EXPECT_FALSE(try_find_partitioner("metis").ok());
    EXPECT_THROW(find_partitioner("metis"), InvalidArgument);
}

TEST(PartitionPropertyTest, CompleteAssignmentOnEveryShape) {
    for (const Shape& shape : shapes())
        for (const Partitioner& algo : registered_partitioners())
            for (const int k : {1, 2, 5, 8}) {
                const Partitioning p = algo.partition(shape.graph, k, 1);
                SCOPED_TRACE(std::string(algo.name) + " on " + shape.name +
                             " k=" + std::to_string(k));
                ASSERT_EQ(p.k, k);
                ASSERT_EQ(p.assignment.size(), shape.graph.num_nodes());
                for (const int a : p.assignment) {
                    ASSERT_GE(a, 0);
                    ASSERT_LT(a, k);
                }
            }
}

TEST(PartitionPropertyTest, EdgeCutMatchesBruteForceRecount) {
    for (const Shape& shape : shapes())
        for (const Partitioner& algo : registered_partitioners())
            for (const int k : {2, 5}) {
                const Partitioning p = algo.partition(shape.graph, k, 3);
                SCOPED_TRACE(std::string(algo.name) + " on " + shape.name);
                const std::size_t brute = brute_force_cut(shape.graph, p);
                EXPECT_EQ(p.edge_cut(shape.graph), brute);
                const PartitionQuality q =
                    compute_quality(shape.graph, p, algo.name);
                EXPECT_EQ(q.edge_cut, brute);
                EXPECT_EQ(q.parts, k);
                EXPECT_EQ(q.algo, algo.name);
                if (shape.graph.num_edges() > 0) {
                    EXPECT_DOUBLE_EQ(
                        q.edge_cut_rate,
                        static_cast<double>(brute) /
                            static_cast<double>(shape.graph.num_edges()));
                }
                EXPECT_GE(q.replication_factor, 1.0);
                EXPECT_LE(q.replication_factor, static_cast<double>(k));
                EXPECT_GE(q.beta, 1.0);
            }
}

TEST(PartitionPropertyTest, DeterministicUnderFixedSeed) {
    for (const Shape& shape : shapes())
        for (const Partitioner& algo : registered_partitioners()) {
            const Partitioning a = algo.partition(shape.graph, 5, 42);
            const Partitioning b = algo.partition(shape.graph, 5, 42);
            SCOPED_TRACE(std::string(algo.name) + " on " + shape.name);
            EXPECT_EQ(a.assignment, b.assignment);
        }
}

TEST(PartitionPropertyTest, BoundedPartitionersHonourStreamingCapacity) {
    for (const Shape& shape : shapes())
        for (const Partitioner& algo : registered_partitioners()) {
            if (!algo.bounded_balance) continue;
            for (const int k : {2, 5, 8}) {
                const Partitioning p = algo.partition(shape.graph, k, 9);
                const std::size_t cap =
                    streaming_capacity(shape.graph.num_nodes(), k);
                SCOPED_TRACE(std::string(algo.name) + " on " + shape.name +
                             " k=" + std::to_string(k));
                for (const std::size_t size : part_sizes(p))
                    EXPECT_LE(size, cap);
            }
        }
}

TEST(PartitionPropertyTest, CapacityTimesPartsAlwaysCoversTheGraph) {
    for (const std::size_t n : {1u, 7u, 40u, 999u, 1000u, 1001u})
        for (const int k : {1, 2, 3, 7, 40})
            if (n >= static_cast<std::size_t>(k)) {
                EXPECT_GE(streaming_capacity(n, k) * static_cast<std::size_t>(k),
                          n)
                    << "n=" << n << " k=" << k;
            }
}

TEST(PartitionPropertyTest, MorePartsThanNodesThrows) {
    const CSRGraph tiny = grid_graph(2, 2);  // 4 nodes
    for (const Partitioner& algo : registered_partitioners()) {
        SCOPED_TRACE(algo.name);
        EXPECT_THROW(algo.partition(tiny, 10, 1), InvalidArgument);
        EXPECT_THROW(algo.partition(tiny, 0, 1), InvalidArgument);
    }
}

TEST(PartitionPropertyTest, SinglePartIsTrivialEverywhere) {
    for (const Shape& shape : shapes())
        for (const Partitioner& algo : registered_partitioners()) {
            const Partitioning p = algo.partition(shape.graph, 1, 1);
            SCOPED_TRACE(std::string(algo.name) + " on " + shape.name);
            EXPECT_EQ(p.edge_cut(shape.graph), 0u);
            const PartitionQuality q = compute_quality(shape.graph, p);
            EXPECT_DOUBLE_EQ(q.edge_cut_rate, 0.0);
            EXPECT_DOUBLE_EQ(q.replication_factor, 1.0);
        }
}

TEST(PartitionPropertyTest, ReFennelNeverWorseThanFirstFennelPass) {
    for (const Shape& shape : shapes())
        for (const std::uint64_t seed : {1ull, 7ull, 23ull})
            for (const int k : {2, 5, 8}) {
                const Partitioning first =
                    partition_fennel(shape.graph, k, seed);
                const Partitioning re =
                    partition_refennel(shape.graph, k, seed, 3);
                SCOPED_TRACE(std::string(shape.name) + " seed=" +
                             std::to_string(seed) + " k=" + std::to_string(k));
                EXPECT_LE(re.edge_cut(shape.graph),
                          first.edge_cut(shape.graph));
            }
}

TEST(PartitionPropertyTest, WeightedLdgBoundsAdjacencyLoad) {
    // Contract from the header: part weight (sum of degree+1) stays under
    // ceil(1.1 * W / k) + max node weight even on the heavy-tailed shape.
    const CSRGraph g = power_law_graph(11);
    const int k = 8;
    const Partitioning p = partition_ldg_weighted(g, k, 5);
    const std::size_t total_weight = g.num_arcs() + g.num_nodes();
    const std::size_t capacity = static_cast<std::size_t>(
        (1.1 * static_cast<double>(total_weight)) / k + 1.0);
    std::size_t max_node_weight = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v)
        max_node_weight = std::max(max_node_weight, g.degree(v) + 1);
    std::vector<std::size_t> load(static_cast<std::size_t>(k), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v)
        load[static_cast<std::size_t>(p.assignment[v])] += g.degree(v) + 1;
    for (const std::size_t l : load)
        EXPECT_LE(l, capacity + max_node_weight);
}

TEST(PartitionPropertyTest, QualityDegenerateGraphs) {
    // Edgeless graph: rate 0, alpha pinned to 1, replication exactly 1.
    const CSRGraph edgeless =
        CSRGraph::from_edges(16, std::vector<std::pair<NodeId, NodeId>>{});
    Partitioning p;
    p.k = 4;
    p.assignment.resize(16);
    for (NodeId v = 0; v < 16; ++v) p.assignment[v] = static_cast<int>(v % 4);
    const PartitionQuality q = compute_quality(edgeless, p, "manual");
    EXPECT_DOUBLE_EQ(q.edge_cut_rate, 0.0);
    EXPECT_DOUBLE_EQ(q.alpha, 1.0);
    EXPECT_DOUBLE_EQ(q.beta, 1.0);
    EXPECT_DOUBLE_EQ(q.replication_factor, 1.0);
}

}  // namespace
}  // namespace fare
