// Million-node streaming smoke (ctest -L large, Release builds only): the
// streaming partitioners exist so partitioning stops being the bottleneck at
// production graph sizes, so this suite pins that contract with real
// resource bounds — a million-node power-law graph must generate and
// partition within a hard wall-clock budget and a peak-RSS ceiling, while
// still honouring the streaming capacity bound. Measured on the dev box:
// generation ~5 s, Fennel and weighted LDG ~0.6 s each, ~70 MB peak RSS;
// the budgets below leave an order of magnitude of headroom for slow CI.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <string>

#include "graph/generators.hpp"
#include "graph/partitioner.hpp"

namespace fare {
namespace {

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
}

constexpr std::size_t kNodes = 1'000'000;
constexpr int kParts = 64;
constexpr double kGenerateBudgetSeconds = 120.0;
constexpr double kPartitionBudgetSeconds = 60.0;
constexpr double kPeakRssBudgetMb = 2048.0;

const CSRGraph& million_node_graph() {
    static const CSRGraph g = [] {
        SyntheticGraphSpec spec;
        spec.num_nodes = kNodes;
        spec.avg_degree = 8.0;
        spec.num_communities = 64;
        spec.homophily = 0.9;
        spec.power_law_alpha = 2.2;
        spec.seed = 3;
        return make_synthetic_graph(spec);
    }();
    return g;
}

TEST(PartitionLargeTest, MillionNodeGraphGeneratesWithinBudget) {
    const auto start = std::chrono::steady_clock::now();
    const CSRGraph& g = million_node_graph();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(g.num_nodes(), kNodes);
    EXPECT_GT(g.num_edges(), kNodes);  // avg degree 8 => ~4M edges
    EXPECT_LT(seconds, kGenerateBudgetSeconds);
    EXPECT_LT(peak_rss_mb(), kPeakRssBudgetMb);
}

void run_streaming_smoke(const std::string& algo_name) {
    const CSRGraph& g = million_node_graph();
    const Partitioner& algo = find_partitioner(algo_name);
    const auto start = std::chrono::steady_clock::now();
    const Partitioning p = algo.partition(g, kParts, 1);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(seconds, kPartitionBudgetSeconds);
    EXPECT_LT(peak_rss_mb(), kPeakRssBudgetMb);

    ASSERT_EQ(p.assignment.size(), g.num_nodes());
    std::vector<std::size_t> sizes(kParts, 0);
    for (const int a : p.assignment) {
        ASSERT_GE(a, 0);
        ASSERT_LT(a, kParts);
        ++sizes[static_cast<std::size_t>(a)];
    }
    if (algo.bounded_balance) {
        const std::size_t cap = streaming_capacity(g.num_nodes(), kParts);
        for (const std::size_t size : sizes) EXPECT_LE(size, cap);
    }
    // A streaming pass must still beat a random assignment's expected cut
    // rate of (k-1)/k by a visible margin.
    const PartitionQuality q = compute_quality(g, p, algo_name);
    EXPECT_LT(q.edge_cut_rate, 0.9);
}

TEST(PartitionLargeTest, FennelStreamsMillionNodes) {
    run_streaming_smoke("fennel");
}

TEST(PartitionLargeTest, WeightedLdgStreamsMillionNodes) {
    run_streaming_smoke("weighted-ldg");
}

}  // namespace
}  // namespace fare
