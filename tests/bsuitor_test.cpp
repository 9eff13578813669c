#include "fare/bsuitor.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"

namespace fare {
namespace {

/// Brute-force maximum-weight matching (b = 1) on tiny instances.
double brute_force_matching(std::uint32_t n, const std::vector<WeightedEdge>& edges) {
    double best = 0.0;
    const std::size_t m = edges.size();
    for (std::size_t mask = 0; mask < (1u << m); ++mask) {
        std::vector<int> used(n, 0);
        double w = 0.0;
        bool valid = true;
        for (std::size_t e = 0; e < m && valid; ++e) {
            if (!(mask & (1u << e))) continue;
            if (used[edges[e].u]++ || used[edges[e].v]++) valid = false;
            w += edges[e].w;
        }
        if (valid) best = std::max(best, w);
    }
    return best;
}

void check_validity(const BMatching& m, std::uint32_t n,
                    const std::vector<std::uint32_t>& cap) {
    ASSERT_EQ(m.partners.size(), n);
    for (std::uint32_t v = 0; v < n; ++v) {
        EXPECT_LE(m.partners[v].size(), cap[v]) << "vertex " << v;
        for (std::uint32_t p : m.partners[v]) {
            // Matching is symmetric.
            EXPECT_TRUE(m.are_matched(p, v));
        }
    }
}

TEST(BSuitorTest, SimplePathPicksHeavyEdge) {
    // a-b (1), b-c (2): optimal matching = {bc}.
    const std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 2.0}};
    const BMatching m = suitor_match(3, edges);
    EXPECT_TRUE(m.are_matched(1, 2));
    EXPECT_FALSE(m.are_matched(0, 1));
    EXPECT_DOUBLE_EQ(m.total_weight, 2.0);
}

TEST(BSuitorTest, TrianglePicksHeaviest) {
    const std::vector<WeightedEdge> edges{{0, 1, 3.0}, {1, 2, 5.0}, {0, 2, 4.0}};
    const BMatching m = suitor_match(3, edges);
    EXPECT_TRUE(m.are_matched(1, 2));
    EXPECT_DOUBLE_EQ(m.total_weight, 5.0);
}

TEST(BSuitorTest, CapacityTwoHub) {
    // Hub 0 with b=2 can take both leaves.
    const std::vector<WeightedEdge> edges{{0, 1, 5.0}, {0, 2, 3.0}};
    const BMatching m = bsuitor_match(3, edges, {2, 1, 1});
    EXPECT_TRUE(m.are_matched(0, 1));
    EXPECT_TRUE(m.are_matched(0, 2));
    EXPECT_DOUBLE_EQ(m.total_weight, 8.0);
}

TEST(BSuitorTest, CapacityOneHubDropsLighter) {
    const std::vector<WeightedEdge> edges{{0, 1, 5.0}, {0, 2, 3.0}};
    const BMatching m = bsuitor_match(3, edges, {1, 1, 1});
    EXPECT_TRUE(m.are_matched(0, 1));
    EXPECT_FALSE(m.are_matched(0, 2));
}

TEST(BSuitorTest, ZeroCapacityVertexExcluded) {
    const std::vector<WeightedEdge> edges{{0, 1, 5.0}};
    const BMatching m = bsuitor_match(2, edges, {0, 1});
    EXPECT_FALSE(m.are_matched(0, 1));
    EXPECT_DOUBLE_EQ(m.total_weight, 0.0);
}

TEST(BSuitorTest, NonPositiveWeightsIgnored) {
    const std::vector<WeightedEdge> edges{{0, 1, -1.0}, {1, 2, 0.0}};
    const BMatching m = suitor_match(3, edges);
    EXPECT_DOUBLE_EQ(m.total_weight, 0.0);
}

TEST(BSuitorTest, ParallelEdgesKeepHeaviest) {
    const std::vector<WeightedEdge> edges{{0, 1, 1.0}, {0, 1, 7.0}, {0, 1, 3.0}};
    const BMatching m = suitor_match(2, edges);
    EXPECT_DOUBLE_EQ(m.total_weight, 7.0);
}

TEST(BSuitorTest, HalfApproximationOnRandomGraphs) {
    // Property (Khan et al.): total weight >= OPT / 2; also validity.
    Rng rng(42);
    for (int trial = 0; trial < 40; ++trial) {
        const std::uint32_t n = 6;
        std::vector<WeightedEdge> edges;
        for (std::uint32_t u = 0; u < n; ++u)
            for (std::uint32_t v = u + 1; v < n; ++v)
                if (rng.next_bool(0.5))
                    edges.push_back({u, v, rng.uniform(0.1f, 10.0f)});
        if (edges.size() > 14) edges.resize(14);  // keep brute force cheap
        const BMatching m = suitor_match(n, edges);
        check_validity(m, n, std::vector<std::uint32_t>(n, 1));
        const double opt = brute_force_matching(n, edges);
        EXPECT_GE(m.total_weight, opt / 2.0 - 1e-9) << "trial " << trial;
        EXPECT_LE(m.total_weight, opt + 1e-9);
    }
}

TEST(BSuitorTest, BMatchingValidityOnRandomGraphs) {
    Rng rng(43);
    for (int trial = 0; trial < 20; ++trial) {
        const std::uint32_t n = 12;
        std::vector<WeightedEdge> edges;
        std::vector<std::uint32_t> cap(n);
        for (auto& c : cap) c = static_cast<std::uint32_t>(rng.next_below(4));
        for (std::uint32_t u = 0; u < n; ++u)
            for (std::uint32_t v = u + 1; v < n; ++v)
                if (rng.next_bool(0.4))
                    edges.push_back({u, v, rng.uniform(0.1f, 10.0f)});
        const BMatching m = bsuitor_match(n, edges, cap);
        check_validity(m, n, cap);
    }
}

/// On a bipartite graph with b = 1 the proposal loop is two deferred-
/// acceptance runs with strict preferences on both sides, so every start
/// order ends in the same suitor sets; the row matcher's strongest-first
/// start rests on this. Weights from {1..4} make ties the rule.
TEST(BSuitorTest, BipartiteResultIndependentOfOrder) {
    Rng rng(45);
    for (int trial = 0; trial < 3000; ++trial) {
        const auto left = static_cast<std::uint32_t>(1 + rng.next_below(40));
        const auto right = static_cast<std::uint32_t>(1 + rng.next_below(40));
        const std::uint32_t n = left + right;
        const double density = 0.05 + 0.9 * rng.next_double();
        std::vector<WeightedEdge> edges;
        for (std::uint32_t u = 0; u < left; ++u)
            for (std::uint32_t v = left; v < n; ++v)
                if (rng.next_bool(density))
                    edges.push_back({u, v, static_cast<double>(1 + rng.next_below(4))});
        const std::vector<std::uint32_t> cap(n, 1);
        const BMatching natural = bsuitor_match(n, edges, cap);
        std::vector<std::uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        for (int k = 0; k < 5; ++k) {
            rng.shuffle(order);
            CandidateLists lists(n, edges);
            const BMatching shuffled = bsuitor_match_from(cap, order, lists);
            ASSERT_EQ(shuffled.partners, natural.partners) << "trial " << trial;
            ASSERT_EQ(shuffled.total_weight, natural.total_weight) << "trial " << trial;
        }
    }
}

TEST(BSuitorTest, InvalidInputsRejected) {
    EXPECT_THROW(bsuitor_match(2, {}, {1}), InvalidArgument);  // capacity size
    EXPECT_THROW(suitor_match(1, {{0, 5, 1.0}}), InvalidArgument);  // range
}

TEST(BSuitorTest, LargeBipartiteRunsFast) {
    // Smoke: 256 + 256 vertices, dense-ish benefit graph.
    Rng rng(44);
    const std::uint32_t half = 256;
    std::vector<WeightedEdge> edges;
    for (std::uint32_t u = 0; u < half; ++u)
        for (int k = 0; k < 16; ++k)
            edges.push_back({u, static_cast<std::uint32_t>(
                                    half + rng.next_below(half)),
                             rng.uniform(0.1f, 5.0f)});
    const BMatching m =
        bsuitor_match(2 * half, edges, std::vector<std::uint32_t>(2 * half, 1));
    check_validity(m, 2 * half, std::vector<std::uint32_t>(2 * half, 1));
    EXPECT_GT(m.total_weight, 0.0);
}

}  // namespace
}  // namespace fare
