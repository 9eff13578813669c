#include "fare/bsuitor.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "common/rng.hpp"
#include "oracle/suitor_match.hpp"

namespace fare {
namespace {

constexpr std::uint32_t kUnmatched = Matching::kUnmatched;

/// Brute-force maximum-weight matching on tiny instances.
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

void check_validity(const Matching& m, std::uint32_t n) {
    ASSERT_EQ(m.mate.size(), n);
    for (std::uint32_t v = 0; v < n; ++v) {
        if (m.mate[v] == kUnmatched) continue;
        ASSERT_LT(m.mate[v], n) << "vertex " << v;
        EXPECT_NE(m.mate[v], v) << "vertex " << v;
        EXPECT_EQ(m.mate[m.mate[v]], v) << "vertex " << v;  // symmetric
    }
}

/// The b-matching loop that suitor_match_from replaced, run at b = 1: a
/// min-heap of suitors per vertex behind prefix-summed slot offsets, a
/// `need` counter per proposer, one partner list per vertex and the same
/// heaviest-first repair. Starts `order` from the back, like the loop.
struct HeapReference {
    std::vector<std::vector<std::uint32_t>> partners;
    double total_weight = 0.0;
};

HeapReference heap_reference_match(std::uint32_t n, const std::vector<WeightedEdge>& edges,
                                   std::vector<std::uint32_t> queue) {
    struct Proposal {
        double w = 0.0;
        std::uint32_t from = 0;
    };
    // Heavier, ties to the higher proposer id; as the heap's less-than it
    // keeps the weakest proposal on top.
    const auto stronger = [](const Proposal& a, const Proposal& b) {
        if (a.w != b.w) return a.w > b.w;
        return a.from > b.from;
    };
    const std::vector<std::uint32_t> capacity(n, 1);
    std::vector<std::size_t> first(n + 1, 0);
    std::partial_sum(capacity.begin(), capacity.end(), first.begin() + 1);
    std::vector<Proposal> slots(first.back());
    std::vector<std::uint32_t> size(n, 0);
    std::vector<std::uint32_t> need(capacity);
    CandidateLists lists(n, edges);
    SuitorCandidate cand;
    while (!queue.empty()) {
        const std::uint32_t u = queue.back();
        queue.pop_back();
        while (need[u] > 0 && lists.next(u, cand)) {
            Proposal* heap = slots.data() + first[cand.v];
            const std::size_t cap = first[cand.v + 1] - first[cand.v];
            std::uint32_t& held = size[cand.v];
            const Proposal mine{cand.w, u};
            if (held < cap) {
                heap[held++] = mine;
                std::push_heap(heap, heap + held, stronger);
                --need[u];
                continue;
            }
            if (held == 0 || !stronger(mine, heap[0])) continue;
            const std::uint32_t displaced = heap[0].from;
            std::pop_heap(heap, heap + held, stronger);
            heap[held - 1] = mine;
            std::push_heap(heap, heap + held, stronger);
            --need[u];
            ++need[displaced];
            queue.push_back(displaced);
        }
    }

    struct Pair {
        std::uint32_t a, b;
        double w;
    };
    std::vector<Pair> pairs;
    for (std::uint32_t v = 0; v < n; ++v)
        for (std::size_t k = 0; k < size[v]; ++k) {
            const Proposal& p = slots[first[v] + k];
            pairs.push_back({std::min(v, p.from), std::max(v, p.from), p.w});
        }
    std::sort(pairs.begin(), pairs.end(), [](const Pair& x, const Pair& y) {
        if (x.w != y.w) return x.w > y.w;
        return x.a != y.a ? x.a < y.a : x.b < y.b;
    });
    pairs.erase(std::unique(pairs.begin(), pairs.end(),
                            [](const Pair& x, const Pair& y) {
                                return x.a == y.a && x.b == y.b;
                            }),
                pairs.end());
    HeapReference result;
    result.partners.assign(n, {});
    std::vector<std::uint32_t> remaining(capacity);
    for (const Pair& p : pairs) {
        if (remaining[p.a] == 0 || remaining[p.b] == 0) continue;
        --remaining[p.a];
        --remaining[p.b];
        result.partners[p.a].push_back(p.b);
        result.partners[p.b].push_back(p.a);
        result.total_weight += p.w;
    }
    return result;
}

/// `m` equals the heap reference's result: the same partner per vertex and
/// the same total weight, bit for bit.
void expect_same_as_reference(const Matching& m, const HeapReference& ref,
                              const std::string& where) {
    ASSERT_EQ(m.mate.size(), ref.partners.size()) << where;
    for (std::size_t v = 0; v < m.mate.size(); ++v) {
        ASSERT_LE(ref.partners[v].size(), 1u) << where;
        const std::uint32_t want =
            ref.partners[v].empty() ? kUnmatched : ref.partners[v].front();
        ASSERT_EQ(m.mate[v], want) << where << ", vertex " << v;
    }
    ASSERT_EQ(m.total_weight, ref.total_weight) << where;
}

TEST(BSuitorTest, SimplePathPicksHeavyEdge) {
    // a-b (1), b-c (2): optimal matching = {bc}.
    const std::vector<WeightedEdge> edges{{0, 1, 1.0}, {1, 2, 2.0}};
    const Matching m = suitor_match(3, edges);
    EXPECT_EQ(m.mate[1], 2u);
    EXPECT_EQ(m.mate[0], kUnmatched);
    EXPECT_DOUBLE_EQ(m.total_weight, 2.0);
}

TEST(BSuitorTest, TrianglePicksHeaviest) {
    const std::vector<WeightedEdge> edges{{0, 1, 3.0}, {1, 2, 5.0}, {0, 2, 4.0}};
    const Matching m = suitor_match(3, edges);
    EXPECT_EQ(m.mate[1], 2u);
    EXPECT_DOUBLE_EQ(m.total_weight, 5.0);
}

TEST(BSuitorTest, HubKeepsHeavierLeaf) {
    const std::vector<WeightedEdge> edges{{0, 1, 5.0}, {0, 2, 3.0}};
    const Matching m = suitor_match(3, edges);
    EXPECT_EQ(m.mate[0], 1u);
    EXPECT_EQ(m.mate[2], kUnmatched);
    EXPECT_DOUBLE_EQ(m.total_weight, 5.0);
}

TEST(BSuitorTest, NonPositiveWeightsIgnored) {
    const std::vector<WeightedEdge> edges{{0, 1, -1.0}, {1, 2, 0.0}};
    const Matching m = suitor_match(3, edges);
    EXPECT_DOUBLE_EQ(m.total_weight, 0.0);
}

TEST(BSuitorTest, ParallelEdgesKeepHeaviest) {
    const std::vector<WeightedEdge> edges{{0, 1, 1.0}, {0, 1, 7.0}, {0, 1, 3.0}};
    const Matching m = suitor_match(2, edges);
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
        const Matching m = suitor_match(n, edges);
        check_validity(m, n);
        const double opt = brute_force_matching(n, edges);
        EXPECT_GE(m.total_weight, opt / 2.0 - 1e-9) << "trial " << trial;
        EXPECT_LE(m.total_weight, opt + 1e-9);
    }
}

/// The one-suitor loop equals the heap-based b-matching loop it replaced,
/// run at b = 1, on general and bipartite graphs, from the natural start
/// order and from a shuffled one (which matters on general graphs). Weights
/// from {1..4} make ties the rule.
TEST(BSuitorTest, MatchesHeapReference) {
    Rng rng(46);
    for (int trial = 0; trial < 3200; ++trial) {
        const bool bipartite = trial % 2 == 1;
        const auto n = static_cast<std::uint32_t>(2 + rng.next_below(59));
        const auto left = static_cast<std::uint32_t>(1 + rng.next_below(n - 1));
        const double density = 0.05 + 0.9 * rng.next_double();
        std::vector<WeightedEdge> edges;
        for (std::uint32_t u = 0; u < n; ++u)
            for (std::uint32_t v = u + 1; v < n; ++v)
                if ((!bipartite || (u < left && v >= left)) && rng.next_bool(density))
                    edges.push_back({u, v, static_cast<double>(1 + rng.next_below(4))});
        const std::string where = std::string(bipartite ? "bipartite" : "general") +
                                  " trial " + std::to_string(trial);
        std::vector<std::uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        const Matching natural = suitor_match(n, edges);
        check_validity(natural, n);
        expect_same_as_reference(natural, heap_reference_match(n, edges, order), where);
        rng.shuffle(order);
        CandidateLists lists(n, edges);
        expect_same_as_reference(suitor_match_from(n, order, lists),
                                 heap_reference_match(n, edges, order), where + " shuffled");
    }
}

/// On a bipartite graph the proposal loop is two deferred-acceptance runs
/// with strict preferences on both sides, so every start order ends in the
/// same suitors; the row matcher's strongest-first start rests on this.
/// Weights from {1..4} make ties the rule.
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
        const Matching natural = suitor_match(n, edges);
        std::vector<std::uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        for (int k = 0; k < 5; ++k) {
            rng.shuffle(order);
            CandidateLists lists(n, edges);
            const Matching shuffled = suitor_match_from(n, order, lists);
            ASSERT_EQ(shuffled.mate, natural.mate) << "trial " << trial;
            ASSERT_EQ(shuffled.total_weight, natural.total_weight) << "trial " << trial;
        }
    }
}

TEST(BSuitorTest, InvalidInputsRejected) {
    EXPECT_THROW(suitor_match(1, {{0, 5, 1.0}}), InvalidArgument);  // edge range
    CandidateLists lists(2, {{0, 1, 1.0}});
    EXPECT_THROW(suitor_match_from(2, {0, 2}, lists), InvalidArgument);  // start range
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
    const Matching m = suitor_match(2 * half, edges);
    check_validity(m, 2 * half);
    EXPECT_GT(m.total_weight, 0.0);
}

}  // namespace
}  // namespace fare
