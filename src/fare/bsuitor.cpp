#include "fare/bsuitor.hpp"

#include <algorithm>

namespace fare {

namespace detail {

Matching repair(const std::vector<SuitorCandidate>& suitor) {
    // Under equal-weight ties the suitor relation can terminate
    // asymmetrically (u holds v but v does not hold u), so taking every
    // suitor pair could match a vertex twice. Repair greedily: accept
    // candidate pairs heaviest-first while both endpoints are free — this
    // keeps the half-approximation (the accepted set dominates the
    // mutual-suitor matching edge-for-edge; the property tests in
    // tests/bsuitor_test.cpp verify >= OPT/2 against brute force). A mutual
    // pair appears twice with the same weight, so it sorts adjacent to
    // itself and unique drops it.
    struct Pair {
        std::uint32_t a, b;
        double w;
    };
    const auto num_vertices = static_cast<std::uint32_t>(suitor.size());
    std::vector<Pair> pairs;
    for (std::uint32_t v = 0; v < num_vertices; ++v) {
        const SuitorCandidate& s = suitor[v];
        if (s.v != Matching::kUnmatched)
            pairs.push_back({std::min(v, s.v), std::max(v, s.v), s.w});
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

    Matching result;
    result.mate.assign(num_vertices, Matching::kUnmatched);
    for (const Pair& p : pairs) {
        if (result.mate[p.a] != Matching::kUnmatched ||
            result.mate[p.b] != Matching::kUnmatched)
            continue;
        result.mate[p.a] = p.b;
        result.mate[p.b] = p.a;
        result.total_weight += p.w;
    }
    return result;
}

}  // namespace detail

}  // namespace fare
