#include "fare/bsuitor.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace fare {

bool BMatching::are_matched(std::uint32_t u, std::uint32_t v) const {
    const auto& p = partners[u];
    return std::find(p.begin(), p.end(), v) != p.end();
}

namespace detail {

SuitorSets::SuitorSets(const std::vector<std::uint32_t>& capacity)
    : first_(capacity.size() + 1, 0), size_(capacity.size(), 0) {
    std::partial_sum(capacity.begin(), capacity.end(), first_.begin() + 1);
    slots_.resize(first_.back());
}

BMatching SuitorSets::repair() const {
    // Under equal-weight ties the suitor relation can terminate
    // asymmetrically (u in S(v) but v not in S(u)), so taking the raw union
    // could overfill a vertex. Repair greedily: accept candidate pairs
    // heaviest-first while both endpoints have capacity left — this keeps the
    // half-approximation (the accepted set dominates the mutual-suitor
    // matching edge-for-edge; the property tests in tests/bsuitor_test.cpp
    // verify >= OPT/2 against brute force). A mutual pair appears twice with
    // the same weight, so it sorts adjacent to itself and unique drops it.
    struct Pair {
        std::uint32_t a, b;
        double w;
    };
    const auto num_vertices = static_cast<std::uint32_t>(size_.size());
    std::vector<Pair> pairs;
    for (std::uint32_t v = 0; v < num_vertices; ++v)
        for (std::size_t k = 0; k < size_[v]; ++k) {
            const Proposal& p = slots_[first_[v] + k];
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

    BMatching result;
    result.partners.assign(num_vertices, {});
    std::vector<std::uint32_t> remaining(num_vertices);
    for (std::uint32_t v = 0; v < num_vertices; ++v)
        remaining[v] = static_cast<std::uint32_t>(first_[v + 1] - first_[v]);
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

}  // namespace detail

CandidateLists::CandidateLists(std::uint32_t num_vertices,
                               const std::vector<WeightedEdge>& edges)
    : pos_(num_vertices + 1, 0) {
    for (const auto& e : edges) {
        FARE_CHECK(e.u < num_vertices && e.v < num_vertices, "edge endpoint range");
        if (e.w <= 0.0 || e.u == e.v) continue;
        ++pos_[e.u + 1];
        ++pos_[e.v + 1];
    }
    std::partial_sum(pos_.begin(), pos_.end(), pos_.begin());
    cands_.resize(pos_.back());
    pos_.pop_back();
    end_ = pos_;
    for (const auto& e : edges) {
        if (e.w <= 0.0 || e.u == e.v) continue;
        cands_[end_[e.u]++] = {e.w, e.v};
        cands_[end_[e.v]++] = {e.w, e.u};
    }
    constexpr auto kNobody = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> seen_by(num_vertices, kNobody);
    for (std::uint32_t u = 0; u < num_vertices; ++u) {
        // Insertion sort: the row matcher's lists are short and arrive in
        // partner order, so mostly sorted already.
        for (std::size_t i = pos_[u] + 1; i < end_[u]; ++i) {
            const SuitorCandidate entry = cands_[i];
            std::size_t j = i;
            for (; j > pos_[u] && proposes_before(entry, cands_[j - 1]); --j)
                cands_[j] = cands_[j - 1];
            cands_[j] = entry;
        }
        std::size_t kept = pos_[u];
        for (std::size_t k = pos_[u]; k < end_[u]; ++k) {
            if (seen_by[cands_[k].v] == u) continue;
            seen_by[cands_[k].v] = u;
            cands_[kept++] = cands_[k];
        }
        end_[u] = kept;
    }
}

BMatching bsuitor_match(std::uint32_t num_vertices,
                        const std::vector<WeightedEdge>& edges,
                        const std::vector<std::uint32_t>& capacity) {
    FARE_CHECK(capacity.size() == num_vertices, "capacity size mismatch");
    CandidateLists lists(num_vertices, edges);
    std::vector<std::uint32_t> order(num_vertices);
    std::iota(order.begin(), order.end(), 0u);
    return bsuitor_match_from(capacity, std::move(order), lists);
}

BMatching suitor_match(std::uint32_t num_vertices,
                       const std::vector<WeightedEdge>& edges) {
    return bsuitor_match(num_vertices, edges,
                         std::vector<std::uint32_t>(num_vertices, 1));
}

}  // namespace fare
