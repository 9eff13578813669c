#include "oracle/suitor_match.hpp"

#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace fare {

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
        // Insertion sort: the row-matcher reference's lists arrive in
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

Matching suitor_match(std::uint32_t num_vertices, const std::vector<WeightedEdge>& edges) {
    CandidateLists lists(num_vertices, edges);
    std::vector<std::uint32_t> order(num_vertices);
    std::iota(order.begin(), order.end(), 0u);
    return suitor_match_from(num_vertices, std::move(order), lists);
}

}  // namespace fare
