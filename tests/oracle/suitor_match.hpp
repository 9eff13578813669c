// Test oracle for the suitor loop (fare/bsuitor.hpp): suitor_match_from
// over explicit, sorted edge lists in natural vertex order, skipping
// nothing, on any graph. The row-matcher reference, bsuitor_test,
// row_matcher_test and bench_micro_matching run it; the row matcher lays
// out its own lists.
#pragma once

#include <cstdint>
#include <vector>

#include "fare/bsuitor.hpp"

namespace fare {

struct WeightedEdge {
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    double w = 0.0;
};

/// Every vertex's candidates from an edge list, in proposes_before order, in
/// one flat array. Non-positive weights and self-loops are dropped; parallel
/// edges keep only their heaviest entry. As a suitor_match_from source it
/// offers every candidate and skips nothing.
class CandidateLists {
public:
    CandidateLists(std::uint32_t num_vertices, const std::vector<WeightedEdge>& edges);

    /// Source interface: read u's next candidate into `out`, or return
    /// false once u has none left.
    bool next(std::uint32_t u, SuitorCandidate& out) {
        if (pos_[u] == end_[u]) return false;
        out = cands_[pos_[u]++];
        return true;
    }
    void accepted(std::uint32_t, const SuitorCandidate&) {}

private:
    std::vector<SuitorCandidate> cands_;
    std::vector<std::size_t> pos_;  // vertex u's unread candidates: [pos_[u], end_[u])
    std::vector<std::size_t> end_;
};

/// Maximum-weight matching on a general graph with `num_vertices` vertices.
/// Edges with non-positive weight are ignored. Guarantees >= 1/2 OPT.
Matching suitor_match(std::uint32_t num_vertices, const std::vector<WeightedEdge>& edges);

}  // namespace fare
