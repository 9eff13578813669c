// b-Suitor: half-approximation algorithm for maximum-weight b-matching
// (Khan et al., "Efficient Approximation Algorithms for Weighted b-Matching",
// SIAM SISC 2016 — reference [15] of the paper).
//
// FARe uses it with b = 1 to solve the row-to-row assignment inside cost(i,j)
// (Algorithm 1 line 5): exact Hungarian matching would cost O(n^3) per
// (block, crossbar) pair, while b-Suitor is near-linear in the number of
// candidate edges and guarantees at least half the optimal weight.
//
// The algorithm is one proposal loop plus a heaviest-first repair
// (bsuitor_match_from) over a source of each vertex's candidates, heaviest
// first. bsuitor_match feeds it sorted edge lists; the row matcher feeds it
// an implicit graph whose candidate order is the same, so both give the same
// matching bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace fare {

struct WeightedEdge {
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    double w = 0.0;
};

/// Result of a b-matching: for each vertex, the list of matched partners.
struct BMatching {
    std::vector<std::vector<std::uint32_t>> partners;
    double total_weight = 0.0;

    bool are_matched(std::uint32_t u, std::uint32_t v) const;
};

/// One entry of a vertex's candidate list: partner `v` at edge weight `w`.
struct SuitorCandidate {
    double w = 0.0;
    std::uint32_t v = 0;
};

/// The order in which a vertex proposes: heavier first, ties to the lower
/// partner id.
inline bool proposes_before(const SuitorCandidate& a, const SuitorCandidate& b) {
    if (a.w != b.w) return a.w > b.w;
    return a.v < b.v;
}

/// Every vertex's candidates from an edge list, in proposes_before order, in
/// one flat array. Non-positive weights and self-loops are dropped; parallel
/// edges keep only their heaviest entry.
class CandidateLists {
public:
    CandidateLists() = default;
    CandidateLists(std::uint32_t num_vertices, const std::vector<WeightedEdge>& edges);

    /// u's next unread candidate, or nullptr once u has none left.
    const SuitorCandidate* head(std::uint32_t u) const {
        return pos_[u] == end_[u] ? nullptr : &cands_[pos_[u]];
    }
    /// Mark u's head read.
    void pop(std::uint32_t u) { ++pos_[u]; }

private:
    std::vector<SuitorCandidate> cands_;
    std::vector<std::size_t> pos_;  // vertex u's unread candidates: [pos_[u], end_[u])
    std::vector<std::size_t> end_;
};

namespace detail {

/// Every vertex's suitors: vertex v keeps at most capacity[v] proposals in a
/// min-heap (weakest on top), all in one flat slot array.
class SuitorSets {
public:
    static constexpr std::uint32_t kRejected = 0xFFFFFFFFu;
    static constexpr std::uint32_t kAccepted = 0xFFFFFFFEu;

    explicit SuitorSets(const std::vector<std::uint32_t>& capacity);

    /// u proposes to v at weight w. Returns kRejected, kAccepted (a free
    /// slot), or the proposer u displaced. Ties in weight go to the higher
    /// proposer id.
    std::uint32_t offer(std::uint32_t v, double w, std::uint32_t u) {
        Proposal* heap = slots_.data() + first_[v];
        const std::size_t cap = first_[v + 1] - first_[v];
        std::uint32_t& size = size_[v];
        const Proposal mine{w, u};
        if (size < cap) {
            heap[size++] = mine;
            std::push_heap(heap, heap + size, stronger);
            return kAccepted;
        }
        if (size == 0 || !stronger(mine, heap[0])) return kRejected;
        const std::uint32_t displaced = heap[0].from;
        std::pop_heap(heap, heap + size, stronger);
        heap[size - 1] = mine;
        std::push_heap(heap, heap + size, stronger);
        return displaced;
    }

    /// Heaviest-first repair of the final suitor relation into a valid
    /// b-matching (see bsuitor.cpp).
    BMatching repair() const;

private:
    struct Proposal {
        double w = 0.0;
        std::uint32_t from = 0;
    };
    /// a outranks b: heavier, ties to the higher proposer id. As the heap's
    /// less-than it keeps the weakest proposal on top.
    static bool stronger(const Proposal& a, const Proposal& b) {
        if (a.w != b.w) return a.w > b.w;
        return a.from > b.from;
    }

    std::vector<std::size_t> first_;  // vertex v owns slots [first_[v], first_[v+1])
    std::vector<std::uint32_t> size_;
    std::vector<Proposal> slots_;
};

}  // namespace detail

/// The b-Suitor proposal loop over an arbitrary candidate source, then the
/// heaviest-first repair. `next(u, cand)` stores u's next candidate and
/// returns true, or returns false once u has none left; each vertex's
/// candidates must come in proposes_before order, with positive weights,
/// each partner at most once, and the same weight from both endpoints.
/// `capacity[v]` bounds the edges matched at v.
template <class NextCandidate>
BMatching bsuitor_match_from(std::uint32_t num_vertices,
                             const std::vector<std::uint32_t>& capacity,
                             NextCandidate&& next) {
    FARE_CHECK(capacity.size() == num_vertices, "capacity size mismatch");
    detail::SuitorSets suitors(capacity);
    std::vector<std::uint32_t> need(capacity);
    std::vector<std::uint32_t> queue;
    for (std::uint32_t u = 0; u < num_vertices; ++u)
        if (need[u] > 0) queue.push_back(u);

    SuitorCandidate cand;
    while (!queue.empty()) {
        const std::uint32_t u = queue.back();
        queue.pop_back();
        while (need[u] > 0 && next(u, cand)) {
            const std::uint32_t displaced = suitors.offer(cand.v, cand.w, u);
            if (displaced == detail::SuitorSets::kRejected) continue;
            --need[u];
            if (displaced == detail::SuitorSets::kAccepted) continue;
            ++need[displaced];
            queue.push_back(displaced);
        }
    }
    return suitors.repair();
}

/// Maximum-weight b-matching on a general graph with `num_vertices` vertices.
/// `capacity[v]` bounds the number of edges matched at v. Edges with
/// non-positive weight are ignored. Guarantees >= 1/2 OPT.
BMatching bsuitor_match(std::uint32_t num_vertices,
                        const std::vector<WeightedEdge>& edges,
                        const std::vector<std::uint32_t>& capacity);

/// Convenience: b = 1 everywhere (classic suitor matching).
BMatching suitor_match(std::uint32_t num_vertices,
                       const std::vector<WeightedEdge>& edges);

}  // namespace fare
