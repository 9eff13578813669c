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
// first. bsuitor_match feeds it sorted edge lists in natural vertex order;
// the row matcher feeds it an implicit graph whose candidate order is the
// same, skips proposals that must fail and starts the strongest rows first.
// On its bipartite b = 1 graphs every start order ends in the same suitor
// sets (see bsuitor_match_from), so both give the same matching bit for bit.
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
/// edges keep only their heaviest entry. As a bsuitor_match_from source it
/// offers every candidate and skips nothing.
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

    /// True once v holds capacity[v] suitors: from then on it rejects every
    /// proposal that does not beat weakest(v).
    bool full(std::uint32_t v) const { return size_[v] == first_[v + 1] - first_[v]; }
    /// v's weakest suitor as {weight, proposer}.
    SuitorCandidate weakest(std::uint32_t v) const {
        const Proposal& top = slots_[first_[v]];
        return {top.w, top.from};
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

/// The b-Suitor proposal loop over a candidate source, then the
/// heaviest-first repair. `capacity[v]` bounds the edges matched at v.
/// `order` lists the vertices to start, each once; the loop takes them from
/// the back, and a displaced vertex resumes next.
///
/// The source has two members. `next(u, cand)` stores u's next candidate
/// and returns true, or returns false once u has none left; each vertex's
/// candidates come in proposes_before order, with positive weights, each
/// partner at most once and the same weight from both endpoints.
/// `accepted(v, weakest)` is called after every accepted proposal that
/// leaves v full, with v's weakest suitor. A suitor set only gets
/// stronger, so a proposal v rejects now it rejects at any later time: a
/// source may skip a candidate only when that proposal would be rejected at
/// that moment. The proposal sequence then loses only rejections, which
/// change no state, and every cursor ends where the unskipped loop's would.
///
/// On a bipartite graph with b = 1 the loop is two independent
/// deferred-acceptance runs (each side proposes only to the other, and a
/// vertex's suitor comes only from the other side), with strict preferences
/// on both sides: proposes_before for the proposer, heavier-then-higher-id
/// for the acceptor. Every start order then ends in the same suitor sets
/// and cursors (Gusfield & Irving 1989, Thm 1.2.2), and the repair reads
/// only the sets. On other graphs the order can matter.
template <class Source>
BMatching bsuitor_match_from(const std::vector<std::uint32_t>& capacity,
                             std::vector<std::uint32_t> order, Source& source) {
    for (const std::uint32_t u : order) FARE_CHECK(u < capacity.size(), "start vertex range");
    detail::SuitorSets suitors(capacity);
    std::vector<std::uint32_t> need(capacity);
    std::vector<std::uint32_t>& queue = order;
    SuitorCandidate cand;
    while (!queue.empty()) {
        const std::uint32_t u = queue.back();
        queue.pop_back();
        while (need[u] > 0 && source.next(u, cand)) {
            const std::uint32_t displaced = suitors.offer(cand.v, cand.w, u);
            if (displaced == detail::SuitorSets::kRejected) continue;
            --need[u];
            if (suitors.full(cand.v)) source.accepted(cand.v, suitors.weakest(cand.v));
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
