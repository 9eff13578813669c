// Suitor matching: the b = 1 case of b-Suitor, a half-approximation
// algorithm for maximum-weight b-matching (Khan et al., "Efficient
// Approximation Algorithms for Weighted b-Matching", SIAM SISC 2016 —
// reference [15] of the paper).
//
// FARe uses it with b = 1 to solve the row-to-row assignment inside cost(i,j)
// (Algorithm 1 line 5): exact Hungarian matching would cost O(n^3) per
// (block, crossbar) pair, while the suitor loop is near-linear in the number
// of candidate edges and guarantees at least half the optimal weight. Every
// caller matches each vertex at most once, so each vertex holds one suitor.
//
// The algorithm is one proposal loop plus a heaviest-first repair
// (suitor_match_from) over a source of each vertex's candidates, heaviest
// first. The row matcher (row_matcher.cpp) feeds it an implicit graph that
// lays out its own lists, skips proposals that must fail and starts the
// strongest rows first. The general-graph suitor_match over sorted edge
// lists, in natural vertex order, is a test oracle (tests/oracle/
// suitor_match.hpp). On the row matcher's bipartite graphs every start
// order ends in the same suitors (see suitor_match_from), so both give the
// same matching bit for bit.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace fare {

/// Result of a matching: each vertex's partner, or kUnmatched.
struct Matching {
    static constexpr std::uint32_t kUnmatched = 0xFFFFFFFFu;

    std::vector<std::uint32_t> mate;
    double total_weight = 0.0;
};

/// One entry of a vertex's candidate list: partner `v` at edge weight `w`.
/// As the suitor a vertex holds, `v` is the proposer.
struct SuitorCandidate {
    double w = 0.0;
    std::uint32_t v = 0;
};

/// The suitor a vertex holds before its first accept: every proposal
/// outranks it.
inline constexpr SuitorCandidate kNoSuitor{-std::numeric_limits<double>::infinity(),
                                           Matching::kUnmatched};

/// The order in which a vertex proposes: heavier first, ties to the lower
/// partner id.
inline bool proposes_before(const SuitorCandidate& a, const SuitorCandidate& b) {
    if (a.w != b.w) return a.w > b.w;
    return a.v < b.v;
}

/// The order in which a vertex accepts: suitor a outranks suitor b when it
/// is heavier, ties to the higher proposer id.
inline bool outranks(const SuitorCandidate& a, const SuitorCandidate& b) {
    if (a.w != b.w) return a.w > b.w;
    return a.v > b.v;
}

namespace detail {

/// Heaviest-first repair of the final suitors into a valid matching (see
/// bsuitor.cpp).
Matching repair(const std::vector<SuitorCandidate>& suitor);

}  // namespace detail

/// The suitor proposal loop over a candidate source, then the
/// heaviest-first repair. Each vertex holds at most one suitor and is
/// matched at most once. `order` lists the vertices to start, each once;
/// the loop takes them from the back, and a displaced vertex resumes next.
/// A proposer stops at its first accept.
///
/// The source has two members. `next(u, cand)` stores u's next candidate
/// and returns true, or returns false once u has none left; each vertex's
/// candidates come in proposes_before order, with positive weights, each
/// partner at most once and the same weight from both endpoints.
/// `accepted(v, suitor)` is called after every accepted proposal, with v's
/// new suitor. A suitor only gets stronger, so a proposal v rejects now it
/// rejects at any later time: a source may skip a candidate only when that
/// proposal would be rejected at that moment. The proposal sequence then
/// loses only rejections, which change no state, and every cursor ends
/// where the unskipped loop's would.
///
/// On a bipartite graph the loop is two independent deferred-acceptance
/// runs (each side proposes only to the other, and a vertex's suitor comes
/// only from the other side), with strict preferences on both sides:
/// proposes_before for the proposer, outranks for the acceptor. Every start
/// order then ends in the same suitors and cursors (Gusfield & Irving 1989,
/// Thm 1.2.2), and the repair reads only the suitors. On other graphs the
/// order can matter.
template <class Source>
Matching suitor_match_from(std::uint32_t num_vertices, std::vector<std::uint32_t> order,
                           Source& source) {
    for (const std::uint32_t u : order) FARE_CHECK(u < num_vertices, "start vertex range");
    std::vector<SuitorCandidate> suitor(num_vertices, kNoSuitor);
    std::vector<std::uint32_t>& queue = order;
    SuitorCandidate cand;
    while (!queue.empty()) {
        const std::uint32_t u = queue.back();
        queue.pop_back();
        while (source.next(u, cand)) {
            const SuitorCandidate mine{cand.w, u};
            if (!outranks(mine, suitor[cand.v])) continue;
            const std::uint32_t displaced = suitor[cand.v].v;
            suitor[cand.v] = mine;
            source.accepted(cand.v, mine);
            if (displaced != Matching::kUnmatched) queue.push_back(displaced);
            break;
        }
    }
    return detail::repair(suitor);
}

}  // namespace fare
