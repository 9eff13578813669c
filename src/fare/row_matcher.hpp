// Row-permutation matching: the inner problem of Algorithm 1.
//
// cost(i,j) maps the n rows of adjacency block a_i onto the n rows of
// crossbar c_j so the block's bits overlap the crossbar's stuck cells as
// much as possible; the residual is the number of mismatches (a SA0 under a
// stored "1" deletes an edge; a SA1 under a stored "0" inserts one). The
// paper solves it as weighted bipartite matching with the b-Suitor
// half-approximation [15]; an exact Hungarian variant is provided for tests
// and small instances. SA1 mismatches are weighted more heavily than SA0
// (configurable), reflecting the paper's observation that SA1 faults are the
// critical ones (§IV-A, Fig. 3).
//
// Cost definition: a (logical row, physical row) pairing costs w0 per SA0
// cell under a stored 1 plus w1 per SA1 cell under a stored 0 (columns < n),
// added per fault in column order; a permutation costs its rows' costs added
// in row order. Every function here rounds that same way, so the fast
// matcher, its reference and mapping_cost agree bit for bit for any weights.
// (Counts times weights would round differently whenever the weights'
// multiples are inexact, e.g. {0.1, 0.3}; the b-Suitor tie-breaks then move,
// and on Fig. 5-shaped instances ~90% of permutations change.)
#pragma once

#include <cstdint>
#include <vector>

#include "reram/corruption.hpp"
#include "reram/fault_model.hpp"

namespace fare {

struct RowMatchWeights {
    double sa0 = 1.0;  ///< cost of one SA0-deletes-edge mismatch
    double sa1 = 4.0;  ///< cost of one SA1-inserts-edge mismatch (critical)
};

struct RowMatchResult {
    std::vector<std::uint16_t> perm;  ///< logical block row -> physical crossbar row
    double cost = 0.0;                ///< weighted mismatch count under perm
    double sa1_nonoverlap = 0.0;      ///< unweighted SA1 mismatches under perm
};

/// Weighted mismatch cost of storing `block` with logical row r at physical
/// row perm[r] of a crossbar with fault map `map`.
double mapping_cost(const BinaryBlock& block, const FaultMap& map,
                    const std::vector<std::uint16_t>& perm,
                    const RowMatchWeights& weights = {});

/// Unweighted count of SA1-inserts-edge mismatches under perm (the paper's
/// "SA1 non-overlap" used by the crossbar-removal rule).
std::size_t sa1_nonoverlap_count(const BinaryBlock& block, const FaultMap& map,
                                 const std::vector<std::uint16_t>& perm);

/// Best row permutation via b-Suitor half-approximate matching (the paper's
/// choice — near-linear in candidate edges). Runs on the implicit benefit
/// graph: most faulty physical rows offer one "default" benefit to every
/// block row with no 1 in their fault columns, so only the other pairs are
/// priced and listed (row_matcher.cpp). The result equals
/// best_row_permutation_reference's, bit for bit.
RowMatchResult best_row_permutation(const BinaryBlock& block, const FaultMap& map,
                                    const RowMatchWeights& weights = {});

/// The same b-Suitor matching on the materialised benefit graph: every
/// positive-benefit (logical, physical) edge is priced from per-row fault
/// lists and fed to bsuitor_match. Test oracle and in-binary bench baseline
/// for best_row_permutation.
RowMatchResult best_row_permutation_reference(const BinaryBlock& block,
                                              const FaultMap& map,
                                              const RowMatchWeights& weights = {});

/// Exact best row permutation via the Hungarian algorithm (O(n^3); used as
/// ground truth in tests and for small blocks).
RowMatchResult best_row_permutation_exact(const BinaryBlock& block,
                                          const FaultMap& map,
                                          const RowMatchWeights& weights = {});

}  // namespace fare
