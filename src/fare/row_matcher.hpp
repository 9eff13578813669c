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
// matcher, the exact matcher, mapping_cost and the test oracle agree bit for
// bit for any weights.
// When both weights are non-negative integers no larger than 2^32 (FARe's
// {1, 4}, NR's {1, 1}), a row is priced from its two mismatch counts
// instead: w0·#SA0 + w1·#SA1, in integers. That is the same double, because
// every partial sum of the column-order running sum is then an integer
// below 2^53, which a double holds exactly. Every other weight keeps the
// running sum: counts times weights would round differently whenever the
// weights' multiples are inexact, e.g. {0.1, 0.3}; the b-Suitor tie-breaks
// then move, and on Fig. 5-shaped instances ~90% of permutations change.
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

/// An adjacency block as bitsets: its rows, and its columns (which find the
/// block rows that touch a fault column). Built once per block and shared by
/// every crossbar the block is priced on.
class BlockImage {
public:
    explicit BlockImage(const BinaryBlock& block);

    std::uint16_t size() const { return n_; }
    std::size_t words() const { return words_; }
    /// Row r: bit c set when the block stores a 1 at (r, c).
    const std::uint64_t* row(std::uint16_t r) const { return slot(r); }
    /// Column c: bit r set when the block stores a 1 at (r, c).
    const std::uint64_t* col(std::uint16_t c) const { return slot(std::size_t{n_} + c); }

private:
    const std::uint64_t* slot(std::size_t k) const { return bits_.data() + k * words_; }

    std::uint16_t n_ = 0;
    std::size_t words_ = 0;
    std::vector<std::uint64_t> bits_;  // n rows, then n columns
};

/// A crossbar's stuck cells as bitsets for n-row blocks: per physical row
/// the columns < n stuck at 0 and at 1, priced under one weight pair.
/// Enough to price any permutation.
class CrossbarImage {
public:
    CrossbarImage(const FaultMap& map, std::uint16_t n, const RowMatchWeights& weights = {});

    /// Columns (< n) of physical row p stuck at 0 / at 1.
    const std::uint64_t* sa0(std::uint16_t p) const {
        return bits_.data() + 2 * std::size_t{p} * words_;
    }
    const std::uint64_t* sa1(std::uint16_t p) const { return sa0(p) + words_; }

    /// Weighted mismatch cost of storing the n-bit row `stored` on physical
    /// row p: w0 per SA0 cell under a 1 and w1 per SA1 cell under a 0, from
    /// the two counts for integer weights and added in column order for any
    /// others (see the cost definition above).
    double cost(const std::uint64_t* stored, std::uint16_t p) const;
    /// Cost of `block` under perm: row costs added in row order.
    double cost(const BlockImage& block, const std::vector<std::uint16_t>& perm) const;
    /// SA1 cells under a stored 0 across `block` under perm (unweighted).
    std::size_t sa1_misses(const BlockImage& block,
                           const std::vector<std::uint16_t>& perm) const;

private:
    std::size_t words_;
    RowMatchWeights weights_;
    bool counted_ = false;  // both weights are integers in [0, 2^32]: price by counts
    std::uint64_t sa0_count_weight_ = 0;
    std::uint64_t sa1_count_weight_ = 0;
    std::vector<std::uint64_t> bits_;  // (SA0, SA1) per physical row
};

/// What every row matching on one crossbar shares under fixed weights,
/// built once per crossbar. Faulty row k (base > 0) is matching vertex
/// n + k. A block row that has no 1 in faulty row p's fault columns meets
/// every SA1 of p under a 0 and no SA0 under a 1, so all such rows share
/// p's default benefit d(p) = base(p) - w1·|SA1_p| (the SA1 term summed per
/// fault).
struct CrossbarProfile {
    CrossbarProfile(const FaultMap& map, std::uint16_t n, const RowMatchWeights& weights);

    std::uint16_t n;
    CrossbarImage image;  ///< priced under the profile's weights
    std::vector<double> base;            ///< per physical row: every fault mismatched
    std::vector<std::uint16_t> faulty;   ///< physical rows with base > 0, ascending
    std::vector<double> default_benefit;  ///< d per faulty index
    /// A block row's default class: faulty indices with d > 0 in
    /// proposes_before order (d desc, index asc).
    std::vector<std::uint32_t> by_default;
    /// Position of each faulty index in by_default, or by_default.size().
    std::vector<std::uint32_t> default_pos;
    /// Every physical row, cleanest first (base asc, id asc): where the
    /// unmatched block rows go.
    std::vector<std::uint16_t> cleanest_first;
};

/// Best row permutation via b-Suitor half-approximate matching (the paper's
/// choice — near-linear in candidate edges). Runs on the implicit benefit
/// graph: most faulty physical rows offer their default benefit to every
/// block row that does not touch them, so only the other pairs are priced
/// and listed (row_matcher.cpp). The result equals the materialised-graph
/// test oracle's (tests/oracle/), bit for bit.
RowMatchResult best_row_permutation(const BinaryBlock& block, const FaultMap& map,
                                    const RowMatchWeights& weights = {});

/// The same on prebuilt images, for a caller that prices many pairs.
RowMatchResult best_row_permutation(const BlockImage& block, const CrossbarProfile& xbar);

/// Exact best row permutation via the Hungarian algorithm (O(n^3); used as
/// ground truth in tests and for small blocks). Its cost matrix is priced
/// by CrossbarImage::cost, so each entry rounds like every other price here.
RowMatchResult best_row_permutation_exact(const BinaryBlock& block,
                                          const FaultMap& map,
                                          const RowMatchWeights& weights = {});

}  // namespace fare
