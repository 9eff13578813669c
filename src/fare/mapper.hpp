// Fault-aware adjacency mapping — Algorithm 1 of the paper.
//
// Inputs: the batch adjacency matrix A_i, the set C of available crossbars
// and their BIST fault maps F. Output: the fault-aware mapping Pi — for
// every (n x n) block of A_i, which crossbar stores it and with which row
// permutation.
//
// Steps (paper §IV-A):
//   1. decompose A_i into disjoint equal (n x n) blocks B (n = crossbar rows);
//   2. cost(i,j) = weighted mismatch count of the best row permutation of
//      block a_i on crossbar c_j — solved as weighted bipartite matching
//      with b-Suitor [15];
//   3. crossbar-removal rule: if even the best block leaves a SA1 non-overlap
//      fraction above the sparsest block's edge density, drop that crossbar
//      (Algorithm 1 line 12);
//   4. block-removal rule: if b = m after removals, drop the sparsest block —
//      it is handled fault-free on the host (Algorithm 1 line 14; densities
//      as low as 0.001 make this cheap);
//   5. outer assignment of blocks to crossbars: exact min-cost matching
//      (Hungarian) on the cost(i,j) matrix (Algorithm 1 line 18).
//
// Post-deployment faults: repermute() recomputes the row permutations only,
// keeping the block-to-crossbar assignment Pi — the paper's epoch-boundary
// fix-up, computed on the host while the current batch executes.
#pragma once

#include <cstdint>
#include <vector>

#include "fare/row_matcher.hpp"
#include "numeric/bitmatrix.hpp"
#include "reram/fault_model.hpp"

namespace fare {

struct MapperConfig {
    std::uint16_t block_size = 128;  ///< n (crossbar rows)
    RowMatchWeights weights;
    bool exact_row_matching = false;  ///< Hungarian instead of b-Suitor
    /// When > 0 and the pool is larger, prune it to this many candidate
    /// crossbars (the cleanest by weighted fault count) before the full
    /// cost-matrix computation — "efficient resource utilization" (§IV-A)
    /// without a quadratic blow-up on large pools. 0 = consider every
    /// crossbar.
    std::size_t max_crossbar_candidates = 0;
};

/// Partition-derived placement hints for map_batch. When supplied, the outer
/// block-to-crossbar assignment pays `off_tile_penalty` extra for placing a
/// block on a crossbar outside the block's home tile, so ties (and
/// near-ties) in fault compatibility break toward the graph cut — tile
/// traffic follows the partitioning. Recorded per-assignment costs stay the
/// raw mismatch costs; the affinity term only steers the assignment.
struct TilePlacement {
    /// Home tile per row-major block id; -1 = no preference.
    std::vector<int> block_home_tile;
    /// Tile geometry of the crossbar pool: pool crossbar j lives in tile
    /// (pool_base + j) / crossbars_per_tile. 0 disables the bias.
    std::size_t crossbars_per_tile = 0;
    /// Flat index of the pool's first crossbar on the accelerator.
    std::size_t pool_base = 0;
    /// Cost added per off-tile placement — a tie-breaker on the same scale
    /// as fractional row-mismatch weights, not a hard constraint.
    double off_tile_penalty = 0.25;

    /// Tile holding pool crossbar `j`, or -1 when the bias is disabled.
    int tile_of(std::size_t j) const {
        if (crossbars_per_tile == 0) return -1;
        return static_cast<int>((pool_base + j) / crossbars_per_tile);
    }
};

struct BlockAssignment {
    std::size_t block_index = 0;      ///< row-major block id in the grid
    std::size_t crossbar_index = 0;   ///< index into the crossbar pool
    std::vector<std::uint16_t> row_perm;
    double cost = 0.0;
};

struct AdjacencyMapping {
    std::size_t matrix_size = 0;  ///< padded N (multiple of block size)
    std::size_t grid = 0;         ///< blocks per side
    std::vector<BlockAssignment> assignments;
    /// Blocks dropped by the block-removal rule; their aggregation runs
    /// fault-free on the host.
    std::vector<std::size_t> host_blocks;
    /// Crossbars excluded by the removal rule.
    std::vector<std::size_t> removed_crossbars;

    double total_cost() const;
};

class FaultAwareMapper {
public:
    explicit FaultAwareMapper(const MapperConfig& config = {});

    const MapperConfig& config() const { return config_; }
    void set_max_crossbar_candidates(std::size_t n) {
        config_.max_crossbar_candidates = n;
    }

    /// Extract block (bi, bj) of `adj`, zero-padded to block_size.
    BinaryBlock extract_block(const BitMatrix& adj, std::size_t bi,
                              std::size_t bj) const;

    /// Run Algorithm 1 for one batch adjacency over the crossbar pool.
    /// `placement` (optional) biases the outer assignment toward each
    /// block's home tile (partition-aware mapping; see TilePlacement).
    AdjacencyMapping map_batch(const BitMatrix& adj,
                               const std::vector<FaultMap>& crossbars,
                               const TilePlacement* placement = nullptr) const;

    /// Trivial mapping used by the fault-unaware baseline: block k on
    /// crossbar k, identity permutation.
    AdjacencyMapping map_identity(const BitMatrix& adj,
                                  const std::vector<FaultMap>& crossbars) const;

    /// Neuron-reordering-style mapping: identity block assignment but
    /// row permutations chosen with SA0 = SA1 weighting (no criticality).
    AdjacencyMapping map_row_reorder(const BitMatrix& adj,
                                     const std::vector<FaultMap>& crossbars) const;

    /// Effective adjacency bits after storing `adj` under `mapping` on the
    /// faulty crossbars (stuck cells flip stored bits; host blocks pass
    /// through unchanged).
    BitMatrix apply(const BitMatrix& adj, const AdjacencyMapping& mapping,
                    const std::vector<FaultMap>& crossbars) const;

    /// Post-deployment fix-up: recompute the row permutations of every
    /// batch mapping (mappings[b] stores adjs[b]) against fresh fault maps,
    /// keeping each block-to-crossbar assignment. Each crossbar's side of
    /// the row matchings is built once for all of them.
    void repermute(std::vector<AdjacencyMapping>& mappings, const std::vector<BitMatrix>& adjs,
                   const std::vector<FaultMap>& crossbars) const;

private:
    RowMatchResult match_rows(const BinaryBlock& block, const FaultMap& map,
                              const RowMatchWeights& weights) const;

    MapperConfig config_;
};

}  // namespace fare
