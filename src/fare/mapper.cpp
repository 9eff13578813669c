#include "fare/mapper.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

#include "common/error.hpp"
#include "fare/hungarian.hpp"

namespace fare {

double AdjacencyMapping::total_cost() const {
    double sum = 0.0;
    for (const auto& a : assignments) sum += a.cost;
    return sum;
}

FaultAwareMapper::FaultAwareMapper(const MapperConfig& config) : config_(config) {
    FARE_CHECK(config.block_size > 0, "block size must be positive");
}

BinaryBlock FaultAwareMapper::extract_block(const BitMatrix& adj, std::size_t bi,
                                            std::size_t bj) const {
    const std::uint16_t n = config_.block_size;
    BinaryBlock block;
    block.size = n;
    block.bits.assign(static_cast<std::size_t>(n) * n, 0);
    const std::size_t row0 = bi * n, col0 = bj * n;
    if (row0 >= adj.rows || col0 >= adj.cols) return block;
    const std::size_t rows = std::min<std::size_t>(n, adj.rows - row0);
    const std::size_t cols = std::min<std::size_t>(n, adj.cols - col0);
    for (std::size_t r = 0; r < rows; ++r)
        std::copy_n(adj.bits.begin() + static_cast<std::ptrdiff_t>((row0 + r) * adj.cols + col0),
                    cols, block.bits.begin() + static_cast<std::ptrdiff_t>(r * n));
    return block;
}

RowMatchResult FaultAwareMapper::match_rows(const BinaryBlock& block,
                                            const FaultMap& map,
                                            const RowMatchWeights& weights) const {
    return config_.exact_row_matching ? best_row_permutation_exact(block, map, weights)
                                      : best_row_permutation(block, map, weights);
}

AdjacencyMapping FaultAwareMapper::map_batch(
    const BitMatrix& adj, const std::vector<FaultMap>& crossbars,
    const TilePlacement* placement) const {
    const std::uint16_t n = config_.block_size;
    AdjacencyMapping mapping;
    mapping.grid = (std::max(adj.rows, adj.cols) + n - 1) / n;
    mapping.matrix_size = mapping.grid * n;
    const std::size_t b_total = mapping.grid * mapping.grid;

    // Extract all blocks and their edge densities.
    std::vector<BinaryBlock> blocks;
    blocks.reserve(b_total);
    for (std::size_t bi = 0; bi < mapping.grid; ++bi)
        for (std::size_t bj = 0; bj < mapping.grid; ++bj)
            blocks.push_back(extract_block(adj, bi, bj));
    std::vector<double> density(b_total);
    for (std::size_t i = 0; i < b_total; ++i) density[i] = blocks[i].edge_density();
    const double min_density = *std::min_element(density.begin(), density.end());

    FARE_CHECK(crossbars.size() >= b_total,
               "need at least as many crossbars as adjacency blocks");

    // cost(i, j) for every block x crossbar pair, via row matching.
    std::vector<std::size_t> live_blocks(b_total);
    std::iota(live_blocks.begin(), live_blocks.end(), 0u);
    std::vector<std::size_t> live_xbars(crossbars.size());
    std::iota(live_xbars.begin(), live_xbars.end(), 0u);

    // Candidate pruning: keep only the cleanest crossbars (by weighted fault
    // count) before paying for the full cost matrix.
    if (config_.max_crossbar_candidates > 0) {
        const std::size_t keep =
            std::max(config_.max_crossbar_candidates, b_total);
        if (live_xbars.size() > keep) {
            auto weighted_faults = [&](std::size_t j) {
                return static_cast<double>(crossbars[j].num_sa0()) *
                           config_.weights.sa0 +
                       static_cast<double>(crossbars[j].num_sa1()) *
                           config_.weights.sa1;
            };
            std::stable_sort(live_xbars.begin(), live_xbars.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return weighted_faults(a) < weighted_faults(b);
                             });
            live_xbars.resize(keep);
            std::sort(live_xbars.begin(), live_xbars.end());
        }
    }

    // Each block's and each live crossbar's side of the row matchings is
    // built once and shared by every pair it is in.
    const std::size_t m = crossbars.size();
    std::vector<RowMatchResult> results(b_total * m);
    if (config_.exact_row_matching) {
        for (std::size_t i = 0; i < b_total; ++i)
            for (std::size_t j : live_xbars)
                results[i * m + j] = match_rows(blocks[i], crossbars[j], config_.weights);
    } else {
        const std::vector<BlockImage> images(blocks.begin(), blocks.end());
        for (std::size_t j : live_xbars) {
            const CrossbarProfile xbar(crossbars[j], n, config_.weights);
            for (std::size_t i = 0; i < b_total; ++i)
                results[i * m + j] = best_row_permutation(images[i], xbar);
        }
    }

    // Crossbar-removal rule (Algorithm 1 line 12): if even the most
    // compatible block cannot overlap crossbar j's SA1 faults down to the
    // sparsest block's edge density, exclude the crossbar — worst offenders
    // first, but never below one crossbar per block.
    const double cells = static_cast<double>(n) * static_cast<double>(n);
    std::vector<std::pair<double, std::size_t>> candidates;  // (nonoverlap, j)
    for (std::size_t j : live_xbars) {
        double min_nonoverlap = std::numeric_limits<double>::infinity();
        for (std::size_t i : live_blocks)
            min_nonoverlap =
                std::min(min_nonoverlap, results[i * m + j].sa1_nonoverlap);
        if (min_nonoverlap / cells > min_density)
            candidates.emplace_back(min_nonoverlap, j);
    }
    std::sort(candidates.rbegin(), candidates.rend());
    const std::size_t max_removals = live_xbars.size() - live_blocks.size();
    if (candidates.size() > max_removals) candidates.resize(max_removals);
    for (const auto& [nonoverlap, j] : candidates) {
        mapping.removed_crossbars.push_back(j);
        live_xbars.erase(std::find(live_xbars.begin(), live_xbars.end(), j));
    }

    // Block-removal rule (Algorithm 1 line 14): with b = m there is no slack
    // left; drop the sparsest block to the host to regain freedom.
    if (live_blocks.size() == live_xbars.size() && live_blocks.size() > 1) {
        double min_nonoverlap = std::numeric_limits<double>::infinity();
        for (std::size_t j : live_xbars)
            for (std::size_t i : live_blocks)
                min_nonoverlap =
                    std::min(min_nonoverlap, results[i * m + j].sa1_nonoverlap);
        if (min_nonoverlap > 0.0) {
            const std::size_t sparsest =
                *std::min_element(live_blocks.begin(), live_blocks.end(),
                                  [&](std::size_t a, std::size_t bidx) {
                                      return density[a] < density[bidx];
                                  });
            mapping.host_blocks.push_back(sparsest);
            live_blocks.erase(
                std::find(live_blocks.begin(), live_blocks.end(), sparsest));
        }
    }

    // Outer assignment (Algorithm 1 line 18): exact min-cost matching of the
    // surviving blocks onto the surviving crossbars. With a TilePlacement,
    // off-home-tile pairs pay an affinity surcharge so the matching prefers
    // crossbars on a block's home tile when fault compatibility is close.
    const bool tile_bias =
        placement != nullptr && placement->crossbars_per_tile > 0;
    std::vector<double> cost(live_blocks.size() * live_xbars.size(), 0.0);
    for (std::size_t bi = 0; bi < live_blocks.size(); ++bi)
        for (std::size_t xj = 0; xj < live_xbars.size(); ++xj) {
            double c = results[live_blocks[bi] * m + live_xbars[xj]].cost;
            if (tile_bias) {
                const std::size_t block = live_blocks[bi];
                const int home = block < placement->block_home_tile.size()
                                     ? placement->block_home_tile[block]
                                     : -1;
                if (home >= 0 && placement->tile_of(live_xbars[xj]) != home)
                    c += placement->off_tile_penalty;
            }
            cost[bi * live_xbars.size() + xj] = c;
        }
    const AssignmentResult assignment =
        hungarian_min_cost(live_blocks.size(), live_xbars.size(), cost);

    for (std::size_t bi = 0; bi < live_blocks.size(); ++bi) {
        const std::size_t i = live_blocks[bi];
        const std::size_t j = live_xbars[static_cast<std::size_t>(
            assignment.row_to_col[bi])];
        BlockAssignment ba;
        ba.block_index = i;
        ba.crossbar_index = j;
        ba.row_perm = results[i * m + j].perm;
        ba.cost = results[i * m + j].cost;
        mapping.assignments.push_back(std::move(ba));
    }
    return mapping;
}

AdjacencyMapping FaultAwareMapper::map_identity(
    const BitMatrix& adj, const std::vector<FaultMap>& crossbars) const {
    const std::uint16_t n = config_.block_size;
    AdjacencyMapping mapping;
    mapping.grid = (std::max(adj.rows, adj.cols) + n - 1) / n;
    mapping.matrix_size = mapping.grid * n;
    const std::size_t b_total = mapping.grid * mapping.grid;
    FARE_CHECK(crossbars.size() >= b_total,
               "need at least as many crossbars as adjacency blocks");
    for (std::size_t i = 0; i < b_total; ++i) {
        BlockAssignment ba;
        ba.block_index = i;
        ba.crossbar_index = i;
        ba.row_perm = identity_perm(n);
        ba.cost = mapping_cost(extract_block(adj, i / mapping.grid, i % mapping.grid),
                               crossbars[i], ba.row_perm, config_.weights);
        mapping.assignments.push_back(std::move(ba));
    }
    return mapping;
}

AdjacencyMapping FaultAwareMapper::map_row_reorder(
    const BitMatrix& adj, const std::vector<FaultMap>& crossbars) const {
    const std::uint16_t n = config_.block_size;
    AdjacencyMapping mapping;
    mapping.grid = (std::max(adj.rows, adj.cols) + n - 1) / n;
    mapping.matrix_size = mapping.grid * n;
    const std::size_t b_total = mapping.grid * mapping.grid;
    FARE_CHECK(crossbars.size() >= b_total,
               "need at least as many crossbars as adjacency blocks");
    // NR treats SA0 and SA1 alike (no criticality weighting) and keeps the
    // identity block-to-crossbar placement.
    RowMatchWeights equal{1.0, 1.0};
    for (std::size_t i = 0; i < b_total; ++i) {
        const BinaryBlock block =
            extract_block(adj, i / mapping.grid, i % mapping.grid);
        RowMatchResult r = match_rows(block, crossbars[i], equal);
        BlockAssignment ba;
        ba.block_index = i;
        ba.crossbar_index = i;
        ba.row_perm = std::move(r.perm);
        ba.cost = r.cost;
        mapping.assignments.push_back(std::move(ba));
    }
    return mapping;
}

BitMatrix FaultAwareMapper::apply(const BitMatrix& adj,
                                  const AdjacencyMapping& mapping,
                                  const std::vector<FaultMap>& crossbars) const {
    // Each mapped cell reads back as stored, or as its stuck value: fault
    // codes are SA0 = 1 and SA1 = 2, so code >> 1 is the stuck bit.
    const std::uint16_t n = config_.block_size;
    BitMatrix out = adj;
    for (const BlockAssignment& ba : mapping.assignments) {
        const FaultMap& map = crossbars[ba.crossbar_index];
        FARE_CHECK(map.rows() >= n && map.cols() >= n, "fault map smaller than block");
        FARE_CHECK(ba.row_perm.size() == n, "permutation size mismatch");
        const std::size_t row0 = ba.block_index / mapping.grid * n;
        const std::size_t col0 = ba.block_index % mapping.grid * n;
        if (row0 >= out.rows || col0 >= out.cols) continue;
        const std::size_t rows = std::min<std::size_t>(n, out.rows - row0);
        const std::size_t cols = std::min<std::size_t>(n, out.cols - col0);
        for (std::size_t r = 0; r < rows; ++r) {
            FARE_CHECK(ba.row_perm[r] < map.rows(), "fault position out of range");
            const std::uint8_t* cells = map.row_cells(ba.row_perm[r]).data();
            std::uint8_t* dst = out.bits.data() + (row0 + r) * out.cols + col0;
            for (std::size_t c = 0; c < cols; ++c)
                if (cells[c] != 0) dst[c] = static_cast<std::uint8_t>(cells[c] >> 1);
        }
    }
    return out;  // host blocks keep their ideal bits
}

void FaultAwareMapper::repermute(std::vector<AdjacencyMapping>& mappings,
                                 const std::vector<BitMatrix>& adjs,
                                 const std::vector<FaultMap>& crossbars) const {
    FARE_CHECK(mappings.size() == adjs.size(), "one adjacency per mapping");
    // As in map_batch: one profile per crossbar in use, shared by every
    // block placed on it, and one image per block.
    std::vector<std::optional<CrossbarProfile>> profiles(crossbars.size());
    for (std::size_t b = 0; b < mappings.size(); ++b) {
        AdjacencyMapping& mapping = mappings[b];
        for (BlockAssignment& ba : mapping.assignments) {
            const BinaryBlock block = extract_block(adjs[b], ba.block_index / mapping.grid,
                                                    ba.block_index % mapping.grid);
            const FaultMap& map = crossbars[ba.crossbar_index];
            RowMatchResult r;
            if (config_.exact_row_matching) {
                r = match_rows(block, map, config_.weights);
            } else {
                std::optional<CrossbarProfile>& xbar = profiles[ba.crossbar_index];
                if (!xbar) xbar.emplace(map, config_.block_size, config_.weights);
                r = best_row_permutation(BlockImage(block), *xbar);
            }
            ba.row_perm = std::move(r.perm);
            ba.cost = r.cost;
        }
    }
}

}  // namespace fare
