#include "fare/mapper.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "oracle/corruption_reference.hpp"
#include "oracle/row_matcher_reference.hpp"

namespace fare {
namespace {

BitMatrix random_adjacency(std::size_t n, double density, Rng& rng) {
    BitMatrix adj(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            if (r != c && rng.next_bool(density)) {
                adj.set(r, c, 1);
                adj.set(c, r, 1);
            }
    return adj;
}

std::vector<FaultMap> random_pool(std::size_t m, std::uint16_t n, double density,
                                  double sa1, Rng& rng) {
    FaultInjectionConfig cfg;
    cfg.density = density;
    cfg.sa1_fraction = sa1;
    cfg.cluster_shape = 1.5;
    cfg.seed = rng.next_u64();
    return inject_faults(m, n, n, cfg);
}

MapperConfig small_mapper(std::uint16_t block = 16) {
    MapperConfig cfg;
    cfg.block_size = block;
    return cfg;
}

TEST(MapperTest, ExtractBlockPadsEdges) {
    FaultAwareMapper mapper(small_mapper(16));
    BitMatrix adj(20, 20);
    adj.set(0, 1, 1);
    adj.set(17, 18, 1);
    const BinaryBlock b00 = mapper.extract_block(adj, 0, 0);
    EXPECT_EQ(b00.size, 16);
    EXPECT_EQ(b00.at(0, 1), 1);
    const BinaryBlock b11 = mapper.extract_block(adj, 1, 1);
    EXPECT_EQ(b11.at(1, 2), 1);   // (17,18) - 16 offset
    EXPECT_EQ(b11.at(15, 15), 0); // padding stays zero
}

TEST(MapperTest, MapBatchAssignsEveryBlockDistinctly) {
    Rng rng(3);
    FaultAwareMapper mapper(small_mapper(16));
    const BitMatrix adj = random_adjacency(40, 0.1, rng);  // 3x3 = 9 blocks
    const auto pool = random_pool(20, 16, 0.05, 0.3, rng);
    const AdjacencyMapping mapping = mapper.map_batch(adj, pool);
    EXPECT_EQ(mapping.grid, 3u);
    EXPECT_EQ(mapping.assignments.size() + mapping.host_blocks.size(), 9u);
    std::vector<std::size_t> used;
    for (const auto& a : mapping.assignments) {
        used.push_back(a.crossbar_index);
        EXPECT_EQ(a.row_perm.size(), 16u);
    }
    std::sort(used.begin(), used.end());
    EXPECT_EQ(std::unique(used.begin(), used.end()), used.end());
}

TEST(MapperTest, FaultAwareBeatsIdentityCost) {
    Rng rng(5);
    FaultAwareMapper mapper(small_mapper(16));
    double aware = 0.0, naive = 0.0;
    for (int trial = 0; trial < 10; ++trial) {
        const BitMatrix adj = random_adjacency(48, 0.08, rng);
        const auto pool = random_pool(18, 16, 0.05, 0.5, rng);
        aware += mapper.map_batch(adj, pool).total_cost();
        naive += mapper.map_identity(adj, pool).total_cost();
    }
    EXPECT_LT(aware, naive * 0.55);
}

TEST(MapperTest, RowReorderBetweenIdentityAndFaultAware) {
    Rng rng(7);
    FaultAwareMapper mapper(small_mapper(16));
    double aware = 0.0, reorder = 0.0, naive = 0.0;
    for (int trial = 0; trial < 10; ++trial) {
        const BitMatrix adj = random_adjacency(48, 0.08, rng);
        const auto pool = random_pool(18, 16, 0.05, 0.5, rng);
        // Evaluate all three with FARe's weighting for comparability.
        const RowMatchWeights w = mapper.config().weights;
        auto eval = [&](const AdjacencyMapping& m) {
            double total = 0.0;
            for (const auto& a : m.assignments) {
                const BinaryBlock block = mapper.extract_block(
                    adj, a.block_index / m.grid, a.block_index % m.grid);
                total += mapping_cost(block, pool[a.crossbar_index], a.row_perm, w);
            }
            return total;
        };
        aware += eval(mapper.map_batch(adj, pool));
        reorder += eval(mapper.map_row_reorder(adj, pool));
        naive += eval(mapper.map_identity(adj, pool));
    }
    EXPECT_LT(aware, reorder);
    EXPECT_LT(reorder, naive);
}

TEST(MapperTest, ApplyCorruptsOnlyMappedBlocks) {
    Rng rng(9);
    FaultAwareMapper mapper(small_mapper(16));
    const BitMatrix adj = random_adjacency(32, 0.1, rng);
    // Clean crossbars: apply must be the identity.
    std::vector<FaultMap> clean(8, FaultMap(16, 16));
    const AdjacencyMapping mapping = mapper.map_batch(adj, clean);
    const BitMatrix out = mapper.apply(adj, mapping, clean);
    EXPECT_EQ(out.bits, adj.bits);
}

TEST(MapperTest, ApplyReflectsStuckBits) {
    FaultAwareMapper mapper(small_mapper(4));
    BitMatrix adj(4, 4);  // single all-zero block
    std::vector<FaultMap> pool(2, FaultMap(4, 4));
    pool[0].add(0, 0, FaultType::kSA1);
    pool[1].add(0, 0, FaultType::kSA1);
    // Identity mapping pins the block to crossbar 0 with no permutation.
    const AdjacencyMapping mapping = mapper.map_identity(adj, pool);
    const BitMatrix out = mapper.apply(adj, mapping, pool);
    EXPECT_EQ(out.at(0, 0), 1);  // SA1 inserted the edge bit
}

TEST(MapperTest, FaultAwareAvoidsHotCrossbar) {
    // Two crossbars: one saturated with SA1, one clean. The single block
    // must land on the clean one.
    FaultAwareMapper mapper(small_mapper(8));
    BitMatrix adj(8, 8);
    adj.set(0, 1, 1);
    std::vector<FaultMap> pool(2, FaultMap(8, 8));
    for (std::uint16_t r = 0; r < 8; ++r)
        for (std::uint16_t c = 0; c < 8; ++c)
            if ((r + c) % 2 == 0) pool[0].add(r, c, FaultType::kSA1);
    const AdjacencyMapping mapping = mapper.map_batch(adj, pool);
    ASSERT_EQ(mapping.assignments.size(), 1u);
    EXPECT_EQ(mapping.assignments[0].crossbar_index, 1u);
}

TEST(MapperTest, RepermuteKeepsAssignment) {
    Rng rng(11);
    FaultAwareMapper mapper(small_mapper(16));
    const BitMatrix adj = random_adjacency(32, 0.1, rng);
    auto pool = random_pool(8, 16, 0.03, 0.3, rng);
    std::vector<AdjacencyMapping> mappings{mapper.map_batch(adj, pool)};
    std::vector<std::size_t> before;
    for (const auto& a : mappings[0].assignments) before.push_back(a.crossbar_index);

    // Post-deployment wear: add faults, then repermute rows only.
    Rng wear(13);
    inject_additional_faults(pool, 0.02, 0.3, wear);
    mapper.repermute(mappings, {adj}, pool);
    std::vector<std::size_t> after;
    for (const auto& a : mappings[0].assignments) after.push_back(a.crossbar_index);
    EXPECT_EQ(before, after);  // Pi unchanged; only row perms refreshed
}

/// repermute re-matches every batch at once, on one profile per crossbar
/// shared by the blocks of all batches placed on it. Each assignment must
/// keep its block and crossbar and carry the permutation and cost of a
/// fresh solve of that pair alone, bit for bit, with either row matcher.
TEST(MapperTest, RepermuteMatchesPerAssignmentSolve) {
    for (const bool exact : {false, true}) {
        Rng rng(23);
        MapperConfig cfg = small_mapper(32);
        cfg.exact_row_matching = exact;
        const FaultAwareMapper mapper(cfg);
        FaultInjectionConfig faults;
        faults.density = 0.03;
        faults.sa1_fraction = 0.5;
        faults.cluster_shape = 0.5;
        faults.seed = rng.next_u64();
        auto pool = inject_faults(12, 32, 32, faults);
        // 4 + 4 + 9 blocks on 12 crossbars: batches share crossbars.
        std::vector<BitMatrix> adjs;
        std::vector<AdjacencyMapping> mappings;
        for (const std::size_t n : {40, 60, 80}) {
            adjs.push_back(random_adjacency(n, 0.05, rng));
            mappings.push_back(mapper.map_batch(adjs.back(), pool));
        }
        Rng wear(29);
        inject_additional_faults(pool, 0.05, 0.5, wear);
        const std::vector<AdjacencyMapping> before = mappings;
        mapper.repermute(mappings, adjs, pool);

        std::size_t moved = 0;
        for (std::size_t b = 0; b < mappings.size(); ++b) {
            ASSERT_EQ(mappings[b].assignments.size(), before[b].assignments.size());
            for (std::size_t k = 0; k < mappings[b].assignments.size(); ++k) {
                const BlockAssignment& ba = mappings[b].assignments[k];
                const BlockAssignment& was = before[b].assignments[k];
                EXPECT_EQ(ba.block_index, was.block_index);
                EXPECT_EQ(ba.crossbar_index, was.crossbar_index);
                const BinaryBlock block = mapper.extract_block(
                    adjs[b], ba.block_index / mappings[b].grid, ba.block_index % mappings[b].grid);
                const FaultMap& map = pool[ba.crossbar_index];
                const RowMatchResult fresh =
                    exact ? best_row_permutation_exact(block, map, cfg.weights)
                          : best_row_permutation(block, map, cfg.weights);
                EXPECT_EQ(ba.row_perm, fresh.perm) << "exact=" << exact << " batch " << b;
                EXPECT_EQ(ba.cost, fresh.cost) << "exact=" << exact << " batch " << b;
                moved += ba.row_perm != was.row_perm;
            }
        }
        EXPECT_GT(moved, 0u) << "exact=" << exact;  // the wear re-placed some rows
    }
}

TEST(MapperTest, CandidatePruningKeepsQuality) {
    Rng rng(15);
    MapperConfig cfg = small_mapper(16);
    FaultAwareMapper full(cfg);
    cfg.max_crossbar_candidates = 8;
    FaultAwareMapper pruned(cfg);
    const BitMatrix adj = random_adjacency(32, 0.1, rng);  // 4 blocks
    const auto pool = random_pool(32, 16, 0.05, 0.5, rng);
    const double c_full = full.map_batch(adj, pool).total_cost();
    const double c_pruned = pruned.map_batch(adj, pool).total_cost();
    // Pruning to the cleanest 8 of 32 should stay close to the full search.
    EXPECT_LE(c_pruned, c_full * 1.5 + 4.0);
}

TEST(MapperTest, TooFewCrossbarsRejected) {
    Rng rng(17);
    FaultAwareMapper mapper(small_mapper(16));
    const BitMatrix adj = random_adjacency(40, 0.1, rng);  // 9 blocks
    const auto pool = random_pool(4, 16, 0.02, 0.3, rng);
    EXPECT_THROW(mapper.map_batch(adj, pool), InvalidArgument);
}

TEST(MapperTest, BlockRemovalDropsSparsestWhenTight) {
    // b == m and a crossbar whose SA1 cannot overlap anything: the sparsest
    // block goes to the host.
    FaultAwareMapper mapper(small_mapper(4));
    BitMatrix adj(8, 8);  // 4 blocks; block (0,0) gets some edges
    adj.set(0, 1, 1);
    adj.set(1, 0, 1);
    adj.set(0, 2, 1);
    std::vector<FaultMap> pool(4, FaultMap(4, 4));
    for (auto& map : pool) map.add(0, 3, FaultType::kSA1);  // nothing to overlap
    const AdjacencyMapping mapping = mapper.map_batch(adj, pool);
    EXPECT_EQ(mapping.host_blocks.size(), 1u);
    EXPECT_EQ(mapping.assignments.size(), 3u);
    // Host block passes through apply() unchanged.
    const BitMatrix out = mapper.apply(adj, mapping, pool);
    const std::size_t host = mapping.host_blocks[0];
    const std::size_t bi = host / mapping.grid, bj = host % mapping.grid;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            EXPECT_EQ(out.at(bi * 4 + r, bj * 4 + c), adj.at(bi * 4 + r, bj * 4 + c));
}

/// Block (bi, bj) of `adj` read cell by cell, zero-padded to n.
BinaryBlock block_by_cells(const BitMatrix& adj, std::uint16_t n, std::size_t bi,
                           std::size_t bj) {
    BinaryBlock block;
    block.size = n;
    block.bits.assign(static_cast<std::size_t>(n) * n, 0);
    for (std::uint16_t r = 0; r < n && bi * n + r < adj.rows; ++r)
        for (std::uint16_t c = 0; c < n && bj * n + c < adj.cols; ++c)
            block.set(r, c, adj.at(bi * n + r, bj * n + c));
    return block;
}

/// apply() by composition: extract each mapped block cell by cell, corrupt
/// it with corrupt_adjacency_block and write the in-range cells back.
BitMatrix apply_by_blocks(const BitMatrix& adj, std::uint16_t n,
                          const AdjacencyMapping& mapping,
                          const std::vector<FaultMap>& crossbars) {
    BitMatrix out = adj;
    for (const BlockAssignment& ba : mapping.assignments) {
        const std::size_t bi = ba.block_index / mapping.grid;
        const std::size_t bj = ba.block_index % mapping.grid;
        const BinaryBlock eff = corrupt_adjacency_block(
            block_by_cells(adj, n, bi, bj), crossbars[ba.crossbar_index], ba.row_perm);
        for (std::uint16_t r = 0; r < n && bi * n + r < out.rows; ++r)
            for (std::uint16_t c = 0; c < n && bj * n + c < out.cols; ++c)
                out.set(bi * n + r, bj * n + c, eff.at(r, c));
    }
    return out;
}

/// apply() writes each mapped block straight from the fault rows; it must
/// equal the block-by-block composition on random mappings: ragged and
/// non-square adjacencies (sizes not a multiple of n, blocks past the last
/// row or column), crossbars with spare rows, random row permutations and
/// blocks left on the host. extract_block must equal the cell-by-cell read.
TEST(MapperTest, ApplyMatchesBlockCorruption) {
    Rng rng(19);
    for (int trial = 0; trial < 60; ++trial) {
        const auto n = static_cast<std::uint16_t>(1 + rng.next_below(20));
        BitMatrix adj(1 + rng.next_below(3 * n + 5), 1 + rng.next_below(3 * n + 5));
        for (auto& bit : adj.bits) bit = rng.next_bool(0.3) ? 1 : 0;
        FaultAwareMapper mapper(small_mapper(n));
        AdjacencyMapping mapping;
        mapping.grid = (std::max(adj.rows, adj.cols) + n - 1) / n;
        mapping.matrix_size = mapping.grid * n;
        const std::size_t blocks = mapping.grid * mapping.grid;
        const auto phys = static_cast<std::uint16_t>(n + rng.next_below(4));
        std::vector<FaultMap> pool(blocks + 2, FaultMap(phys, phys));
        for (FaultMap& map : pool)
            for (std::uint16_t r = 0; r < phys; ++r)
                for (std::uint16_t c = 0; c < phys; ++c)
                    if (rng.next_bool(0.15))
                        map.add(r, c, rng.next_bool(0.5) ? FaultType::kSA1 : FaultType::kSA0);
        std::vector<std::size_t> xbars(pool.size());
        std::iota(xbars.begin(), xbars.end(), 0u);
        rng.shuffle(xbars);
        for (std::size_t i = 0; i < blocks; ++i) {
            if (rng.next_bool(0.2)) {
                mapping.host_blocks.push_back(i);
                continue;
            }
            std::vector<std::uint16_t> rows(phys);
            std::iota(rows.begin(), rows.end(), std::uint16_t{0});
            rng.shuffle(rows);
            rows.resize(n);
            mapping.assignments.push_back({i, xbars[i], rows, 0.0});
        }
        rng.shuffle(mapping.assignments);
        EXPECT_EQ(mapper.apply(adj, mapping, pool).bits,
                  apply_by_blocks(adj, n, mapping, pool).bits)
            << "trial " << trial << ": " << adj.rows << "x" << adj.cols << " n=" << n;
        for (std::size_t i = 0; i < blocks; ++i)
            EXPECT_EQ(mapper.extract_block(adj, i / mapping.grid, i % mapping.grid).bits,
                      block_by_cells(adj, n, i / mapping.grid, i % mapping.grid).bits)
                << "trial " << trial << " block " << i;
    }
}

/// map_batch prices each pair on shared block and crossbar images over the
/// pruned candidate pool; every assignment it makes must carry the per-pair
/// reference's permutation and cost, bit for bit.
TEST(MapperTest, MapBatchMatchesPerPairReference) {
    Rng rng(21);
    for (int trial = 0; trial < 6; ++trial) {
        MapperConfig cfg = small_mapper(64);
        cfg.max_crossbar_candidates = 8;
        const FaultAwareMapper mapper(cfg);
        const BitMatrix adj = random_adjacency(100 + 20 * trial, 0.01, rng);
        FaultInjectionConfig faults;
        faults.density = 0.01 + 0.01 * trial;
        faults.sa1_fraction = 0.5;
        faults.cluster_shape = 0.5;
        faults.seed = rng.next_u64();
        const auto pool = inject_faults(16, 64, 64, faults);
        const AdjacencyMapping mapping = mapper.map_batch(adj, pool);
        for (const BlockAssignment& ba : mapping.assignments) {
            const RowMatchResult ref = best_row_permutation_reference(
                mapper.extract_block(adj, ba.block_index / mapping.grid,
                                     ba.block_index % mapping.grid),
                pool[ba.crossbar_index], cfg.weights);
            EXPECT_EQ(ba.row_perm, ref.perm) << "trial " << trial << " block " << ba.block_index;
            EXPECT_EQ(ba.cost, ref.cost) << "trial " << trial << " block " << ba.block_index;
        }
    }
}

}  // namespace
}  // namespace fare
