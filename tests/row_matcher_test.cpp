#include "fare/row_matcher.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "fare/bsuitor.hpp"
#include "fare/hungarian.hpp"
#include "oracle/row_matcher_reference.hpp"
#include "oracle/suitor_match.hpp"
#include "reram/accelerator.hpp"
#include "reram/wear_model.hpp"

namespace fare {
namespace {

BinaryBlock random_block(std::uint16_t n, double density, Rng& rng) {
    BinaryBlock b;
    b.size = n;
    b.bits.assign(static_cast<std::size_t>(n) * n, 0);
    for (auto& bit : b.bits) bit = rng.next_bool(density) ? 1 : 0;
    return b;
}

FaultMap random_map(std::uint16_t n, double density, double sa1_frac, Rng& rng) {
    FaultMap map(n, n);
    for (std::uint16_t r = 0; r < n; ++r)
        for (std::uint16_t c = 0; c < n; ++c)
            if (rng.next_bool(density))
                map.add(r, c,
                        rng.next_bool(sa1_frac) ? FaultType::kSA1 : FaultType::kSA0);
    return map;
}

void check_is_permutation(const std::vector<std::uint16_t>& perm, std::uint16_t phys) {
    std::vector<bool> used(phys, false);
    for (auto p : perm) {
        ASSERT_LT(p, phys);
        EXPECT_FALSE(used[p]) << "duplicate target " << p;
        used[p] = true;
    }
}

TEST(MappingCostTest, CountsWeightedMismatches) {
    // Block: row0 = [1, 0]; SA0 under the 1 costs sa0, SA1 under the 0 costs sa1.
    BinaryBlock block;
    block.size = 2;
    block.bits = {1, 0, 0, 0};
    FaultMap map(2, 2);
    map.add(0, 0, FaultType::kSA0);
    map.add(0, 1, FaultType::kSA1);
    const RowMatchWeights w{1.0, 4.0};
    EXPECT_DOUBLE_EQ(mapping_cost(block, map, identity_perm(2), w), 5.0);
    EXPECT_EQ(sa1_nonoverlap_count(block, map, identity_perm(2)), 1u);
}

TEST(MappingCostTest, MatchingBitsCostNothing) {
    BinaryBlock block;
    block.size = 2;
    block.bits = {1, 0, 0, 0};
    FaultMap map(2, 2);
    map.add(0, 0, FaultType::kSA1);  // stored 1, stuck 1
    map.add(0, 1, FaultType::kSA0);  // stored 0, stuck 0
    EXPECT_DOUBLE_EQ(mapping_cost(block, map, identity_perm(2), {}), 0.0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Integer weights are priced from the two mismatch counts. Up to 2^31 per
/// mismatch the result must be the column-order running sum's double, bit
/// for bit, for every (block row, physical row) pair.
TEST(MappingCostTest, IntegerWeightsPriceLikeTheColumnOrderSum) {
    const double weights[] = {0.0, 1.0, 4.0, 0x1p31};
    Rng rng(41);
    for (const std::uint16_t n : {7, 64, 100, 128}) {
        const BinaryBlock block = random_block(n, 0.3, rng);
        const FaultMap map = random_map(n, 0.4, 0.5, rng);
        const BlockImage image(block);
        std::vector<std::pair<RowMatchWeights, CrossbarImage>> priced;
        for (const double w0 : weights)
            for (const double w1 : weights)
                priced.emplace_back(RowMatchWeights{w0, w1}, CrossbarImage(map, n, {w0, w1}));
        for (std::uint16_t r = 0; r < n; ++r)
            for (std::uint16_t p = 0; p < n; ++p) {
                std::vector<bool> sa1_misses;  // per mismatch, in column order
                for (const CellFault& f : map.row_faults(p))
                    if ((f.type == FaultType::kSA0) == (block.at(r, f.col) == 1))
                        sa1_misses.push_back(f.type == FaultType::kSA1);
                for (const auto& [w, xbar] : priced) {
                    double sum = 0.0;
                    for (const bool sa1 : sa1_misses) sum += sa1 ? w.sa1 : w.sa0;
                    ASSERT_TRUE(same_bits(xbar.cost(image.row(r), p), sum))
                        << "n=" << n << " w={" << w.sa0 << "," << w.sa1 << "} r=" << r
                        << " p=" << p;
                }
            }
    }
}

TEST(RowMatcherTest, FindsZeroCostPermutationWhenOneExists) {
    // Construct: physical row 0 has SA1 at col 0; block row 1 has a 1 there.
    // Swapping rows 0 and 1 hides the fault completely.
    BinaryBlock block;
    block.size = 2;
    block.bits = {0, 0, 1, 0};
    FaultMap map(2, 2);
    map.add(0, 0, FaultType::kSA1);
    const RowMatchResult r = best_row_permutation(block, map);
    check_is_permutation(r.perm, 2);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    EXPECT_EQ(r.perm[1], 0u);  // block row 1 placed on faulty physical row 0
}

TEST(RowMatcherTest, UsesSpareCleanRows) {
    // 2-row block on a 4-row crossbar whose rows 0 and 1 are poisoned: the
    // matcher should park both block rows on the clean rows 2 and 3.
    BinaryBlock block;
    block.size = 2;
    block.bits = {0, 0, 0, 0};
    FaultMap map(4, 4);
    map.add(0, 0, FaultType::kSA1);
    map.add(1, 1, FaultType::kSA1);
    const RowMatchResult r = best_row_permutation(block, map);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    EXPECT_GE(r.perm[0], 2u);
    EXPECT_GE(r.perm[1], 2u);
}

TEST(RowMatcherTest, ExactNeverWorseThanApproximate) {
    Rng rng(11);
    for (int trial = 0; trial < 30; ++trial) {
        const std::uint16_t n = 12;
        const BinaryBlock block = random_block(n, 0.15, rng);
        const FaultMap map = random_map(n, 0.1, 0.3, rng);
        const RowMatchResult approx = best_row_permutation(block, map);
        const RowMatchResult exact = best_row_permutation_exact(block, map);
        check_is_permutation(approx.perm, n);
        check_is_permutation(exact.perm, n);
        EXPECT_LE(exact.cost, approx.cost + 1e-9) << "trial " << trial;
        // Evaluated costs agree with mapping_cost.
        EXPECT_DOUBLE_EQ(approx.cost, mapping_cost(block, map, approx.perm, {}));
    }
}

TEST(RowMatcherTest, BothBeatIdentityOnAverage) {
    Rng rng(13);
    double id_total = 0.0, approx_total = 0.0;
    for (int trial = 0; trial < 20; ++trial) {
        const std::uint16_t n = 16;
        const BinaryBlock block = random_block(n, 0.1, rng);
        const FaultMap map = random_map(n, 0.08, 0.3, rng);
        id_total += mapping_cost(block, map, identity_perm(n), {});
        approx_total += best_row_permutation(block, map).cost;
    }
    EXPECT_LT(approx_total, id_total * 0.9);
}

TEST(RowMatcherTest, Sa1WeightingPrefersHidingSa1) {
    // One SA1 and one SA0, exactly one block 1-bit that can hide either:
    // with sa1 >> sa0 the matcher must hide the SA1 fault.
    BinaryBlock block;
    block.size = 2;
    block.bits = {1, 0, 0, 0};  // row 0 has a 1 at col 0
    FaultMap map(2, 2);
    map.add(0, 0, FaultType::kSA0);  // would delete the 1 if row 0 stays
    map.add(1, 0, FaultType::kSA1);  // would insert on a 0
    // Hiding SA1: put block row 0 (the 1) on physical row 1. Residual: SA0
    // under a 0 on row 0 — harmless. Total cost 0.
    const RowMatchResult r = best_row_permutation(block, map, {1.0, 4.0});
    EXPECT_EQ(r.perm[0], 1u);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    EXPECT_DOUBLE_EQ(r.sa1_nonoverlap, 0.0);
}

TEST(RowMatcherTest, CleanCrossbarGivesZeroCost) {
    Rng rng(17);
    const BinaryBlock block = random_block(8, 0.2, rng);
    const FaultMap map(8, 8);
    const RowMatchResult r = best_row_permutation(block, map);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    check_is_permutation(r.perm, 8);
}

TEST(RowMatcherTest, PermSizeValidated) {
    BinaryBlock block;
    block.size = 4;
    block.bits.assign(16, 0);
    FaultMap map(2, 2);  // smaller than block
    EXPECT_THROW(best_row_permutation(block, map), InvalidArgument);
}

/// Density sweep: the permutation never increases cost vs identity.
class RowMatcherSweep : public ::testing::TestWithParam<double> {};

TEST_P(RowMatcherSweep, NeverWorseThanIdentity) {
    Rng rng(19);
    const std::uint16_t n = 24;
    const BinaryBlock block = random_block(n, 0.12, rng);
    const FaultMap map = random_map(n, GetParam(), 0.5, rng);
    const double id_cost = mapping_cost(block, map, identity_perm(n), {});
    const RowMatchResult r = best_row_permutation(block, map);
    EXPECT_LE(r.cost, id_cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Densities, RowMatcherSweep,
                         ::testing::Values(0.01, 0.03, 0.05, 0.1, 0.2));

/// The equivalence grid: calls visit(block, map, weights, where) on every
/// instance. It covers empty and dense blocks, fault-free maps, SA1-only
/// rows (default benefit 0), equal weights (explicit benefits tie with the
/// default, so ties fall to id order), weights whose sums round ({0.1,
/// 0.3}), spare physical rows and fault columns beyond the block. Every (n,
/// phys, block density, fault density) cell runs two of the sixteen (SA1
/// fraction, weights) pairs, cycling so each pair meets every other axis.
/// Returns the instance count.
template <class Visit>
std::size_t for_each_grid_instance(Visit&& visit) {
    const std::uint16_t sizes[] = {1, 7, 64, 65, 100, 128};
    const double block_densities[] = {0.0, 0.005, 0.02, 0.1, 0.5, 0.9};
    const double fault_densities[] = {0.0, 0.01, 0.05, 0.2, 0.6};
    const double sa1_fractions[] = {0.0, 0.1, 0.5, 1.0};
    const RowMatchWeights weights[] = {{1.0, 4.0}, {1.0, 1.0}, {1.25, 3.75}, {0.1, 0.3}};
    constexpr std::size_t kPairs = std::size(sa1_fractions) * std::size(weights);
    Rng rng(23);
    std::size_t cell = 0, instances = 0;
    for (const std::uint16_t n : sizes)
        for (const std::uint16_t phys : {n, static_cast<std::uint16_t>(n + 2),
                                         std::uint16_t{200}})
            for (const double block_density : block_densities)
                for (const double fault_density : fault_densities) {
                    const BinaryBlock block = random_block(n, block_density, rng);
                    FaultMap map(phys, phys);
                    for (std::uint16_t r = 0; r < phys; ++r)
                        for (std::uint16_t c = 0; c < phys; ++c)
                            if (rng.next_bool(fault_density)) map.add(r, c, FaultType::kSA0);
                    for (std::size_t k = 2 * cell; k < 2 * cell + 2; ++k) {
                        const double sa1_fraction =
                            sa1_fractions[k % kPairs / std::size(weights)];
                        const RowMatchWeights& w = weights[k % std::size(weights)];
                        FaultMap typed(phys, phys);
                        for (const CellFault& f : map.all_faults())
                            typed.add(f.row, f.col,
                                      rng.next_bool(sa1_fraction) ? FaultType::kSA1
                                                                  : FaultType::kSA0);
                        visit(block, typed, w,
                              ::testing::Message()
                                  << "n=" << n << " phys=" << phys << " block=" << block_density
                                  << " faults=" << fault_density << " sa1=" << sa1_fraction
                                  << " w={" << w.sa0 << "," << w.sa1 << "}");
                        ++instances;
                    }
                    ++cell;
                }
    return instances;
}

/// fast equals ref: the same perm and bitwise-equal cost and SA1 non-overlap.
void expect_same_result(const RowMatchResult& fast, const RowMatchResult& ref,
                        const ::testing::Message& where) {
    ASSERT_EQ(fast.perm, ref.perm) << where;
    EXPECT_TRUE(same_bits(fast.cost, ref.cost)) << where << ": " << fast.cost << " vs " << ref.cost;
    EXPECT_TRUE(same_bits(fast.sa1_nonoverlap, ref.sa1_nonoverlap)) << where;
}

/// The implicit-graph matcher returns the reference's perm, cost and SA1
/// non-overlap bit for bit over the equivalence grid. The reference runs
/// the generic loop (natural start order, no skipped proposals), so this
/// checks the fast path's skips and its strongest-first start together.
TEST(RowMatcherEquivalenceTest, FastPathMatchesReferenceBitForBit) {
    const std::size_t instances = for_each_grid_instance(
        [](const BinaryBlock& block, const FaultMap& map, const RowMatchWeights& w,
           const ::testing::Message& where) {
            const RowMatchResult ref = best_row_permutation_reference(block, map, w);
            expect_same_result(best_row_permutation(block, map, w), ref, where);
            // The public cost functions price any perm the reference's
            // per-fault way.
            EXPECT_TRUE(same_bits(mapping_cost(block, map, ref.perm, w), ref.cost)) << where;
            EXPECT_EQ(static_cast<double>(sa1_nonoverlap_count(block, map, ref.perm)),
                      ref.sa1_nonoverlap)
                << where;
        });
    EXPECT_EQ(instances, 2u * 6 * 3 * 6 * 5);
}

/// b-Suitor's guarantee (Khan et al.): the matched benefit is at least half
/// the optimum. Over the equivalence grid, the benefit graph is built
/// explicitly (benefit = base - cost per (block row, faulty row) pair, kept
/// when positive) and the optimum is the Hungarian assignment on -benefit,
/// where a zero entry stands for "unmatched".
TEST(RowMatcherEquivalenceTest, BSuitorKeepsHalfTheOptimum) {
    for_each_grid_instance([](const BinaryBlock& block, const FaultMap& map,
                              const RowMatchWeights& w, const ::testing::Message& where) {
        const std::uint16_t n = block.size;
        std::vector<double> base;
        std::vector<std::vector<double>> cost(n);  // cost[r][k] on faulty row k
        for (std::uint16_t p = 0; p < map.rows(); ++p) {
            double all = 0.0;
            std::vector<double> row_costs(n, 0.0);
            for (const CellFault& f : map.row_faults(p)) {
                if (f.col >= n) continue;
                const double weight = f.type == FaultType::kSA1 ? w.sa1 : w.sa0;
                all += weight;
                for (std::uint16_t r = 0; r < n; ++r)
                    if ((block.at(r, f.col) == 1) == (f.type == FaultType::kSA0))
                        row_costs[r] += weight;
            }
            if (all <= 0.0) continue;
            base.push_back(all);
            for (std::uint16_t r = 0; r < n; ++r) cost[r].push_back(row_costs[r]);
        }
        const std::size_t faulty = base.size();
        std::vector<WeightedEdge> edges;
        const std::size_t small = std::min<std::size_t>(n, faulty);
        const std::size_t large = std::max<std::size_t>(n, faulty);
        std::vector<double> assign_cost(small * large, 0.0);
        for (std::uint16_t r = 0; r < n; ++r)
            for (std::size_t k = 0; k < faulty; ++k) {
                const double benefit = base[k] - cost[r][k];
                if (benefit <= 0.0) continue;
                edges.push_back({r, static_cast<std::uint32_t>(n + k), benefit});
                assign_cost[n <= faulty ? r * large + k : k * large + r] = -benefit;
            }
        const auto total = static_cast<std::uint32_t>(n + faulty);
        const Matching matching = suitor_match(total, edges);
        const double optimum =
            small == 0 ? 0.0 : -hungarian_min_cost(small, large, assign_cost).total_cost;
        EXPECT_GE(matching.total_weight, optimum / 2.0 - 1e-9) << where;
        EXPECT_LE(matching.total_weight, optimum + 1e-9) << where;
    });
}

/// Fig. 5-shaped pools: clustered inject_faults maps (a few fault centres,
/// many near-clean crossbars, and cluster_shape 0 for an even spread) at
/// 0.5-6.5% faults and SA1 0-100%, blocks at the paper's sparse densities,
/// with and without spare rows. Each crossbar's profile and each block's
/// image are built once and shared by every pair, as map_batch does; every
/// pair must equal the per-pair reference bit for bit.
TEST(RowMatcherEquivalenceTest, SharedImagesMatchReferenceOnFig5Pools) {
    const double shapes[] = {0.5, 0.0};
    const std::uint16_t sizes[] = {64, 100, 128};
    const double fault_densities[] = {0.005, 0.02, 0.035, 0.05, 0.065};
    const double block_densities[] = {0.0, 0.001, 0.01, 0.05};
    const double sa1_fractions[] = {0.0, 0.1, 0.5, 1.0};
    const RowMatchWeights weights[] = {{1.0, 4.0}, {1.0, 1.0}, {1.25, 3.75}, {0.1, 0.3}};
    Rng rng(29);
    std::size_t cell = 0, instances = 0;
    for (const double shape : shapes)
        for (const std::uint16_t n : sizes)
            for (const std::uint16_t spare : {std::uint16_t{0}, std::uint16_t{8}})
                for (const double density : fault_densities) {
                    FaultInjectionConfig cfg;
                    cfg.density = density;
                    cfg.sa1_fraction = sa1_fractions[cell % std::size(sa1_fractions)];
                    cfg.cluster_shape = shape;
                    cfg.seed = rng.next_u64();
                    const RowMatchWeights& w = weights[cell / 2 % std::size(weights)];
                    const auto phys = static_cast<std::uint16_t>(n + spare);
                    const std::vector<FaultMap> pool = inject_faults(4, phys, phys, cfg);
                    std::vector<BinaryBlock> blocks;
                    for (const double block_density : block_densities)
                        blocks.push_back(random_block(n, block_density, rng));
                    const std::vector<BlockImage> images(blocks.begin(), blocks.end());
                    for (const FaultMap& map : pool) {
                        const CrossbarProfile xbar(map, n, w);
                        for (std::size_t i = 0; i < blocks.size(); ++i) {
                            expect_same_result(
                                best_row_permutation(images[i], xbar),
                                best_row_permutation_reference(blocks[i], map, w),
                                ::testing::Message()
                                    << "shape=" << shape << " n=" << n << " spare=" << spare
                                    << " faults=" << density << " sa1=" << cfg.sa1_fraction
                                    << " w={" << w.sa0 << "," << w.sa1 << "} block=" << i);
                            ++instances;
                        }
                    }
                    ++cell;
                }
    EXPECT_EQ(instances, 2u * 3 * 2 * 5 * 4 * 4);
}

/// (touching, all) (block row, faulty row) pairs of `block` on `map`: a
/// pair touches when the block row stores a 1 in one of the physical row's
/// fault columns (< n).
std::pair<std::size_t, std::size_t> touching_pairs(const BinaryBlock& block,
                                                   const FaultMap& map) {
    std::size_t touching = 0, all = 0;
    for (std::uint16_t p = 0; p < map.rows(); ++p) {
        std::vector<std::uint16_t> cols;
        for (const CellFault& f : map.row_faults(p))
            if (f.col < block.size) cols.push_back(f.col);
        if (cols.empty()) continue;
        for (std::uint16_t r = 0; r < block.size; ++r) {
            ++all;
            touching += std::any_of(cols.begin(), cols.end(),
                                    [&](std::uint16_t c) { return block.at(r, c) == 1; });
        }
    }
    return {touching, all};
}

/// Worn pools: the regime after deployment wear, where every arrival adds
/// faults and 20-35% of (block row, faulty row) pairs touch (Fig. 5 pools:
/// ~2.5%). Each pool is one tile of four crossbars, each an endurance hot
/// spot with probability 1/2 (one of the four at n = 64, three at n = 128),
/// worn by WearModel::advance at two write levels (8-36% faults); n = 64
/// runs on 72-row crossbars (spare rows, fault columns beyond the block)
/// and n = 128 on 128-row ones. Blocks hold ~0.5, 1.5 and 3 ones per row.
/// Each crossbar's profile is shared by every block, as in repermute, and
/// every pair must equal the per-pair reference bit for bit under all four
/// weight pairs. The touching share (23.4%) is asserted, so the regime
/// cannot drift away from what it stands for.
TEST(RowMatcherEquivalenceTest, SharedImagesMatchReferenceOnWornPools) {
    const RowMatchWeights weights[] = {{1.0, 4.0}, {1.0, 1.0}, {1.25, 3.75}, {0.1, 0.3}};
    Rng rng(31);
    std::size_t instances = 0, touching = 0, all = 0;
    for (const std::uint16_t n : {64, 128}) {
        const auto phys = static_cast<std::uint16_t>(n == 64 ? 72 : 128);
        AcceleratorConfig chip;
        chip.tile.crossbar_rows = phys;
        chip.tile.crossbar_cols = phys;
        chip.tile.crossbars_per_tile = 4;
        chip.num_tiles = 1;
        Accelerator acc(chip);
        WearSpec spec;
        spec.endurance_mean_writes = 1000.0;
        spec.hot_spot_fraction = 0.5;
        spec.hot_spot_severity = 1.5;
        WearModel wear(acc.num_crossbars(), phys, phys, spec, 0.5, rng.next_u64());
        std::uint64_t written = 0;
        for (const std::uint64_t writes : {350u, 500u}) {
            for (std::size_t x = 0; x < acc.num_crossbars(); ++x)
                acc.crossbar(x).add_uniform_writes(writes - written);
            written = writes;
            wear.advance(acc);
            const std::vector<FaultMap> pool = acc.true_fault_maps();
            std::vector<BinaryBlock> blocks;
            for (const double ones_per_row : {0.5, 1.5, 3.0})
                blocks.push_back(random_block(n, ones_per_row / n, rng));
            const std::vector<BlockImage> images(blocks.begin(), blocks.end());
            for (const FaultMap& map : pool)
                for (const BinaryBlock& block : blocks) {
                    const auto [t, a] = touching_pairs(block, map);
                    touching += t;
                    all += a;
                }
            for (const RowMatchWeights& w : weights)
                for (std::size_t x = 0; x < pool.size(); ++x) {
                    const CrossbarProfile xbar(pool[x], n, w);
                    for (std::size_t i = 0; i < blocks.size(); ++i) {
                        expect_same_result(
                            best_row_permutation(images[i], xbar),
                            best_row_permutation_reference(blocks[i], pool[x], w),
                            ::testing::Message()
                                << "n=" << n << " writes=" << writes << " crossbar=" << x
                                << " faults=" << pool[x].fault_density() << " w={" << w.sa0
                                << "," << w.sa1 << "} block=" << i);
                        ++instances;
                    }
                }
        }
    }
    EXPECT_EQ(instances, 2u * 2 * 4 * 4 * 3);
    const double share = static_cast<double>(touching) / static_cast<double>(all);
    EXPECT_GE(share, 0.20) << touching << " of " << all << " pairs touch";
    EXPECT_LE(share, 0.35) << touching << " of " << all << " pairs touch";
}

}  // namespace
}  // namespace fare
