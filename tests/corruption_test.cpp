#include "reram/corruption.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracle/corruption_reference.hpp"
#include "reram/compiled_overlay.hpp"

namespace fare {
namespace {

TEST(WeightFaultGridTest, MapsCrossbarFaultsToSlices) {
    // One 32x32 crossbar holds a 32x4 weight matrix (4 weights * 8 cells).
    FaultMap map(32, 32);
    map.add(3, 8, FaultType::kSA1);   // weight (3,1), slice 0 (MSB)
    map.add(3, 15, FaultType::kSA0);  // weight (3,1), slice 7 (LSB)
    const WeightFaultGrid grid(32, 4, {map}, 32, 32);
    EXPECT_EQ(grid.num_faults(), 2u);
    EXPECT_EQ(grid.slice_fault(3, 1, 0), FaultType::kSA1);
    EXPECT_EQ(grid.slice_fault(3, 1, 7), FaultType::kSA0);
    EXPECT_FALSE(grid.slice_fault(3, 1, 3).has_value());
    EXPECT_FALSE(grid.slice_fault(2, 1, 0).has_value());
}

TEST(CorruptFixedTest, Sa1MsbExplodes) {
    FaultMap map(32, 32);
    map.add(0, 0, FaultType::kSA1);
    const WeightFaultGrid grid(32, 4, {map}, 32, 32);
    const std::int16_t q = float_to_fixed(0.5f);
    const float faulty = fixed_to_float(corrupt_fixed(q, grid, 0, 0));
    EXPECT_GT(std::abs(faulty), 60.0f);
}

TEST(CorruptWeightsTest, NoFaultsMeansQuantizationOnly) {
    const WeightFaultGrid grid(32, 4, {FaultMap(32, 32)}, 32, 32);
    Rng rng(1);
    Matrix w(32, 4);
    for (auto& v : w.flat()) v = rng.uniform(-1.0f, 1.0f);
    const Matrix out = CompiledFaultOverlay(grid, w.rows(), w.cols()).apply(w);
    EXPECT_LE(max_abs_diff(out, w), kFixedStep / 2.0f + 1e-6f);
}

TEST(CorruptWeightsPermutedTest, PermutationRelocatesExposure) {
    FaultMap map(32, 32);
    map.add(0, 0, FaultType::kSA1);  // physical row 0 is poisoned
    const WeightFaultGrid grid(32, 4, {map}, 32, 32);
    Matrix w(4, 4, 0.25f);

    // Identity: logical row 0 explodes.
    const Matrix id = CompiledFaultOverlay(grid, w.rows(), w.cols()).apply(w);
    EXPECT_GT(std::abs(id(0, 0)), 60.0f);

    // Relocate logical row 0 to clean physical row 10; park row 2 at 0.
    const std::vector<std::uint16_t> perm{10, 1, 0, 3};
    const Matrix moved = CompiledFaultOverlay(grid, w.rows(), w.cols(), perm).apply(w);
    EXPECT_FLOAT_EQ(moved(0, 0), 0.25f);
    EXPECT_GT(std::abs(moved(2, 0)), 60.0f);
}

TEST(BinaryBlockTest, EdgeDensity) {
    BinaryBlock block;
    block.size = 4;
    block.bits.assign(16, 0);
    block.set(0, 0, 1);
    block.set(1, 2, 1);
    EXPECT_DOUBLE_EQ(block.edge_density(), 2.0 / 16.0);
}

TEST(CorruptAdjacencyTest, Sa1AddsAndSa0DeletesEdges) {
    BinaryBlock block;
    block.size = 4;
    block.bits.assign(16, 0);
    block.set(0, 1, 1);
    block.set(2, 3, 1);

    FaultMap map(8, 8);
    map.add(0, 1, FaultType::kSA0);  // deletes edge (0,1)
    map.add(1, 2, FaultType::kSA1);  // inserts edge (1,2)
    const BinaryBlock eff =
        corrupt_adjacency_block(block, map, identity_perm(4));
    EXPECT_EQ(eff.at(0, 1), 0);  // deleted
    EXPECT_EQ(eff.at(1, 2), 1);  // inserted
    EXPECT_EQ(eff.at(2, 3), 1);  // untouched
}

TEST(CorruptAdjacencyTest, PermutationAvoidsFaults) {
    BinaryBlock block;
    block.size = 4;
    block.bits.assign(16, 0);

    FaultMap map(8, 8);
    map.add(0, 2, FaultType::kSA1);  // physical row 0 inserts an edge

    // Identity places logical row 0 on the poisoned physical row.
    const BinaryBlock bad = corrupt_adjacency_block(block, map, identity_perm(4));
    EXPECT_EQ(bad.at(0, 2), 1);

    // Park logical rows on rows 4..7 (all clean).
    const BinaryBlock good = corrupt_adjacency_block(block, map, {4, 5, 6, 7});
    for (std::uint16_t r = 0; r < 4; ++r)
        for (std::uint16_t c = 0; c < 4; ++c) EXPECT_EQ(good.at(r, c), 0);
}

TEST(CorruptAdjacencyTest, MatchingBitsAreHarmless) {
    BinaryBlock block;
    block.size = 2;
    block.bits = {1, 0, 0, 1};
    FaultMap map(4, 4);
    map.add(0, 0, FaultType::kSA1);  // stored 1, stuck 1 -> no change
    map.add(0, 1, FaultType::kSA0);  // stored 0, stuck 0 -> no change
    const BinaryBlock eff = corrupt_adjacency_block(block, map, identity_perm(2));
    EXPECT_EQ(eff.at(0, 0), 1);
    EXPECT_EQ(eff.at(0, 1), 0);
}

TEST(IdentityPermTest, IsIdentity) {
    const auto p = identity_perm(5);
    for (std::uint16_t i = 0; i < 5; ++i) EXPECT_EQ(p[i], i);
}

}  // namespace
}  // namespace fare
