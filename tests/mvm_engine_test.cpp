#include "oracle/mvm_engine.hpp"

#include "common/error.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "numeric/quantize.hpp"
#include "reram/compiled_overlay.hpp"

namespace fare {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, float range, Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.flat()) v = rng.uniform(-range, range);
    return m;
}

TEST(MvmEngineTest, GridGeometry) {
    // 200x40 weights on 128x128 crossbars: 128 cols hold 16 weights.
    ProgrammedWeights pw(200, 40, 128, 128);
    EXPECT_EQ(pw.grid_rows(), 2u);   // ceil(200/128)
    EXPECT_EQ(pw.grid_cols(), 3u);   // ceil(40/16)
    EXPECT_EQ(pw.num_crossbars(), 6u);
}

TEST(MvmEngineTest, FaultFreeReadBackIsExact) {
    Rng rng(1);
    const Matrix w = random_matrix(30, 20, 2.0f, rng);
    ProgrammedWeights pw(30, 20, 32, 32);
    pw.program(w);
    const Matrix back = dequantize(pw.read_effective());
    EXPECT_LE(max_abs_diff(back, quantize_dequantize(w)), 0.0f);
}

TEST(MvmEngineTest, FaultFreeMvmMatchesFloatReference) {
    Rng rng(2);
    const Matrix w = random_matrix(24, 12, 1.0f, rng);
    const Matrix x = random_matrix(5, 24, 1.0f, rng);
    ProgrammedWeights pw(24, 12, 32, 32);
    pw.program(w);
    const Matrix y_hw = pw.mvm(x);
    const Matrix y_ref = matmul(x, w);
    // Error bounded by accumulated quantisation noise.
    EXPECT_LT(max_abs_diff(y_hw, y_ref), 24 * 2.5f * kFixedStep);
}

TEST(MvmEngineTest, Sa1MsbFaultExplodesOutput) {
    const std::size_t rows = 4, cols = 2;
    Matrix w(rows, cols, 0.25f);
    ProgrammedWeights pw(rows, cols, 32, 32);
    FaultMap map(32, 32);
    map.add(0, 0, FaultType::kSA1);  // MSB slice of weight (0,0)
    pw.set_fault_maps({map});
    pw.program(w);
    const Matrix eff = dequantize(pw.read_effective());
    EXPECT_GT(std::abs(eff(0, 0)), 60.0f);       // exploded
    EXPECT_FLOAT_EQ(eff(1, 0), 0.25f);           // neighbours untouched
}

TEST(MvmEngineTest, EffectiveReadMatchesCorruptionFastPath) {
    // The central consistency property (docs/performance.md, *Equivalence
    // contract*): reading weights back through the bit-sliced engine equals
    // the corruption fast path, fault pattern for fault pattern.
    Rng rng(3);
    const std::size_t rows = 40, cols = 12;
    const Matrix w = random_matrix(rows, cols, 2.0f, rng);

    FaultInjectionConfig cfg;
    cfg.density = 0.1;
    cfg.sa1_fraction = 0.3;
    cfg.seed = 33;
    // 32x32 crossbars: grid is 2x3 = 6 crossbars.
    const auto maps = inject_faults(6, 32, 32, cfg);

    ProgrammedWeights pw(rows, cols, 32, 32);
    pw.set_fault_maps(maps);
    pw.program(w);
    const Matrix via_engine = dequantize(pw.read_effective());

    const WeightFaultGrid grid(rows, cols, maps, 32, 32);
    const Matrix via_corruption = CompiledFaultOverlay(grid, rows, cols).apply(w);

    EXPECT_EQ(via_engine, via_corruption);  // bit-identical
}

TEST(MvmEngineTest, StuckCellsIgnoreWrites) {
    ProgrammedWeights pw(4, 4, 32, 32);
    FaultMap map(32, 32);
    map.add(1, 5, FaultType::kSA0);
    pw.set_fault_maps({map});
    Matrix w(4, 4, 1.0f);
    pw.program(w);
    pw.program(w);  // rewriting changes nothing about the stuck cell
    const Matrix eff = dequantize(pw.read_effective());
    EXPECT_NE(eff(1, 0), 0.0f);  // weight still mostly intact (non-MSB cell)
}

TEST(MvmEngineTest, InputWidthValidated) {
    ProgrammedWeights pw(8, 4, 32, 32);
    Matrix x(2, 9);
    EXPECT_THROW(pw.mvm(x), InvalidArgument);
}

TEST(MvmEngineTest, CrossbarWidthMustFitWholeWeights) {
    EXPECT_THROW(ProgrammedWeights(8, 4, 32, 30), InvalidArgument);
}

/// Property sweep over fault densities: engine == corruption path always.
class EnginePathEquivalence : public ::testing::TestWithParam<double> {};

TEST_P(EnginePathEquivalence, BitIdentical) {
    Rng rng(44);
    const std::size_t rows = 32, cols = 8;
    const Matrix w = random_matrix(rows, cols, 1.5f, rng);
    FaultInjectionConfig cfg;
    cfg.density = GetParam();
    cfg.sa1_fraction = 0.5;
    cfg.seed = 55;
    const auto maps = inject_faults(2, 32, 32, cfg);
    ProgrammedWeights pw(rows, cols, 32, 32);
    pw.set_fault_maps(maps);
    pw.program(w);
    const WeightFaultGrid grid(rows, cols, maps, 32, 32);
    EXPECT_EQ(dequantize(pw.read_effective()), CompiledFaultOverlay(grid, rows, cols).apply(w));
}

INSTANTIATE_TEST_SUITE_P(DensitySweep, EnginePathEquivalence,
                         ::testing::Values(0.0, 0.01, 0.05, 0.2));

}  // namespace
}  // namespace fare
